(** Fixed-size domain pool for data-parallel sections.

    A pool of [jobs]-way parallelism spawns [jobs - 1] worker domains
    once and reuses them across calls; the calling domain drains the
    same work queue while it waits, so a pool of size [n] keeps exactly
    [n] domains busy. [jobs = 1] is the exact sequential path: no
    domains are spawned and tasks run inline on the caller, in index
    order.

    {2 Determinism}

    All entry points preserve input order in their results, and every
    per-element closure runs exactly once, so a pure function yields a
    bit-identical result array regardless of worker count. Elements
    that record telemetry are scoped: each element runs against a
    fresh, lazily-created {!Qp_obs.Metrics} registry (installed as the
    domain-local {!Qp_obs.Metrics.current}), and after the join the
    per-element registries are merged into the caller's registry {e in
    element order} — the same grouping whether the pool has 1 or 16
    workers, so counter totals, histogram sums and final gauge values
    match the sequential run exactly.

    {2 Nesting}

    Calling [parallel_*] from inside a pool task (any pool) falls back
    to the sequential inline path instead of deadlocking on the shared
    queue; the per-element registry scoping still applies. *)

type t

val create : jobs:int -> t
(** [create ~jobs] builds a pool of total parallelism [jobs]
    ([jobs - 1] spawned domains). The pool is reusable across any
    number of [parallel_*] calls until {!shutdown}.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Drains outstanding work, stops and joins the worker domains.
    Idempotent. Submitting to a shut-down pool of size > 1 raises
    [Invalid_argument]. *)

val parallel_init : ?chunk:int -> t -> int -> (int -> 'a) -> 'a array
(** [parallel_init pool n f] is [Array.init n f] with the [f i] calls
    distributed over the pool. [chunk] overrides the scheduling batch
    size (default: enough chunks to balance [4 * jobs] ways); it never
    affects results or telemetry grouping, only queue granularity.
    If any [f i] raises, all elements still run, then the exception of
    the smallest index is re-raised (with its backtrace).
    @raise Invalid_argument when [n < 0] or [chunk < 1]. *)

val parallel_map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] maps [f] over [arr], order-preserving.
    Same scheduling, telemetry and exception contract as
    {!parallel_init}. *)

val async : t -> (unit -> unit) -> unit
(** [async pool task] submits a single task with no join: the caller
    arranges its own completion signalling. Runs inline on the caller
    when the pool has no worker domains ([jobs = 1]) or when invoked
    from inside a pool task; otherwise a worker domain picks it up.
    The task must not raise (exceptions are swallowed by the worker
    guard). Context hooks captured at submit time apply on the queued
    path. @raise Invalid_argument on a shut-down pool. *)

val in_worker : unit -> bool
(** True while the current domain is executing a pool task (including
    the submitting domain when it helps drain the queue). *)

val register_context_hook : (unit -> (unit -> unit) -> unit) -> unit
(** [register_context_hook h] adds a domain-local context propagation
    hook, applied to every queued task of every pool. At submit time
    [h ()] runs on the submitting domain and returns a wrapper; the
    wrapper runs around each queued task on the executing domain,
    re-installing the captured context and restoring the previous
    value afterwards. Hooks are process-global and cannot be
    unregistered; registration is idempotent in effect only if the
    hook itself is. *)

(** {2 Process-default pool}

    Library hot paths ({!Qp_graph.Apsp}, [Qp_place.Delay],
    [Qp_place.Qpp_solver]) pull their pool from here. The default is
    [jobs = 1] — fully sequential — until a front end (the [--jobs]
    flag of [qplace] and [bench/main.exe]) raises it. *)

val set_default_jobs : int -> unit
(** Replaces the process-default pool with one of the given size,
    shutting the previous one down. @raise Invalid_argument when
    [jobs < 1]. *)

val default_jobs : unit -> int

val default : unit -> t
(** The process-default pool (created lazily). *)
