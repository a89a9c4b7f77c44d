(** [qp_serve]: a TCP placement service with an I/O-only event loop
    and pooled solve dispatch.

    One [Unix.select] event loop owns the listening socket and every
    connection; requests are framed ({!Frame}), parsed
    ({!Protocol.parse_request}) and admitted into a bounded FIFO
    queue. Non-solve verbs are handled inline; solves are dispatched
    onto [jobs] dedicated {!Qp_par.Pool} worker domains ([jobs = 1]
    runs them inline — the fully sequential path), each under a
    fresh scoped metrics registry, with completions flowing back to
    the loop over a self-pipe. Responses on one connection are written
    in request order through per-connection ordered slots, so
    pipelined clients see the same wire order at any [jobs]. A served
    placement is byte-identical to the offline [qplace solve] result
    for the same spec and options, at any [jobs] count, cached or
    fresh.

    The placement cache is a bounded LRU over canonical
    [(instance, options)] keys: full-spec requests key on
    {!Qp_instance.Spec.canonical_key} (which excludes [jobs]),
    spec-less requests on the live instance's current generation —
    so an applied [update] strands old entries without clearing, and
    full-spec entries survive reconfiguration. Identical concurrent
    solves are deduplicated in a single-flight table: one worker runs
    the solve, every joined request gets the same payload (deadline
    errors stay with the requester whose deadline fired; a waiting
    joiner is then promoted and the solve retried under its own
    budget). Errors are never cached.

    Robustness invariants (tested in [test/test_serve.ml]):
    - every parseable frame gets exactly one response — malformed
      requests come back as typed error frames, never dropped
      connections; only framing violations close the connection (after
      an error frame when the stream still admits one);
    - admission control: when the queue holds [queue_depth] requests,
      further requests are rejected immediately with [overloaded];
      rejections are written before anything admitted in the same read
      cycle, as in the single-threaded server;
    - deadlines: a request carries (or inherits) a deadline measured
      from arrival; expired requests are rejected with
      [deadline_exceeded] before solving, and a deadline that passes
      mid-solve cancels that solve cooperatively — domain-local
      ({!Qp_lp.Simplex.set_deadline}), so concurrent pooled solves
      never cancel each other;
    - graceful drain: a [shutdown] request or SIGTERM stops accepting,
      answers everything already admitted (including solves already
      running on worker domains, in per-connection order), closes all
      connections and returns.

    Telemetry: per-request spans on the installed {!Qp_obs.Trace}
    sink, and request counters plus latency and queue-wait histograms
    in {!Qp_obs.Metrics.default} (exported by the [metrics] verb as
    Prometheus text). Cache lookups are counted in
    [qp_serve_solve_cache_total{result=hit|miss|inflight,generation}]
    — the generation label makes post-update hit rates interpretable —
    and capacity evictions in [qp_serve_solve_cache_evictions_total].
    Pooled solves record onto scoped registries merged into the
    default registry on the loop thread at delivery. With a
    {!Qp_obs.Wide} sink installed the server emits one wide event per
    request (parse/queue/handle/serialize/write phases, queue depth at
    admission, the solve's simplex pivot count), adopting the client's
    trace id when the request carries a [trace] context — and echoes
    parse/queue/handle timing in such responses. Every answered
    request feeds a {!Qp_obs.Slo} tracker whose windows, error rates
    and burn rates are reported by the [health] verb alongside the
    live queue length, inflight solves and cache
    hit/miss/join/eviction counts. *)

type config = {
  host : string; (* bind address, default "127.0.0.1" *)
  port : int; (* 0 = ephemeral (reported via [ready]) *)
  queue_depth : int; (* admission-control bound on queued requests *)
  default_deadline_ms : int option; (* None = no deadline *)
  max_frame : int; (* framing bound, bytes *)
  max_connections : int;
  default_spec : Qp_instance.Spec.t; (* fills missing request spec fields *)
  jobs : int;
      (* concurrent solves: 1 = inline on the event loop, N > 1 = N
         dedicated worker domains *)
  cache_capacity : int; (* placement-cache entries; 0 disables caching *)
}

val default_config : config
(** 127.0.0.1:7341, queue depth 64, no deadline, 4 MiB frames, 1024
    connections, {!Qp_instance.Spec.default}, [jobs = 1],
    [cache_capacity = 256]. *)

val check_config : config -> (unit, Qp_util.Qp_error.t) result
(** [Error (Invalid_instance _)] unless [0 <= port <= 65535],
    [queue_depth >= 1], [jobs >= 1] and [cache_capacity >= 0]. *)

val run : ?ready:(int -> unit) -> config -> (unit, Qp_util.Qp_error.t) result
(** Bind, serve until drained ([shutdown] verb or SIGTERM), then
    return. [ready] is called once with the bound port before the
    first [accept] (how tests and scripts learn an ephemeral port).
    [Error (Invalid_instance _)] when the socket cannot be bound, and
    when {!check_config} rejects [config]. Installs a SIGTERM handler
    and ignores SIGPIPE for the duration of the call. *)
