(** Two-phase revised simplex.

    Exact enough for the paper's placement LPs: Dantzig pricing for
    speed with a switch to Bland's rule after a stall to rule out
    cycling, and a phase-1 artificial-variable start unless a crash
    start (a warm basis, or the model's {!Lp.start}) is
    primal-feasible. The constraint
    matrix is kept as sparse columns and only the m x m basis inverse
    is updated per pivot, so no m x ncols tableau is ever built; FTRAN
    walks only the listed nonzero rows of its columns, and pricing
    recomputes only the reduced costs of columns that meet a row whose
    dual moved. Everything that does not depend on the objective — the
    sparse matrix and the state reached by crashing the model's start —
    is built once per {!prepared} start and shared by the LPs that
    differ only in their objective
    (DESIGN.md §15, "Scaling the solve core"). *)

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

type prepared
(** The objective-free part of a solve, immutable once built: the
    sparse constraint matrix with a row index, and the basis, basic
    solution and (sparse) basis inverse that crashing the model's
    start ({!Lp.set_start}) reaches, or the fact that it was refused.
    It holds nothing sized rows², so keeping one per shared
    constraint block is cheap, and solves on several domains may read
    it at once. *)

val prepare : Lp.t -> prepared
(** [prepare lp] builds the prepared start of [lp]'s rows and start;
    the objective is not read. Crash pivots count into
    [qp_simplex_pivots_total] here, once, however many solves use the
    result, and are recorded in it for {!count_crash}. LPs of more
    than 65536 rows are refused with
    [Qp_util.Qp_error.Error (Internal _)] (the dense basis inverse
    alone would take 34 GB). *)

val count_crash : prepared -> unit
(** [count_crash p] counts the crash pivots of [p]'s start into
    [qp_simplex_pivots_total] of the current registry, as {!prepare}
    did when it built [p]: a start kept for later solves is charged to
    each of them, so their counters do not depend on which solve built
    it. *)

val solve : ?max_pivots:int -> Lp.t -> outcome
(** Solves [minimize c.x  s.t. rows, x >= 0]. [lp] is prepared first
    (see {!prepare}); its start is crashed, and the crash pivots
    counted with this solve, when the solve uses it. When the model's
    start was taken, phase 1 is skipped
    and phase 2 starts from the crashed basis; otherwise phase 1 runs
    from the identity basis. Each solve with a start counts in
    [qp_simplex_start_total{outcome="taken"|"refused"}]. Every pivot
    counts into [qp_simplex_pivots_total], also when the solve raises.
    [max_pivots] defaults to
    [50_000 + 50 * (rows + vars)]; exceeding it raises
    [Qp_util.Qp_error.Error (Internal _)] (caught at the solver-engine
    boundary; front ends expose it as a [--pivot-budget] knob). On
    [Optimal], the returned point satisfies every row to within [1e-6]
    relative tolerance: an optimal basis whose point does not (drift of
    the never-refactorized basis inverse) raises the same typed
    [Internal] error and counts in
    [qp_simplex_numeric_failures_total]. LPs of more than 65536 rows
    are refused as {!prepare} refuses them. *)

type basis
(** Opaque snapshot of the final simplex basis of an optimal solve:
    the handle for warm-starting a structurally identical LP whose
    coefficients moved a little (an instance delta). *)

val solve_warm :
  ?max_pivots:int ->
  ?warm:basis ->
  ?prepared:prepared ->
  Lp.t ->
  outcome * basis option
(** Like {!solve}, and additionally returns the final basis on
    [Optimal] for reuse. With [~warm] (a basis from a previous solve of
    an LP with the same variable/constraint layout), the solver crashes
    those columns into the identity basis first; if the crash start is
    primal-feasible, phase 1 is skipped entirely and small deltas
    re-solve in far fewer pivots. If the crash start is infeasible —
    the delta moved the optimum across a facet, or the LP shapes do not
    match — the solve restores the prepared start and runs exactly as
    {!solve} does (the model's start, else phase 1), so the outcome
    (objective, feasibility classification) is always identical to
    {!solve} up to the usual pivot-order float noise. Warm attempts and
    successes are counted in the
    [qp_simplex_warm_attempts_total] / [qp_simplex_warm_used_total]
    metrics; crash pivots count into [qp_simplex_pivots_total].

    [prepared], built by {!prepare} from a model with [lp]'s rows and
    start (one that {!Lp.with_objective} made [lp] from, or the other
    way round), stands in for preparing [lp] here; the outcome, basis
    included, is the same bits either way, and only the crash of the
    model's start, counted once by {!prepare}, is not repeated.
    @raise Invalid_argument when [prepared] was built from other rows
    ({!Lp.same_rows}). *)

val set_deadline : float option -> unit
(** Install (or clear) a domain-local wall-clock deadline, in
    {!Qp_obs.Core.now} seconds. While a deadline is set, every solve
    on this domain checks it on entry and once per pivot and raises
    [Qp_util.Qp_error.Error (Internal _)] as soon as the clock passes
    it — cooperative cancellation for serving front ends
    ([qp_serve] request deadlines). The deadline is domain-local so
    concurrent pooled solves never cancel each other; a
    {!Qp_par.Pool} context hook propagates the submitting domain's
    deadline into worker domains, so candidate LPs parallelized below
    a guarded solve still honor it. Callers must clear it
    ([set_deadline None]) when the guarded region ends; with no
    deadline installed the per-pivot cost is one domain-local load. *)

val get_deadline : unit -> float option
(** The deadline currently installed on this domain, if any. *)

type certified = {
  x : float array;
  objective : float;
  duals : float array; (* one multiplier per constraint, insertion order *)
}

type certified_outcome = Certified of certified | C_infeasible | C_unbounded

val solve_certified : ?max_pivots:int -> ?prepared:prepared -> Lp.t -> certified_outcome
(** Like {!solve} ([prepared] as in {!solve_warm}) but also extracts
    the optimal dual multipliers from
    the final basis, giving a machine-checkable optimality
    certificate (see {!check_certificate}). Convention for
    [min c.x, x >= 0]: a [<=] row has [y <= 0], a [>=] row has
    [y >= 0], an [=] row is free; dual feasibility is
    [c - A^T y >= 0] and strong duality [y.b = c.x]. *)

val check_certificate : ?tol:float -> Lp.t -> certified -> bool
(** Verifies primal feasibility, dual feasibility (including the sign
    conditions), and strong duality, all from first principles —
    independent of how the solution was produced. *)
