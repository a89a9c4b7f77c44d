(** Warm-started repeated QPP solving.

    Live reconfiguration re-solves the same instance after small
    deltas (an edge length moved, a capacity shrank). A [Resolve.t]
    keeps, per candidate source, the final simplex basis of the last
    solve and crash-starts the next one from it
    ({!Qp_lp.Simplex.solve_warm}); when the delta is small the LP
    re-solves in far fewer pivots, and when it is not the solver
    falls back to the cold path per candidate (the LP's first-fit
    start, else phase 1), so {!solve} always returns the same answer
    {!Qpp_solver.solve} would. *)

type t

val create : ?alpha:float -> ?max_pivots:int -> ?candidates:int list -> unit -> t
(** Same parameters and defaults as {!Qpp_solver.solve}; they are
    fixed for the lifetime of the state because the stored bases are
    only meaningful against an unchanged LP layout. *)

val solve : t -> Problem.qpp -> Qpp_solver.result option
(** Solve, warm-starting every candidate source from the basis of the
    previous call and storing the new bases for the next one. The
    first call is a cold solve. *)

val reset : t -> unit
(** Drop all stored bases (e.g. after a topology change that renames
    nodes); the next {!solve} runs cold. *)

val warm_sources : t -> int
(** Number of candidate sources with a stored basis. *)

val solves : t -> int
(** Total {!solve} calls on this state. *)
