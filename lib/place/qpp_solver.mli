(** The full Quorum Placement Problem solver (Theorem 1.2).

    Theorem 3.3 reduces QPP to SSQPP: some node [v0] makes any
    beta-approximate single-source placement a 5*beta-approximate QPP
    placement. Since [v0] is unknown, the solver runs the Theorem 3.7
    LP-rounding for every candidate source and keeps the placement
    with the best (direct-routing) QPP objective. The guarantee is
    [Avg_v Delta_f(v) <= 5 alpha/(alpha-1) OPT] with node loads at
    most [(alpha+1) cap].

    A certified lower bound comes from the same lemma: for the
    (unknown) optimal placement there is a [v0] with
    [Avg_v d(v,v0) + Delta_{f*}(v0) <= 5 OPT] and
    [Delta_{f*}(v0) >= Z*(v0)], hence
    [OPT >= min_v0 (AvgDist(v0) + Z*(v0)) / 5] — valid only when all
    nodes are candidates. *)

type result = {
  placement : Placement.t;
  v0 : int; (* source whose SSQPP solution won *)
  alpha : float;
  objective : float; (* Avg_v Delta_f(v), direct routing *)
  relayed_objective : float; (* Avg_v d(v,v0) + Delta_f(v0) *)
  ssqpp : Rounding.result; (* winning single-source diagnostics *)
  lower_bound : float option;
      (* (min over v0 of AvgDist + Z_star) / 5 when every node was a candidate *)
  load_violation : float;
  approx_bound : float; (* 5 alpha / (alpha - 1) *)
}

val solve :
  ?alpha:float -> ?max_pivots:int -> ?candidates:int list -> Problem.qpp ->
  result option
(** Default [alpha = 2] and [candidates] = all nodes. [None] when the
    SSQPP LP is infeasible for every candidate. [max_pivots] caps the
    simplex pivot count of every candidate LP; exhausting it raises
    [Qp_util.Qp_error.Error (Internal _)] (the solver registry maps it
    to a typed [Internal] result). @raise Invalid_argument unless
    [alpha > 1] is finite: the bound [5 alpha/(alpha-1)] needs it. *)

val solve_with :
  alpha:float ->
  ?candidates:int list ->
  round:
    (v0:int ->
    Problem.ssqpp ->
    (Rounding.result * Qp_lp.Simplex.basis option) option) ->
  Problem.qpp ->
  result option * (int * Qp_lp.Simplex.basis) list
(** The candidate fan-out and winner fold with a pluggable Theorem 3.7
    stage, for callers that run the stage their own way (a layer-timed
    pipeline, say). Also returns the final basis of every candidate
    whose LP was feasible, keyed by source. The fold is identical to
    {!solve}'s, so given the same roundings both paths pick the same
    placement. *)

val solve_warm :
  alpha:float ->
  ?max_pivots:int ->
  ?candidates:int list ->
  warm:(int -> Qp_lp.Simplex.basis option) ->
  Problem.qpp ->
  result option * (int * Qp_lp.Simplex.basis) list
(** The {!solve} path with a basis per source: [warm v0] is the basis
    the LP of source [v0] crash-starts from ({!Rounding.solve_warm}).
    Before the fan-out it builds the LP rows (10)–(14) once per
    capacity-by-rank vector that several candidates share
    ({!Lp_formulation.blocks}), so with uniform capacities every
    candidate shares one block and adds only its objective (9); a
    candidate with a vector of its own builds its rows on its worker.
    The outcome is byte-identical to a per-candidate
    {!Lp_formulation.build}. Returns the bases like {!solve_with}. *)
