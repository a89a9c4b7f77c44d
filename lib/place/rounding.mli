(** Theorem 3.7: LP solve, alpha-filtering, and Shmoys–Tardos rounding
    for the Single-Source Quorum Placement Problem.

    For any [alpha > 1] the returned placement satisfies
    - [Delta_f(v0) <= alpha/(alpha-1) * Z* <= alpha/(alpha-1) *
      Delta_{f*}(v0)], and
    - [load_f(v) <= (alpha + 1) * cap(v)] at every node

    (alpha = 2 gives the paper's headline 2x delay / 3x load,
    Theorem 3.12). *)

type result = {
  placement : Placement.t;
  alpha : float;
  z_star : float; (* LP lower bound on the optimal delay *)
  delay : float; (* achieved Delta_f(v0) *)
  delay_bound : float; (* alpha/(alpha-1) * z_star *)
  load_violation : float; (* max_v load_f(v)/cap(v) *)
  load_bound : float; (* alpha + 1 *)
}

val solve : ?alpha:float -> ?max_pivots:int -> Problem.ssqpp -> result option
(** [None] when LP (9)–(14) is infeasible. Default [alpha = 2].
    [max_pivots] caps the simplex pivot count
    ({!Lp_formulation.solve}). @raise Invalid_argument unless
    [alpha > 1] is finite. *)

val solve_warm :
  ?alpha:float ->
  ?max_pivots:int ->
  ?warm:Qp_lp.Simplex.basis ->
  ?blocks:Lp_formulation.blocks ->
  Problem.ssqpp ->
  (result * Qp_lp.Simplex.basis option) option
(** Like {!solve}, threading a simplex basis through the LP stage
    ({!Lp_formulation.solve_warm}) so a re-solve after a small instance
    delta can crash-start from the previous optimum, and taking the
    LP's rows from [blocks] when given. The rounding stage is
    unchanged; only pivot counts differ from {!solve}. *)

val round_filtered : Problem.ssqpp -> Filtering.filtered -> result
(** The rounding stage alone, for tests that want to inject a
    hand-built fractional solution. *)
