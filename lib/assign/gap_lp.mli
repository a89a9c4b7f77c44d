(** LP relaxation (15)–(18) of GAP, solved with the in-repo simplex.

    minimize  sum_{ij} c_ij y_ij
    s.t.      sum_j p_ij y_ij <= T_i   for every machine i
              sum_i y_ij = 1           for every job j
              y_ij >= 0, y_ij = 0 on forbidden pairs. *)

type fractional = {
  y : float array array; (* machine -> job -> fraction *)
  lp_cost : float;
}

val solve : Gap.t -> fractional option
(** [None] when the relaxation is infeasible (budgets too tight). *)
