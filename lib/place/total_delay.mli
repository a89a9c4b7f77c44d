(** Total-delay placement (Section 5, Theorem 5.1).

    The objective [Avg_v Gamma_f(v)] separates per element:
    [Avg_v Gamma_f(v) = sum_u load(u) * AvgDist(f(u))] with
    [AvgDist(v) = Avg_{v'} d(v', v)] (rate-weighted when client rates
    are present). That makes the problem a GAP instance with
    [c_vu = load(u) * AvgDist(v)] and [p_vu = load(u)]; Shmoys–Tardos
    rounding yields cost at most the capacity-respecting optimum with
    loads at most [2 cap(v)]. *)

type result = {
  placement : Placement.t;
  cost : float; (* Avg_v Gamma_f(v) *)
  lp_cost : float; (* GAP LP value: lower bound on the OPT *)
  load_violation : float; (* max load_f(v)/cap(v) — Thm 5.1: <= 2 *)
}

val solve : Problem.qpp -> result option
(** [None] when the GAP relaxation is infeasible. *)

val exact_uniform : Problem.qpp -> (float * Placement.t) option
(** Exact optimum when all element loads are equal: each node holds
    [floor (cap / load)] elements and the objective only depends on
    how many elements each node hosts, so greedily filling nodes by
    increasing [AvgDist] is optimal. Oracle for experiment E7. *)
