(** The filtering step of Section 3.3.1, generalized to any
    [alpha > 1] (Theorem 3.7).

    From an LP solution [x] it builds [x_hat] with
    [x_hat_tu <= alpha * x_tu] and [sum_t x_hat_tu = 1], greedily
    moving mass toward small ranks; likewise for the quorum variables.
    Consequences used downstream:

    - (Claim 3.8 generalized) if [x_hat_tQ > 0] then
      [d_t <= alpha/(alpha-1) * D_Q];
    - (Lemma 3.9 generalized) any placement with [f(u)] inside
      [support u] has [Delta_f(v0) <= alpha/(alpha-1) * Z*];
    - per-rank fractional load grows by at most [alpha]. *)

type filtered = {
  alpha : float;
  sol : Lp_formulation.fractional; (* the unfiltered input *)
  x_hat_elem : float array array; (* rank -> element *)
  x_hat_quorum : float array array; (* rank -> quorum *)
}

val apply : alpha:float -> Lp_formulation.fractional -> filtered
(** @raise Invalid_argument unless [alpha > 1] is finite. *)

val support : filtered -> int -> int list
(** [support flt u] = ranks [t] with [x_hat_tu > 0] — the set [S_u] of
    Lemma 3.9. *)

val check_invariants : filtered -> bool
(** Test hook: filtered rows sum to 1, stay within [alpha * x], and
    every supported rank of a quorum satisfies the generalized
    Claim 3.8 distance bound. *)
