(** Availability analysis of quorum systems.

    Classic quantities from the quorum-systems literature the paper
    builds on [Naor–Wool 98, Peleg–Wool 97]: under independent node
    failures with probability [p], the system fails when no quorum is
    fully alive — i.e. when the failed set is a transversal (hits
    every quorum). *)

val failure_probability : Quorum.system -> float -> float
(** Exact failure probability under iid failure probability [p],
    by enumeration over the [2^universe] failure patterns.
    @raise Invalid_argument when [universe > 22] (use
    {!failure_probability_mc}) or [p] is outside [[0, 1]] (NaN too). *)

val failure_probability_mc :
  Qp_util.Rng.t -> Quorum.system -> float -> samples:int -> float
(** Monte-Carlo estimate for larger universes. Same [p] check. *)

val resilience : Quorum.system -> int
(** Size of the smallest transversal minus one: the largest [f] such
    that EVERY set of [f] failures leaves some quorum alive. Computed
    by branch-and-bound over transversals; exponential worst case,
    fine for the explicit systems in this repository. *)

val naor_wool_load_lower_bound : Quorum.system -> float
(** The Naor–Wool bound: every strategy has system load at least
    [max (1/c(Q), c(Q)/n)] where [c(Q)] is the size of the smallest
    quorum. Useful to certify the optimality of the uniform strategies
    used in Section 4 (e.g. FPP meets it with equality). *)
