(** Sidney decomposition for [1|prec|sum w_j C_j].

    Sidney (1975) showed that an optimal schedule can be assumed to
    process a maximum-DENSITY ideal first (an ideal is a
    predecessor-closed job set; density = weight/time), recursively.
    Chekuri–Motwani and Margot–Queyranne–Wang proved that ANY schedule
    consistent with the decomposition is a 2-approximation — the
    natural complement to this repository's exact subset-DP, usable
    far beyond its n <= 20 limit.

    The max-density ideal is found by Dinkelbach iteration on
    lambda -> max-weight closure with weights [w_j - lambda t_j],
    each closure solved exactly as a min cut ({!Qp_assign.Maxflow}). *)

val max_weight_ideal : Sched.t -> among:int list -> weights:(int -> float) -> int list
(** The maximum-weight predecessor-closed subset of [among] (ties
    toward larger sets), restricted to the precedence induced on
    [among]; may be empty when all weights are negative. *)

val decomposition : Sched.t -> int list list
(** The Sidney blocks in schedule order; their densities are
    non-increasing. @raise Invalid_argument if any processing time is
    zero. *)

val schedule : Sched.t -> int array
(** A decomposition-consistent schedule (topological within each
    block): a 2-approximation for the weighted completion time. *)
