(** Threshold (Majority) quorum systems [Gifford 79, Thomas 79],
    generalized as in Section 4.2 of the paper: all subsets of size
    [t] of an [n]-element universe, for [t > n/2] (so any two quorums
    intersect).

    The explicit family has [C(n,t)] quorums, so [make] guards against
    blow-up; the paper's closed form (Eq. 19, [Majority_layout]) counts
    with binomials instead of enumerating. *)

val make : n:int -> t:int -> Quorum.system
(** Explicit enumeration. @raise Invalid_argument unless [2t > n],
    [t <= n], and [C(n,t) <= 500_000]. *)

val n_quorums : n:int -> t:int -> int
(** [C(n,t)] without enumerating. *)

val quorums_containing_first_of : n:int -> t:int -> int -> int
(** [quorums_containing_first_of ~n ~t i] = number of size-[t] subsets
    containing element [i] but none of [0..i-1] — the counting step of
    Eq. (19): [C(n - i - 1, t - 1)]. *)

val sample_quorum : Qp_util.Rng.t -> n:int -> t:int -> int array
(** Uniform random size-[t] subset, without enumerating the family. *)
