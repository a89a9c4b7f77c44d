(** The Grid quorum system [Cheung–Ammar–Ahamad 92, Kumar–Rabinovich–
    Sinha 93] used in Section 4.1 of the paper.

    The [k*k] elements are arranged in a square matrix; the quorum
    [Q_{i,j}] is the union of row [i] and column [j], so there are
    [k^2] quorums of [2k-1] elements each. Under the uniform strategy
    every element has load [(2k-1)/k^2], which is optimal for this
    system [Naor–Wool 98]. *)

val make : int -> Quorum.system
(** [make k] for [k >= 1]; element [(i,j)] has id [i*k + j]. *)

val side : Quorum.system -> int
(** Recovers [k] from a grid system ([sqrt universe]). *)

val uniform_strategy : Quorum.system -> Strategy.t
(** The load-optimal uniform strategy. *)

val element_load : int -> float
(** [element_load k] = [(2k-1)/k^2], the uniform-strategy load of
    every element. *)
