(** Access strategies.

    An access strategy [p] is a probability distribution over the
    quorums of a system (Section 1). It induces the load
    [load(u) = sum over quorums containing u of p(Q)] on each element
    (Section 1.2), the quantity the placement problem packs against
    node capacities. *)

type t = float array
(** [t.(i)] is the probability of accessing quorum [i]. *)

val validate : Quorum.system -> t -> unit
(** @raise Invalid_argument unless lengths match, entries are
    non-negative, and the entries sum to 1 (tolerance 1e-9). *)

val uniform : Quorum.system -> t

val of_weights : Quorum.system -> float array -> t
(** Normalizes non-negative weights with positive sum. *)

val element_load : Quorum.system -> t -> int -> float
val loads : Quorum.system -> t -> float array
(** Per-element loads; [loads s p].(u) = load(u). *)

val system_load : Quorum.system -> t -> float
(** Max element load — the quantity minimized by the quorum-systems
    literature [Naor–Wool]. *)

val total_load : Quorum.system -> t -> float
(** Sum of element loads = expected accessed quorum size. *)

val reweight : t -> (int -> float) -> t option
(** [reweight p w] multiplies each [p.(i)] by the non-negative factor
    [w i] and renormalizes — the primitive behind adaptive access
    strategies that steer probability away from quorums on unhealthy
    nodes. [None] when the surviving mass is (numerically) zero, i.e.
    every quorum with positive probability was fully down-weighted.
    @raise Invalid_argument on a negative factor. *)

val mix : t -> t -> float -> t
(** [mix p q lambda] = lambda p + (1-lambda) q; used by the
    "average of client strategies" extension in Section 6. *)
