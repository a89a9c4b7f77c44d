(** Finite-projective-plane quorum systems (Maekawa's sqrt(n)
    construction [Maekawa 85]).

    For a prime [q], the projective plane PG(2,q) has [q^2 + q + 1]
    points and as many lines; every line has [q + 1] points and any two
    lines meet in exactly one point — the textbook optimal-load quorum
    system with quorum size O(sqrt n). *)

val make : int -> Quorum.system
(** [make q] for a prime [q <= 31]. Universe [q^2 + q + 1]; quorums are
    the lines. @raise Invalid_argument if [q] is not prime or too
    large. *)

