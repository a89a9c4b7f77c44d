(** The tree quorum protocol of Agrawal and El Abbadi (1990), one of
    the classic constructions the paper's introduction alludes to.

    Elements are the nodes of a complete binary tree of given depth
    (node 0 is the root; node [v] has children [2v+1] and [2v+2]).
    A quorum of a subtree is either its root together with a quorum of
    one child subtree, or the union of a quorum of each child subtree.
    Intersection follows by induction on the depth. *)

val make : int -> Quorum.system
(** [make depth] enumerates all quorums of the complete binary tree of
    the given depth (universe size [2^(depth+1) - 1]).
    @raise Invalid_argument if [depth < 0] or [depth > 3] (the family
    grows doubly exponentially). *)

val n_quorums : int -> int
(** Family size for a given depth, by the recurrence
    [f(d) = 2 f(d-1) + f(d-1)^2], [f(0) = 1]. *)
