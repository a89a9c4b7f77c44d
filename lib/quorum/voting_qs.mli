(** Weighted voting [Gifford 79] — the referenced construction behind
    the Majority system.

    Each element holds a positive integer number of votes; a quorum is
    any MINIMAL set gathering strictly more than half the total votes.
    Any two quorums intersect because two disjoint sets cannot both
    hold a strict majority of the votes. With all weights 1 this is
    exactly the Majority coterie. *)

val make : int array -> Quorum.system
(** [make votes] materializes the minimal majority-vote sets.
    @raise Invalid_argument on empty input, non-positive votes, or
    when the universe exceeds 20 elements (enumeration guard). *)

val threshold : int array -> int
(** Smallest vote count constituting a majority:
    [floor (total/2) + 1]. *)
