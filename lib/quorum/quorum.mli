(** Quorum systems over an integer universe.

    A quorum system over [U = {0, ..., universe-1}] is a non-empty
    family of non-empty subsets of [U], every two of which intersect
    (Section 1 of the paper). Quorums are stored as sorted arrays of
    distinct element ids. *)

type quorum = int array
(** Sorted, duplicate-free element ids. *)

type system
(** A validated quorum system. *)

val make : universe:int -> int array array -> system
(** [make ~universe quorums] sorts, deduplicates and validates.
    @raise Invalid_argument if the family is empty, a quorum is empty
    or out of range, or two quorums fail to intersect. *)

val make_checked :
  universe:int -> int array array -> (system, Qp_util.Qp_error.t) result
(** Like {!make}, but user-input validation failures come back as
    [Error (Invalid_instance _)] instead of an exception — the entry
    point for systems built from untrusted data (instance files,
    CLI-provided constructions). *)

val make_unchecked : universe:int -> int array array -> system
(** Same normalization but skips the O(m^2) pairwise intersection
    check. Use only for constructions whose intersection property is
    proved (e.g. Majority), and cover them with tests. *)

val universe : system -> int
val quorums : system -> quorum array
val n_quorums : system -> int
val quorum : system -> int -> quorum

val mem : quorum -> int -> bool
(** Binary search. *)

val intersect : quorum -> quorum -> bool
val intersection : quorum -> quorum -> int array

val element_quorums : system -> int -> int list
(** Indices of quorums containing a given element. *)

val all_intersecting : system -> bool
(** Re-runs the full pairwise check (test helper). *)

val is_coterie : system -> bool
(** True when no quorum contains another (minimality / antichain). *)

val degree : system -> int array
(** [degree s] maps each element to the number of quorums containing
    it. *)

val pp : Format.formatter -> system -> unit
