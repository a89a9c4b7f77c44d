(** Binary min-heap keyed by floats, with lazy decrease-key.

    The heap stores [(key, value)] pairs; [pop_min] returns the pair
    with the smallest key. Decrease-key is implemented by reinsertion:
    callers ([Qp_runtime.Event]) tolerate stale entries on pop.
    {!Dijkstra} keeps an unboxed copy of this heap's tie rules. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
(** Number of stored entries, including stale reinsertions. *)

val push : 'a t -> float -> 'a -> unit
val peek_min : 'a t -> (float * 'a) option
val pop_min : 'a t -> (float * 'a) option
val clear : 'a t -> unit
