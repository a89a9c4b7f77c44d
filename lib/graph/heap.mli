(** Binary min-heap keyed by floats, with lazy decrease-key.

    Keys are stored unboxed in a [float array] and values in a plain
    array: {!push}, {!min_key} and {!pop} build no option or tuple per
    entry. Decrease-key is implemented by reinsertion: callers
    tolerate stale entries on pop.

    Tie rules, which fix the pop order among equal keys: sift-up moves
    an entry past its parent only on a strictly smaller key, and
    sift-down moves the smaller child up, the left child winning equal
    child keys. {!Qp_runtime.Event} relies on them for a deterministic
    event order, and {!Dijkstra} keeps an unboxed copy of them.

    Slots past the live entries may keep references to popped values
    until they are overwritten, {!clear}ed or the heap is dropped. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
(** Number of stored entries, including stale reinsertions. *)

val push : 'a t -> float -> 'a -> unit

val min_key : 'a t -> float
(** The smallest key. @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a
(** Removes the entry with the smallest key and returns its value;
    read its key with {!min_key} first.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
