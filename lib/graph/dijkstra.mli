(** Single- and all-source shortest paths on one flat kernel.

    A graph is snapshotted into a CSR adjacency; each source row then
    runs on reusable scratch: an unboxed binary heap, or on a tree an
    O(n) walk along the unique paths. Both give the floats of a heap
    Dijkstra over {!Graph} lists: neighbours keep their list order and
    the heap keeps the tie rules documented in [Qp_runtime.Event]
    (strict [<] in sift-up, the left child winning ties in sift-down),
    so pops and parents match too.
    Unreachable vertices get distance [infinity]. *)

type csr
(** Read-only adjacency snapshot, safe to share across domains. *)

val csr_of_graph : Graph.t -> csr

val csr_of_edges : int -> (int * int * float) array -> csr
(** [csr_of_edges n es] over distinct vertex pairs, with the neighbour
    order of [Graph.of_edges n] on the same edges. *)

val is_tree : csr -> bool
(** Connected with [n - 1] edges: rows are walked, with no heap. *)

val rows :
  ?sources:int array -> Qp_par.Pool.t -> csr -> (int -> float array -> bool) -> bool * int
(** [rows pool c f] computes the distances from every vertex (or from
    each of [sources]) and passes them to [f src row]; [row] is
    scratch, valid during the call only. Sources run in chunks over
    [pool] with one scratch each, by the tree walk when {!is_tree}[ c],
    else by the heap. Returns whether [f] held on every row (a chunk
    stops at its first [false]) and the heap pops, stale entries
    included. Rows are independent: the result does not depend on the
    pool width. @raise Invalid_argument on a source out of range. *)

val distances : Graph.t -> int -> float array
(** [distances g src] is the array of shortest-path distances from
    [src]; [infinity] for unreachable vertices. *)

val distances_with_parents : Graph.t -> int -> float array * int array
(** Also returns the shortest-path tree: [parents.(v)] is the
    predecessor of [v] ([-1] for the source and unreachable nodes). *)

val path : Graph.t -> int -> int -> int list option
(** [path g src dst] is a shortest path as a vertex list from [src] to
    [dst], or [None] if unreachable. *)
