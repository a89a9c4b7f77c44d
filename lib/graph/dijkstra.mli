(** Single- and all-source shortest paths on one flat kernel.

    A graph is snapshotted into a CSR adjacency; each source row then
    runs on reusable scratch as an unboxed binary heap, or on a tree
    as one O(n) pass over a preorder rooted once per call: up the path
    from the source to the root, then down the preorder. Both give the
    floats of a heap Dijkstra over {!Graph} lists: on a tree each
    entry is d(s,v) + len(v,w) with v the neighbour of w toward s, the
    sum Dijkstra forms when it relaxes w from v; the heap keeps
    neighbours in list order and the tie rules documented in
    [Qp_runtime.Event] (strict [<] in sift-up, the left child winning
    ties in sift-down), so pops and parents match too.
    Unreachable vertices get distance [infinity]. *)

type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Flat row-major n*n matrix: entry [(i, j)] at [i * n + j]. *)

type csr
(** Read-only adjacency snapshot, safe to share across domains. *)

val csr_of_graph : Graph.t -> csr

val is_tree : csr -> bool
(** Connected with [n - 1] edges: rows come from the preorder, with no
    heap. *)

val rows_into : ?sources:int array -> Qp_par.Pool.t -> csr -> mat -> int
(** [rows_into pool c d] writes the distances from every vertex [s]
    (or from each of [sources]) into row [s] of [d], in chunks over
    [pool]: on a tree straight into the row, else through one heap
    scratch per chunk. Returns the heap pops, stale entries included.
    Rows are independent: the matrix does not depend on the pool
    width. @raise Invalid_argument on a source out of range or unless
    [d] has [n * n] entries. *)

type rooted
(** A tree rooted at vertex 0, laid out in preorder with each vertex's
    parent, parent-edge length and subtree size; read-only, safe to
    share across domains. *)

val rooted_of_parents : int array -> float array -> rooted
(** [rooted_of_parents parent len] is the tree in which [parent.(c)]
    is the parent of [c] ([-1] for the root [0]) and [len.(c)] is the
    length of the edge [{parent.(c), c}] in both directions.
    @raise Invalid_argument unless [parent] is a tree rooted at [0]
    and [len] has its length. *)

val tree_agrees : Qp_par.Pool.t -> rooted -> mat -> tol:float -> bool
(** [tree_agrees pool t m ~tol] holds unless some pair [(s, v)] has
    [|p(s,v) - m(s,v)| > tol * max 1 m(s,v)], where [p] is [t]'s path
    metric, formed as {!rows_into} forms it. Each entry is compared as
    it is produced; rows run in chunks over [pool] and a chunk stops
    at its first failure, so the verdict does not depend on the pool
    width. @raise Invalid_argument unless [m] has [n * n] entries. *)

val distances : Graph.t -> int -> float array
(** [distances g src] is the array of shortest-path distances from
    [src]; [infinity] for unreachable vertices. *)

val distances_with_parents : Graph.t -> int -> float array * int array
(** Also returns the shortest-path tree: [parents.(v)] is the
    predecessor of [v] ([-1] for the source and unreachable nodes). *)

val path : Graph.t -> int -> int -> int list option
(** [path g src dst] is a shortest path as a vertex list from [src] to
    [dst], or [None] if unreachable. *)
