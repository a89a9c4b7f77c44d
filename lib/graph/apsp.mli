(** All-pairs shortest paths.

    Two independent algorithm families: repeated Dijkstra (the
    production path for sparse graphs, used by {!Metric.of_graph}) and
    Floyd–Warshall (a cross-check oracle in property tests, and — in
    its blocked flat-matrix form — the production path for dense
    graphs). *)

type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Flat row-major n*n distance matrix: entry [(i, j)] lives at index
    [i * n + j]. *)

val repeated_dijkstra_into : ?pool:Qp_par.Pool.t -> Graph.t -> mat -> unit
(** Distance matrix by {!Dijkstra.rows_into} (the preorder pass on a
    tree, else the unboxed heap), written into a caller-supplied flat
    matrix of dimension [n * n]; [infinity] for unreachable pairs. Rows are
    independent, so the matrix is bit-identical for any width of
    [pool] (default: {!Qp_par.Pool.default}). Adds the call's heap
    pops and walked rows to the current registry's
    [qp_apsp_heap_pops_total] and [qp_apsp_tree_rows_total] once.
    @raise Invalid_argument on a dimension mismatch. *)

val record_work : heap_pops:int -> tree_rows:int -> unit
(** Add one APSP call's work to those two counters. *)

val floyd_warshall : Graph.t -> float array array
(** Distance matrix via Floyd–Warshall dynamic programming. *)

val floyd_warshall_into : ?pool:Qp_par.Pool.t -> Graph.t -> mat -> unit
(** Blocked Floyd–Warshall on the flat layout, tiles fanned out over
    [pool] with the classic three-phase (diagonal / row+column /
    remainder) schedule whose phases only read tiles finalized in
    earlier phases — bit-identical for any worker count. When the
    matrix fits in a single block the floats also equal the untiled
    {!floyd_warshall} bitwise; with multiple blocks the per-cell
    relaxation order differs (phase 3 reads distances already closed
    over a whole k-block), so cells agree with the untiled loop only
    up to float-summation rounding — both are correct shortest-path
    distances. Preferable to {!repeated_dijkstra_into} on dense
    graphs, where n Dijkstra heaps cost O(n·m log n) ≈ O(n³ log n).
    @raise Invalid_argument on a dimension mismatch. *)

val set_fw_block : int -> unit
(** Test hook: override the Floyd–Warshall tile width (default 64) so
    property tests can exercise the multi-block phases at small n.
    @raise Invalid_argument when the block is < 1. *)

val fw_block : unit -> int
(** The current tile width. *)
