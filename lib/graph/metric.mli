(** Finite metric spaces.

    The placement algorithms never look at graph structure directly;
    they consume a metric — the shortest-path closure of a network, or
    a synthetic metric such as the integrality-gap instances of
    Appendix A.

    Distances are stored in a single flat row-major [Bigarray.Array1]
    (float64): one contiguous block per metric instead of n boxed
    rows, so a 10^4-node metric is GC-inert and rows can be shared
    with worker domains as disjoint slices. The representation is
    hidden behind the same [size]/[dist] interface as before. *)

type t

val size : t -> int

val dist : t -> int -> int -> float
(** [dist t i j] with per-axis validation: the flat layout would
    otherwise map an out-of-range [j] to a cell of the wrong row
    instead of failing. @raise Invalid_argument unless
    [0 <= i < size t] and [0 <= j < size t]. *)

val unsafe_dist : t -> int -> int -> float
(** [dist] without the bounds check, for validated hot loops. *)

val of_matrix : float array array -> t
(** Wraps a square matrix (copied into the flat layout).
    @raise Invalid_argument unless the matrix is
    square, symmetric, non-negative, with a zero diagonal. Triangle
    inequality is NOT enforced here; use {!check_triangle}. *)

val of_matrix_unchecked : float array array -> t
(** {!of_matrix} without the entry checks (the matrix must still be
    square): a handle on any entries, for tests of the validators that
    defend against such metrics, {!first_defect} and
    {!Qp_place.Problem}'s. *)

type defect = Non_finite | Negative | Asymmetric | Nonzero_diagonal

val first_defect : ?lower:bool -> t -> (defect * int * int) option
(** The first entry [(i, j)] that is not a distance, or [None]. Rows are
    scanned in order; in row [i] first the diagonal entry
    ([Non_finite], else [Nonzero_diagonal]), then each [(i, j)] with
    [j > i] — every [j <> i] with [~lower:true] — in column order:
    [Non_finite], [Negative], or [Asymmetric] when it is not within
    {!Qp_util.Floatx.approx} of [(j, i)]. {!of_matrix} scans with
    [~lower:true]; {!Qp_place.Problem} validation scans the upper
    triangle. One O(n^2) loop over the flat matrix. *)

val mst_parent : t -> int array
(** Parent of each vertex in the minimum spanning tree of the complete
    distance graph rooted at 0 ([-1] for the root), by Prim in O(n^2):
    the first vertex of least key joins next, and a key drops only on
    a strictly shorter edge. On a tree metric it is the tree. *)

val agrees_with_tree : ?pool:Qp_par.Pool.t -> t -> int array -> tol:float -> bool
(** [agrees_with_tree m parent ~tol] holds unless some pair [(s, v)]
    has [|p(s,v) - dist m s v| > tol * max 1 (dist m s v)], where [p]
    is the path metric of the tree [parent] ([-1] for the root [0])
    whose edge [{parent.(c), c}] has length [dist m parent.(c) c]. The
    tree's rows come from {!Dijkstra.tree_agrees}, in chunks over
    [pool] (default {!Qp_par.Pool.default}); the verdict does not
    depend on its width.
    @raise Invalid_argument unless [parent] is a tree rooted at [0]
    over the vertices of [m]. *)

val weighted_max_sum : t -> float array -> int -> int -> float
(** [weighted_max_sum m r a b] is the sum over [v] with [r.(v) > 0], in
    increasing [v], of [r.(v) * max (dist m v a) (dist m v b)] — the
    tree solver's unnormalised two-center cost.
    @raise Invalid_argument unless [a] and [b] are vertices and
    [Array.length r = size m]. *)

val one_center_sums : t -> float array -> float array
(** [one_center_sums m r] is the array of [weighted_max_sum m r a a]
    for every [a], bit for bit: the sum over [v] with [r.(v) > 0], in
    increasing [v], of [r.(v) * dist m v a], in one pass over the rows.
    @raise Invalid_argument unless [Array.length r = size m]. *)

val quorum_delay : t -> total:bool -> int -> int array -> int array -> float
(** [quorum_delay m ~total v f q] folds [dist m v f.(q.(i))] over the
    members of [q] in index order from [0.]: their sum with
    [~total:true], else their {!Float.max}. One loop over [v]'s row,
    bit-identical to the per-member fold.
    @raise Invalid_argument unless [v] and every [f.(q.(i))] are
    vertices (and every [q.(i)] indexes [f]). *)

val of_graph : ?cache:bool -> Graph.t -> t
(** Shortest-path metric of a connected graph. Sparse graphs run
    Dijkstra from every vertex, fanned out over
    {!Qp_par.Pool.default}; dense graphs at [n >= 256] use blocked
    Floyd–Warshall over the flat matrix (both bit-deterministic for
    any worker count; the size floor keeps seed-size instances on the
    historical Dijkstra rounding). With [cache] (the default), the
    metric is memoized in a small table keyed by graph structure (the
    process-wide one unless {!with_private_apsp_cache} scopes
    another), so callers that regenerate the same topology from the
    same seed — notably bench experiments — share one APSP
    computation; pass [~cache:false] to force a fresh computation.
    @raise Invalid_argument if the graph is disconnected. *)

val of_graph_delta : ?cache:bool -> base:t -> base_graph:Graph.t -> Graph.t -> t
(** [of_graph_delta ~base ~base_graph g] is the shortest-path metric of
    [g], computed incrementally from the metric [base] of [base_graph]
    when the two graphs differ in only a few edges. Edge insertions and
    length decreases cost one O(n^2) relaxation each; removals and
    length increases re-run Dijkstra only from the rows whose shortest
    paths used the changed edge (the other rows are provably
    unchanged). Falls back to a full APSP when the vertex count
    changed or more than a handful of edges differ. The result is
    bit-comparable to [of_graph g] up to float summation noise and is
    inserted into the same cache; incremental reuses count as partial
    invalidations in {!apsp_cache_stats} rather than full misses.
    @raise Invalid_argument if [g] is disconnected. *)

val apsp_cache_budget_bytes : int
(** Bytes of distance data an APSP cache holds at most (256 MB), beside
    its bound of 16 entries: inserting a metric evicts the oldest
    entries until both bounds hold, and a metric larger than the budget
    is returned uncached. *)

val with_private_apsp_cache : ?budget_bytes:int -> (unit -> 'a) -> 'a
(** [with_private_apsp_cache f] runs [f] with a fresh, empty APSP cache
    in place of the process-wide one, also in the pool tasks [f]
    submits; the cache functions below act on the cache in scope. Its
    hits, misses and resident metrics then depend on [f] alone, not on
    what ran before or beside it. [budget_bytes] (default
    {!apsp_cache_budget_bytes}) bounds its resident bytes, so tests can
    exercise the byte bound with small metrics. *)

val apsp_cache_stats : unit -> int * int * int
(** [(hits, misses, partial)] of the {!of_graph} APSP cache since start
    or the last {!reset_apsp_cache}: exact-fingerprint hits, full
    recomputations, and {!of_graph_delta} incremental updates (partial
    invalidations that reused unaffected rows). *)

val apsp_cache_bytes : unit -> int
(** Bytes of distance-matrix data currently resident in the APSP
    cache. Cache entries share the [t] handles returned to callers, so
    this is the cache's true marginal footprint, also published as the
    [qp_apsp_cache_bytes] gauge. *)

val reset_apsp_cache : unit -> unit
(** Empty the APSP cache and zero its statistics (test hook). *)

val check_triangle : ?tol:float -> ?pool:Qp_par.Pool.t -> t -> (int * int * int) option
(** Returns a violating triple [(i, j, k)] with
    [dist i k > dist i j + dist j k], or [None] if the triangle
    inequality holds everywhere. Rows are scanned in parallel over
    [pool] (default {!Qp_par.Pool.default}); the reported triple is
    always the lexicographically least violation, independent of
    worker count. *)

val nodes_by_distance : t -> int -> int array
(** [nodes_by_distance m v0] lists all vertices sorted by increasing
    distance from [v0], starting with [v0] itself. Ties are broken by
    vertex id, making the order deterministic. *)

val diameter : t -> float
val average_distance : t -> int -> float
(** [average_distance m v0] = Avg_v d(v, v0), the constant that appears
    in the relay decomposition (Eq. 8 of the paper). *)

val scale : t -> float -> t
(** Multiplies all distances by a positive factor. *)

val submetric : t -> int array -> t
(** [submetric m keep] restricts to the listed vertices (renumbered in
    array order). *)

