(** Embedded inter-region RTT tables: real cloud geographies as
    first-class topologies.

    A region table names [R] cloud regions and gives the symmetric
    inter-region round-trip time in milliseconds, compiled in as data
    (no file I/O). {!graph} expands a table into the complete weighted
    graph on [n] nodes — node [v] lives in region [v mod R], edges
    carry the inter-region RTT (or {!t}'s intra-region RTT inside a
    region) — which is what [Spec.build_topology] returns for the
    ["region:NAME"] topology family, so every solver, the serve path
    and bench run on real geographies through the ordinary instance
    pipeline.

    The tables are representative public measurements rounded to whole
    milliseconds. Raw RTT matrices can violate the triangle inequality
    by routing detours; the shortest-path closure taken downstream by
    [Metric.of_graph] restores it. *)

type t

val names : unit -> string list
(** Registered table names: ["aws-3"], ["aws-9"], ["gcp-6"]. *)

val find : string -> (t, Qp_util.Qp_error.t) result
(** Table lookup by name; [Error (Invalid_instance _)] listing the
    known names otherwise. *)

val name : t -> string
val regions : t -> string array
(** Region names, in matrix order. *)

val n_regions : t -> int
val rtt : t -> int -> int -> float
(** Inter-region RTT in milliseconds (0 on the diagonal). *)

val region_of_node : t -> int -> int
(** Node [v] of any expansion lives in region [v mod n_regions] —
    round-robin, so every prefix of node ids covers the regions as
    evenly as possible. *)

val nodes_of_region : t -> nodes:int -> int -> int list
(** [nodes_of_region t ~nodes r] — the node ids of region [r] in an
    [nodes]-node expansion, ascending. *)

val graph : t -> nodes:int -> Qp_graph.Graph.t
(** Complete weighted graph on [nodes] vertices with RTT edge lengths.
    @raise Invalid_argument when [nodes < n_regions] (every region
    must host at least one node). *)
