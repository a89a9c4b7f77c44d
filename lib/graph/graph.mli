(** Undirected graphs with positive edge lengths.

    Vertices are dense ints [0..n-1]. Parallel edges are collapsed to
    the shortest length; self-loops are rejected. The representation is
    an adjacency list; {!Dijkstra} snapshots it into flat arrays. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices.
    Requires [n >= 0]. *)

val n_vertices : t -> int
val n_edges : t -> int

val add_edge : t -> int -> int -> float -> unit
(** [add_edge g u v len] inserts the undirected edge [{u,v}] with
    positive finite length [len]. If the edge exists, its length
    becomes [min existing len]. @raise Invalid_argument on self-loops,
    out-of-range endpoints, or non-finite or non-positive lengths. *)

val edge_length : t -> int -> int -> float option
val neighbors : t -> int -> (int * float) list
(** Neighbor list of a vertex with edge lengths. *)

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Each undirected edge visited once, with [u < v]. *)

val edges : t -> (int * int * float) list
val degree : t -> int -> int
val is_connected : t -> bool

val of_edges : int -> (int * int * float) list -> t
(** [of_edges n es] builds a graph on [n] vertices from an edge list. *)
