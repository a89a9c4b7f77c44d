(** Graphviz DOT export, for inspecting generated topologies and
    placements. *)

val of_graph : ?label:(int -> string) -> ?highlight:int list -> Graph.t -> string
(** Renders an undirected graph. [label] overrides vertex labels;
    [highlight] vertices are filled. *)
