(** Capacity preprocessing of Section 4.1.

    When every element carries the same load [L] (uniform strategies
    on symmetric systems), general capacities reduce to the unit case
    by suppressing nodes with [cap < L] and duplicating a node with
    [cap >= kL] into [k] co-located copies — "greedily packing amounts
    of load(u) into nodes". The expansion maps an instance over the
    original metric to one over the expanded metric (copies at
    distance 0 from each other) plus a projection back. *)

type expansion = {
  metric : Qp_graph.Metric.t; (* expanded metric *)
  capacities : float array; (* L at every expanded node *)
  original_of_copy : int array; (* expanded node -> original node *)
}

val expand : Qp_graph.Metric.t -> float array -> load:float -> ?max_copies:int -> unit -> expansion
(** [expand metric caps ~load ()]: each original node [v] yields
    [floor (cap v / load)] copies (bounded by [max_copies], default
    64, to keep expansions finite on huge-capacity nodes).
    @raise Invalid_argument if [load <= 0] or no node can hold any
    element. *)

