(** Instance deltas: small, validated edits to a live instance.

    The churn model of the paper's setting — link weights drift, a
    link or node capacity degrades — expressed as a list of operations
    applied atomically by {!Live.apply}. Ops are applied in list
    order; later ops see the effect of earlier ones (so
    [Set_cap_slack] followed by [Set_capacity] rebases all capacities
    and then overrides one node). *)

type op =
  | Set_edge of { u : int; v : int; length : float }
      (** Insert the undirected edge or set its length (may raise or
          lower it, unlike [Graph.add_edge]'s min semantics). *)
  | Remove_edge of { u : int; v : int }
      (** Remove the edge; a no-op if absent. Rejected at apply time
          if it would disconnect the graph. *)
  | Set_capacity of { node : int; cap : float }
  | Set_cap_slack of float
      (** Reset every node's capacity to [slack * max element load] —
          the {!Spec.uniform_problem} construction — discarding prior
          per-node overrides. *)

val validate : nodes:int -> op list -> (unit, Qp_util.Qp_error.t) result
(** Structural validation (ranges, signs, self-loops) against a node
    count; connectivity and feasibility are checked by {!Live.apply}
    where the graph is known. First offending op wins. *)

val norm_edge : int -> int -> int * int
(** Canonical (min, max) endpoint order. *)

