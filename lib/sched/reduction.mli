(** The Theorem 3.6 reduction: [1|prec|sum w_j C_j] (in the Woeginger
    special form of Theorem 3.5(b)) to the Single-Source Quorum
    Placement Problem on a unit path.

    Naming follows the proof: the scheduling instance has [n] jobs of
    which [m] have unit weight (and zero time); the other [n - m] have
    unit time (and zero weight). The universe gets one element [e_j]
    per unit-time job plus a hub element [e_0]; the graph is a path
    [v_0 - v_1 - ... - v_{n-m}] of unit edges; [cap v_0 = 1] pins
    [e_0] to [v_0], and the remaining capacities force exactly one
    element per node. *)

type t = {
  sched : Sched.t;
  system : Qp_quorum.Quorum.system;
  strategy : Qp_quorum.Strategy.t; (* the proof's p, with parameter epsilon *)
  graph : Qp_graph.Graph.t; (* unit path on n - m + 1 nodes *)
  capacities : float array;
  v0 : int; (* = 0 *)
  epsilon : float;
  n_unit_time : int; (* n - m *)
  n_unit_weight : int; (* m *)
  element_of_job : int array; (* unit-time job -> element id; -1 otherwise *)
}

val make : Sched.t -> t
(** @raise Invalid_argument unless the instance {!Sched.is_woeginger_form}
    and unit-time jobs precede unit-weight jobs in the numbering. *)

val delay_of_cost : t -> float -> float
(** The proof's affine correspondence:
    [Delta_f(v0) = (eps/m) * cost + ((1-eps)/(n-m)) * sum_{i=1}^{n-m} i]. *)

val cost_of_delay : t -> float -> float
(** Inverse of {!delay_of_cost}. *)

val schedule_of_placement : t -> int array -> int array
(** [schedule_of_placement r f] converts a placement (element id ->
    path-node id, with [f.(0) = 0] and the rest a bijection onto
    [1..n-m]) into the job order [pi_f] of the proof: unit-time job
    [a] runs at position [f.(element_of_job a)], unit-weight jobs as
    early as their predecessors allow.
    @raise Invalid_argument on non-conforming placements. *)

val delay_of_placement : t -> int array -> float
(** Direct evaluation of [Delta_f(v0)] on the path (distance of node
    [v_t] from [v_0] is [t]); used to cross-check the affine map. *)
