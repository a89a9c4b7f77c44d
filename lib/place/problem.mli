(** Problem instances.

    A {!qpp} is the paper's Problem 1.1: place the universe of a
    quorum system onto the nodes of a metric (shortest-path closure of
    a network) subject to per-node capacities, minimizing the average
    over clients of the expected max-delay. A {!ssqpp} (Problem 3.2)
    is the single-client restriction with source [v0]. *)

type qpp = {
  metric : Qp_graph.Metric.t;
  capacities : float array; (* cap(v) per node *)
  system : Qp_quorum.Quorum.system;
  strategy : Qp_quorum.Strategy.t;
  client_rates : float array option;
      (* Section 6 extension: relative access rates per client; [None]
         means uniform. *)
}

type ssqpp = {
  metric : Qp_graph.Metric.t;
  capacities : float array;
  system : Qp_quorum.Quorum.system;
  strategy : Qp_quorum.Strategy.t;
  v0 : int;
}

val make_qpp :
  metric:Qp_graph.Metric.t ->
  capacities:float array ->
  system:Qp_quorum.Quorum.system ->
  strategy:Qp_quorum.Strategy.t ->
  ?client_rates:float array ->
  unit ->
  qpp
(** Validates the instance and raises a descriptive [Invalid_argument]
    on: a metric with non-finite, negative or asymmetric entries or a
    non-zero diagonal; an empty quorum system (no elements or no
    quorums); capacity/rate arrays of the wrong length; non-finite or
    negative capacities; an invalid strategy (negative mass or not
    summing to 1); non-finite or negative client rates, or rates with
    zero total. *)

val make_ssqpp :
  metric:Qp_graph.Metric.t ->
  capacities:float array ->
  system:Qp_quorum.Quorum.system ->
  strategy:Qp_quorum.Strategy.t ->
  v0:int ->
  ssqpp

val of_graph_qpp :
  graph:Qp_graph.Graph.t ->
  capacities:float array ->
  system:Qp_quorum.Quorum.system ->
  strategy:Qp_quorum.Strategy.t ->
  ?client_rates:float array ->
  unit ->
  qpp
(** Convenience: takes the shortest-path closure of a connected
    graph. *)

val ssqpp_of_qpp : qpp -> int -> ssqpp
val qpp_of_ssqpp : ssqpp -> qpp

val element_loads : qpp -> float array
(** load(u) induced by the strategy. *)

val avg_dist : qpp -> int -> float
(** [avg_dist p v0] = [AvgDist(v0) = Avg_v d(v, v0)]: the first term
    of the relay bound (Eq. 8, Lemma 3.1) and the per-node cost of the
    total-delay reduction (Section 5). With client rates it is
    rate-weighted (Section 6): [sum_v r_v d(v, v0) / sum_v r_v], summed
    over increasing [v] and skipping clients with [r_v <= 0]; without
    rates it is {!Qp_graph.Metric.average_distance}. *)

val capacity_feasible : qpp -> bool
(** Necessary conditions: total capacity >= total load and every
    element fits somewhere ([min load <= max cap]). Not sufficient
    (bin packing), but cheap and catches hopeless instances. *)

val n_nodes : qpp -> int
val n_elements : qpp -> int
