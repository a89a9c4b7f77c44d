module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy

type qpp = {
  metric : Metric.t;
  capacities : float array;
  system : Quorum.system;
  strategy : Strategy.t;
  client_rates : float array option;
}

type ssqpp = {
  metric : Metric.t;
  capacities : float array;
  system : Quorum.system;
  strategy : Strategy.t;
  v0 : int;
}

let validate ~metric ~capacities ~system ~strategy ~client_rates =
  let n = Metric.size metric in
  if n < 1 then invalid_arg "Problem: metric must have at least one node";
  (* Defense in depth: Metric.of_matrix/of_graph already enforce these,
     but a metric arriving through deserialization or future
     constructors must not poison every downstream LP and simulation
     with NaNs or asymmetric "distances". *)
  (match Metric.first_defect metric with
  | None -> ()
  | Some (Metric.Non_finite, _, _) -> invalid_arg "Problem: non-finite metric entry"
  | Some (Metric.Nonzero_diagonal, _, _) ->
      invalid_arg "Problem: metric diagonal must be zero"
  | Some (Metric.Negative, _, _) -> invalid_arg "Problem: negative metric entry"
  | Some (Metric.Asymmetric, _, _) -> invalid_arg "Problem: metric must be symmetric");
  if Quorum.universe system = 0 then
    invalid_arg "Problem: quorum system has an empty universe";
  if Quorum.n_quorums system = 0 then invalid_arg "Problem: quorum system has no quorums";
  if Array.length capacities <> n then
    invalid_arg "Problem: capacities length must match metric size";
  Array.iter
    (fun c ->
      if not (Float.is_finite c) then invalid_arg "Problem: non-finite capacity";
      if c < 0. then invalid_arg "Problem: negative capacity")
    capacities;
  Strategy.validate system strategy;
  match client_rates with
  | None -> ()
  | Some rates ->
      if Array.length rates <> n then
        invalid_arg "Problem: client_rates length must match metric size";
      Array.iter
        (fun r ->
          if not (Float.is_finite r) then invalid_arg "Problem: non-finite client rate";
          if r < 0. then invalid_arg "Problem: negative client rate")
        rates;
      if Array.fold_left ( +. ) 0. rates <= 0. then
        invalid_arg "Problem: client rates must have positive sum"

let make_qpp ~metric ~capacities ~system ~strategy ?client_rates () =
  validate ~metric ~capacities ~system ~strategy ~client_rates;
  { metric; capacities; system; strategy; client_rates }

let make_ssqpp ~metric ~capacities ~system ~strategy ~v0 =
  validate ~metric ~capacities ~system ~strategy ~client_rates:None;
  if v0 < 0 || v0 >= Metric.size metric then invalid_arg "Problem: v0 out of range";
  { metric; capacities; system; strategy; v0 }

let of_graph_qpp ~graph ~capacities ~system ~strategy ?client_rates () =
  make_qpp ~metric:(Metric.of_graph graph) ~capacities ~system ~strategy ?client_rates ()

let ssqpp_of_qpp (p : qpp) v0 =
  make_ssqpp ~metric:p.metric ~capacities:p.capacities ~system:p.system
    ~strategy:p.strategy ~v0

let qpp_of_ssqpp (s : ssqpp) =
  {
    metric = s.metric;
    capacities = s.capacities;
    system = s.system;
    strategy = s.strategy;
    client_rates = None;
  }

let element_loads (p : qpp) = Strategy.loads p.system p.strategy

let avg_dist (p : qpp) v0 =
  match p.client_rates with
  | None -> Metric.average_distance p.metric v0
  | Some rates ->
      let total = Array.fold_left ( +. ) 0. rates in
      let acc = ref 0. in
      Array.iteri
        (fun v r -> if r > 0. then acc := !acc +. (r *. Metric.dist p.metric v v0))
        rates;
      !acc /. total

let capacity_feasible (p : qpp) =
  let loads = element_loads p in
  let total_load = Array.fold_left ( +. ) 0. loads in
  let total_cap = Array.fold_left ( +. ) 0. p.capacities in
  let max_cap = Array.fold_left Float.max 0. p.capacities in
  Qp_util.Floatx.leq total_load total_cap
  && Array.for_all (fun l -> Qp_util.Floatx.leq l max_cap) loads

let n_nodes (p : qpp) = Metric.size p.metric

let n_elements (p : qpp) = Quorum.universe p.system
