(* Correctness checks run on every operation, outside the timed region.
   Each recomputes what it checks from the problem instead of trusting
   the fields the solver filled in. *)

module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Problem = Qp_place.Problem
module Outcome = Qp_place.Outcome
module Delay = Qp_place.Delay

let tol = 1e-9

(* Node loads of a placement: element loads summed per hosting node. *)
let node_loads (p : Problem.qpp) placement =
  let el = Problem.element_loads p in
  let acc = Array.make (Problem.n_nodes p) 0. in
  Array.iteri (fun u v -> acc.(v) <- acc.(v) +. el.(u)) placement;
  acc

(* load(v) <= load_bound * cap(v) at every node. *)
let load_ok (p : Problem.qpp) placement load_bound =
  let loads = node_loads p placement in
  let ok = ref true in
  Array.iteri
    (fun v l ->
      if l > (load_bound *. p.Problem.capacities.(v) *. (1. +. tol)) +. 1e-12
      then ok := false)
    loads;
  !ok

(* A lower bound on the average max-delay of any placement that keeps
   load(v) <= load_bound * cap(v): such a node hosts at most k elements,
   so a quorum of t elements spans at least ceil(t / k) nodes and its
   farthest element from client v is no closer than the ceil(t / k)-th
   nearest node to v. Used where the solver certifies no bound of its
   own (the closed-form layouts). *)
let order_statistic_lb (p : Problem.qpp) ~load_bound =
  let n = Problem.n_nodes p in
  let el = Problem.element_loads p in
  let min_load = Array.fold_left Float.min infinity el in
  let k =
    Array.fold_left
      (fun acc cap ->
        max acc (truncate ((load_bound *. cap /. min_load) +. tol)))
      1 p.Problem.capacities
  in
  let t =
    Array.fold_left
      (fun acc q -> min acc (Array.length q))
      max_int
      (Quorum.quorums p.Problem.system)
  in
  let m = (t + k - 1) / k in
  let per_client v =
    let d = Array.init n (fun w -> Metric.dist p.Problem.metric v w) in
    Array.sort Float.compare d;
    d.(min (n - 1) (m - 1))
  in
  match p.Problem.client_rates with
  | None ->
      let acc = ref 0. in
      for v = 0 to n - 1 do
        acc := !acc +. per_client v
      done;
      !acc /. float_of_int n
  | Some rates ->
      let total = Array.fold_left ( +. ) 0. rates in
      let acc = ref 0. in
      Array.iteri
        (fun v r -> if r > 0. then acc := !acc +. (r *. per_client v))
        rates;
      !acc /. total

(* The checks every solve outcome must pass:
   - the reported average max-delay matches a recomputation;
   - load(v) <= load_bound * cap(v) for the solver's declared bound;
   - LB <= objective <= approx_bound * LB for the certified bound LB
     (the solver's own, else {!order_statistic_lb}).
   The verdict's ratio is objective / LB. *)
let outcome ?(counters = []) (p : Problem.qpp) (o : Outcome.t) =
  let recomputed = Delay.avg_max_delay p o.Outcome.placement in
  let obj = o.Outcome.avg_max_delay in
  let load_bound = Option.value o.Outcome.load_bound ~default:1. in
  let lb =
    match o.Outcome.lower_bound with
    | Some lb -> lb
    | None -> order_statistic_lb p ~load_bound
  in
  if Float.abs (recomputed -. obj) > tol *. Float.max 1. obj then
    Meter.fail
      (Printf.sprintf "%s: objective %.17g but recomputed %.17g" o.Outcome.solver
         obj recomputed)
  else if not (load_ok p o.Outcome.placement load_bound) then
    Meter.fail
      (Printf.sprintf "%s: a node exceeds %g x capacity" o.Outcome.solver
         load_bound)
  else if not (lb > 0. && lb <= obj *. (1. +. tol)) then
    Meter.fail
      (Printf.sprintf "%s: lower bound %.17g above objective %.17g"
         o.Outcome.solver lb obj)
  else
    match o.Outcome.approx_bound with
    | Some a when obj > a *. lb *. (1. +. tol) ->
        Meter.fail
          (Printf.sprintf "%s: objective %.17g above %g x LB %.17g"
             o.Outcome.solver obj a lb)
    | _ -> Meter.pass ~ratio:(obj /. lb) ~counters ()
