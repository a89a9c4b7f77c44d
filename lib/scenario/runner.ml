module Rng = Qp_util.Rng
module Stats = Qp_util.Stats
module Qp_error = Qp_util.Qp_error
module Json = Qp_obs.Json
module Span = Qp_obs.Span
module Metric = Qp_graph.Metric
module Strategy = Qp_quorum.Strategy
module Rw_qs = Qp_quorum.Rw_qs
module Spec = Qp_instance.Spec
module Region = Qp_instance.Region
module Problem = Qp_place.Problem
module Solver = Qp_place.Solver
module Delay = Qp_place.Delay
module Access_sim = Qp_sim.Access_sim

let schema = "qp-scenario/1"

type cell = {
  offered : float;
  throughput : float;
  accesses : int;
  mean : float;
  p50 : float;
  p95 : float;
  max : float;
}

type region_cdf = { region : string; count : int; cdf : (float * float) list }

type t = {
  spec : Scenario.t;
  regions : string array;
  outcome : Qp_place.Outcome.t;
  read_delay : float;
  write_delay : float;
  sym_read_delay : float;
  curve : cell array;
  region_cdfs : region_cdf list;
}

let ( let* ) = Qp_error.( let* )

(* The symmetric baseline the read/write-aware placement is judged
   against: same topology, same capacities, same solver — only the mix
   differs (equal read/write weight instead of the scenario's rho). *)
let sym_fraction = 0.5

let resolve_system name =
  match Rw_qs.of_string_opt name with
  | Some r -> r
  | None -> (
      match Spec.build_system name with
      | Ok s -> Ok (Rw_qs.of_system s)
      | Error e -> Error e)

let resolve_system name =
  match resolve_system name with
  | Ok _ as ok -> ok
  | Error (Qp_error.Invalid_instance msg) ->
      Error
        (Qp_error.Invalid_instance
           (Printf.sprintf "%s; rw systems: %s" msg Rw_qs.rw_names))
  | Error _ as e -> e

(* Capacities sized like [Spec.uniform_problem] — slack times the
   maximum element load — but against BOTH strategies (the scenario mix
   and the symmetric baseline), so the two solves run under identical
   capacities and at slack >= 1 both are feasible: the comparison
   isolates the mix, not the budget. *)
let capacities ~nodes ~system ~slack strategies =
  let max_load =
    List.fold_left
      (fun acc strategy ->
        Array.fold_left Float.max acc (Strategy.loads system strategy))
      0. strategies
  in
  Array.make nodes (slack *. max_load)

let delay_of_protocol protocol problem placement =
  match protocol with
  | Access_sim.Parallel -> Delay.avg_max_delay problem placement
  | Access_sim.Sequential -> Delay.avg_total_delay problem placement

let solve ~alg ~params problem =
  let* solver = Solver.find alg in
  solver.Solver.solve params problem

let simulate (spec : Scenario.t) problem placement ~analytic offered =
  let report =
    Access_sim.run ~analytic
      {
        problem;
        placement;
        protocol = spec.protocol;
        round_trip = true;
        service = spec.service;
        jitter = 0.;
        accesses_per_client = spec.accesses_per_client;
        arrival_rate = offered;
        seed = spec.seed;
      }
  in
  let cell =
    {
      offered;
      throughput =
        (if report.makespan > 0. then
           float_of_int report.n_accesses /. report.makespan
         else 0.);
      accesses = report.n_accesses;
      mean = report.mean_delay;
      p50 = report.delay_summary.Stats.p50;
      p95 = report.delay_summary.Stats.p95;
      max = report.delay_summary.Stats.max;
    }
  in
  (cell, report.per_client_mean)

(* Per-region delay CDFs over the per-client mean delays of the first
   curve cell. Every region of the table gets a key — an empty region
   (all its clients rate-zero) emits a degenerate cell (count 0, empty
   cdf) through the tiny-sample-safe [Stats.cdf] rather than an
   exception. Without a region table the whole population lands under
   one "all" key, so the record shape is uniform across topologies. *)
let region_cdfs table ~nodes ~rates per_client_mean =
  let active region_nodes =
    Array.of_list
      (List.filter_map
         (fun v -> if rates.(v) > 0. then Some per_client_mean.(v) else None)
         region_nodes)
  in
  let groups =
    match table with
    | Some t ->
        List.init (Region.n_regions t) (fun r ->
            ( (Region.regions t).(r),
              active (Region.nodes_of_region t ~nodes r) ))
    | None -> [ ("all", active (List.init nodes (fun v -> v))) ]
  in
  List.map
    (fun (region, samples) ->
      { region; count = Array.length samples; cdf = Stats.cdf samples })
    groups

let run ?(pool = Qp_par.Pool.default ()) (spec : Scenario.t) =
  let* spec = Scenario.validate spec in
  let rng = Rng.create spec.seed in
  let* graph = Spec.build_topology spec.topology spec.nodes rng in
  let* rw = resolve_system spec.system in
  let table = Scenario.region_table spec in
  let* rates = Clients.rates ?table spec.skew ~nodes:spec.nodes ~seed:spec.seed in
  let system = Rw_qs.combined rw in
  let read = Rw_qs.uniform_read rw in
  let write = Rw_qs.uniform_write rw in
  let mixed = Rw_qs.mixed rw ~read ~write ~read_fraction:spec.read_fraction in
  let sym = Rw_qs.mixed rw ~read ~write ~read_fraction:sym_fraction in
  let caps =
    capacities ~nodes:spec.nodes ~system ~slack:spec.cap_slack [ mixed; sym ]
  in
  Qp_error.guard @@ fun () ->
  let metric = Metric.of_graph graph in
  let problem_of strategy =
    Problem.make_qpp ~metric ~capacities:caps ~system ~strategy
      ~client_rates:rates ()
  in
  let problem = problem_of mixed in
  let hints_spec = { Spec.default with topology = spec.topology;
                     nodes = spec.nodes; system = spec.system } in
  let topology_hint, system_hint = Spec.solver_hints hints_spec in
  let params =
    { Solver.default_params with alpha = spec.alpha; seed = spec.seed;
      topology_hint; system_hint }
  in
  let* outcome, sym_outcome =
    Span.with_ "solve" @@ fun () ->
    let* outcome = solve ~alg:spec.alg ~params problem in
    let* sym_outcome = solve ~alg:spec.alg ~params (problem_of sym) in
    Ok (outcome, sym_outcome)
  in
  let placement = outcome.Qp_place.Outcome.placement in
  let read_delay, write_delay, sym_read_delay, analytic =
    Span.with_ "delay_eval" @@ fun () ->
    let read_view = problem_of (Rw_qs.read_only rw ~read) in
    let write_view = problem_of (Rw_qs.write_only rw ~write) in
    let read_delay = delay_of_protocol spec.protocol read_view placement in
    let write_delay = delay_of_protocol spec.protocol write_view placement in
    let sym_read_delay =
      delay_of_protocol spec.protocol read_view
        sym_outcome.Qp_place.Outcome.placement
    in
    ( read_delay,
      write_delay,
      sym_read_delay,
      delay_of_protocol spec.protocol problem placement )
  in
  let cells =
    Span.with_ "simulate" @@ fun () ->
    Qp_par.Pool.parallel_map pool (simulate spec problem placement ~analytic)
      spec.offered_loads
  in
  let curve = Array.map fst cells in
  let per_client_mean = snd cells.(0) in
  let region_cdfs = region_cdfs table ~nodes:spec.nodes ~rates per_client_mean in
  Ok
    {
      spec;
      regions = (match table with Some t -> Region.regions t | None -> [||]);
      outcome;
      read_delay;
      write_delay;
      sym_read_delay;
      curve;
      region_cdfs;
    }

(* ------------------------------------------------------------------ *)
(* qp-scenario/1 record                                                *)
(* ------------------------------------------------------------------ *)

let cell_to_json c =
  Json.Obj
    [
      ("offered", Json.Float c.offered);
      ("throughput", Json.Float c.throughput);
      ("accesses", Json.Int c.accesses);
      ("mean", Json.Float c.mean);
      ("p50", Json.Float c.p50);
      ("p95", Json.Float c.p95);
      ("max", Json.Float c.max);
    ]

let cdf_to_json { region = _; count; cdf } =
  Json.Obj
    [
      ("n", Json.Int count);
      ( "cdf",
        Json.List
          (List.map (fun (q, v) -> Json.List [ Json.Float q; Json.Float v ]) cdf)
      );
    ]

let to_json r =
  let spec = r.spec in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("name", Json.String spec.Scenario.name);
      ("topology", Json.String spec.Scenario.topology);
      ("nodes", Json.Int spec.Scenario.nodes);
      ("system", Json.String spec.Scenario.system);
      ("read_fraction", Json.Float spec.Scenario.read_fraction);
      ("protocol", Json.String (Scenario.protocol_to_string spec.Scenario.protocol));
      ("service", Json.String (Scenario.service_to_string spec.Scenario.service));
      ("alg", Json.String spec.Scenario.alg);
      ("seed", Json.Int spec.Scenario.seed);
      ( "offered_loads",
        Json.List
          (Array.to_list
             (Array.map (fun x -> Json.Float x) spec.Scenario.offered_loads))
      );
      ( "regions",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.String s) r.regions)) );
      ("objective", Json.Float r.outcome.Qp_place.Outcome.objective);
      ("read_delay", Json.Float r.read_delay);
      ("write_delay", Json.Float r.write_delay);
      ("sym_read_delay", Json.Float r.sym_read_delay);
      ("curve", Json.List (Array.to_list (Array.map cell_to_json r.curve)));
      ( "region_cdfs",
        Json.Obj (List.map (fun c -> (c.region, cdf_to_json c)) r.region_cdfs)
      );
    ]
