(* scenario-sim: Runner.run on a stream of seeded region:aws-9 specs with
   a majority:9:5 system and the auto solver, so the closed-form layout
   makes the solve nearly free and the access simulation dominates.

   The traced variant runs Runner.run's steps itself through the same
   public functions, timing each, and assembles the same record. *)

module Rng = Qp_util.Rng
module Stats = Qp_util.Stats
module Qp_error = Qp_util.Qp_error
module Json = Qp_obs.Json
module Metric = Qp_graph.Metric
module Strategy = Qp_quorum.Strategy
module Rw_qs = Qp_quorum.Rw_qs
module Spec = Qp_instance.Spec
module Region = Qp_instance.Region
module Problem = Qp_place.Problem
module Outcome = Qp_place.Outcome
module Solver = Qp_place.Solver
module Delay = Qp_place.Delay
module Access_sim = Qp_sim.Access_sim
module Scenario = Qp_scenario.Scenario
module Clients = Qp_scenario.Clients
module Runner = Qp_scenario.Runner
module Layers = Meter.Layers

let offered_loads = [| 0.5; 1.0; 2.0 |]

let stream ~seed =
  let rng = Rng.create seed in
  fun () ->
    {
      Scenario.default with
      name = "perfbench";
      topology = "region:aws-9";
      nodes = 18;
      system = "majority:9:5";
      skew = Clients.Zipf (0.8 +. Rng.float rng 0.6);
      offered_loads;
      accesses_per_client = 40 + Rng.int rng 21;
      alg = "auto";
      seed = 1 + Rng.int rng 1_000_000_000;
    }

(* The instance Runner.run builds from a spec: graph, read/write system
   over a plain quorum system, client rates, both strategies and the
   shared capacities. *)
type instance = {
  problem : Problem.qpp; (* the scenario mix *)
  sym : Problem.qpp; (* the symmetric baseline *)
  read_view : Problem.qpp;
  write_view : Problem.qpp;
  table : Region.t option;
  rates : float array;
}

let build layers (spec : Scenario.t) =
  let ( let* ) = Result.bind in
  let* graph, rw, table, rates, mixed, sym, read, write, caps =
    Layers.time layers "instance.build" (fun () ->
        let rng = Rng.create spec.seed in
        let* graph = Spec.build_topology spec.topology spec.nodes rng in
        let* system = Spec.build_system spec.system in
        let rw = Rw_qs.of_system system in
        let table = Scenario.region_table spec in
        let* rates =
          Clients.rates ?table spec.skew ~nodes:spec.nodes ~seed:spec.seed
        in
        let system = Rw_qs.combined rw in
        let read = Rw_qs.uniform_read rw and write = Rw_qs.uniform_write rw in
        let mixed = Rw_qs.mixed rw ~read ~write ~read_fraction:spec.read_fraction in
        let sym = Rw_qs.mixed rw ~read ~write ~read_fraction:0.5 in
        let max_load =
          List.fold_left
            (fun acc s -> Array.fold_left Float.max acc (Strategy.loads system s))
            0. [ mixed; sym ]
        in
        let caps = Array.make spec.nodes (spec.cap_slack *. max_load) in
        Ok (graph, rw, table, rates, mixed, sym, read, write, caps))
  in
  let metric = Layers.time layers "graph.apsp" (fun () -> Metric.of_graph graph) in
  let system = Rw_qs.combined rw in
  let problem_of strategy =
    Problem.make_qpp ~metric ~capacities:caps ~system ~strategy
      ~client_rates:rates ()
  in
  Ok
    (Layers.time layers "instance.build" (fun () ->
         {
           problem = problem_of mixed;
           sym = problem_of sym;
           read_view = problem_of (Rw_qs.read_only rw ~read);
           write_view = problem_of (Rw_qs.write_only rw ~write);
           table;
           rates;
         }))

let params (spec : Scenario.t) =
  let hints =
    { Spec.default with topology = spec.topology; nodes = spec.nodes; system = spec.system }
  in
  let topology_hint, system_hint = Spec.solver_hints hints in
  { Solver.default_params with alpha = spec.alpha; seed = spec.seed; topology_hint; system_hint }

let delay (spec : Scenario.t) p f =
  match spec.protocol with
  | Access_sim.Parallel -> Delay.avg_max_delay p f
  | Access_sim.Sequential -> Delay.avg_total_delay p f

let cell (spec : Scenario.t) inst placement offered =
  let r =
    Access_sim.run
      {
        problem = inst.problem;
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
  ( {
      Runner.offered;
      throughput =
        (if r.makespan > 0. then float_of_int r.n_accesses /. r.makespan else 0.);
      accesses = r.n_accesses;
      mean = r.mean_delay;
      p50 = r.delay_summary.Stats.p50;
      p95 = r.delay_summary.Stats.p95;
      max = r.delay_summary.Stats.max;
    },
    r.per_client_mean )

let region_cdfs (spec : Scenario.t) inst per_client_mean =
  let active nodes =
    Array.of_list
      (List.filter_map
         (fun v -> if inst.rates.(v) > 0. then Some per_client_mean.(v) else None)
         nodes)
  in
  let groups =
    match inst.table with
    | Some t ->
        List.init (Region.n_regions t) (fun r ->
            ((Region.regions t).(r), active (Region.nodes_of_region t ~nodes:spec.nodes r)))
    | None -> [ ("all", active (List.init spec.nodes Fun.id)) ]
  in
  List.map
    (fun (region, xs) -> { Runner.region; count = Array.length xs; cdf = Stats.cdf xs })
    groups

let traced_run layers (spec : Scenario.t) =
  let ( let* ) = Result.bind in
  let* inst = build layers spec in
  let solver = Solver.find_exn spec.alg in
  let params = params spec in
  let* outcome, sym_outcome =
    Layers.time layers "scenario.solve" (fun () ->
        let* o = solver.Solver.solve params inst.problem in
        let* s = solver.Solver.solve params inst.sym in
        Ok (o, s))
  in
  let read_delay, write_delay, sym_read_delay =
    Layers.time layers "place.delay_eval" (fun () ->
        ( delay spec inst.read_view outcome.Outcome.placement,
          delay spec inst.write_view outcome.Outcome.placement,
          delay spec inst.read_view sym_outcome.Outcome.placement ))
  in
  let cells =
    Layers.time layers "sim.run" (fun () ->
        Array.map (cell spec inst outcome.Outcome.placement) spec.offered_loads)
  in
  let record =
    {
      Runner.spec;
      regions = (match inst.table with Some t -> Region.regions t | None -> [||]);
      outcome;
      read_delay;
      write_delay;
      sym_read_delay;
      curve = Array.map fst cells;
      region_cdfs = region_cdfs spec inst (snd cells.(0));
    }
  in
  let text = Layers.time layers "scenario.emit" (fun () -> Json.to_string (Runner.to_json record)) in
  Ok (record, text)

let run spec =
  let ( let* ) = Result.bind in
  let* r = Runner.run spec in
  Ok (r, Json.to_string (Runner.to_json r))

(* One curve cell per offered load, every region keyed, monotone CDFs,
   and the outcome checks on the scenario's own problem. *)
let check ?counters (spec : Scenario.t) = function
  | Error e ->
      Meter.fail (Printf.sprintf "seed %d: %s" spec.seed (Qp_error.to_string e))
  | Ok ((r : Runner.t), _) -> (
      let monotone cdf =
        let rec go = function
          | (q1, v1) :: ((q2, v2) :: _ as rest) -> q1 <= q2 && v1 <= v2 && go rest
          | _ -> true
        in
        go cdf
      in
      if Array.length r.curve <> Array.length spec.offered_loads then
        Meter.fail "curve cells differ from offered loads"
      else if
        Array.exists2 (fun c o -> c.Runner.offered <> o || c.Runner.accesses <= 0)
          r.curve spec.offered_loads
      then Meter.fail "curve cell out of order or empty"
      else if List.length r.region_cdfs <> Array.length r.regions then
        Meter.fail "a region has no CDF"
      else if not (List.for_all (fun c -> monotone c.Runner.cdf) r.region_cdfs) then
        Meter.fail "region CDF not monotone"
      else
        match build (Layers.create ()) spec with
        | Error e -> Meter.fail (Qp_error.to_string e)
        | Ok inst ->
            Checks.outcome ?counters inst.problem r.outcome)

let op spec =
  {
    Meter.run =
      (fun () ->
        let r = run spec in
        fun () -> check spec r);
    traced =
      (fun layers ->
        match traced_run layers spec with
        | Error e -> fun () -> check spec (Error e)
        | Ok (record, text) ->
            let accesses =
              Array.fold_left (fun a c -> a + c.Runner.accesses) 0 record.Runner.curve
            in
            Layers.add layers "sim.accesses" (float_of_int accesses);
            fun () ->
              check ~counters:[ ("sim.accesses", accesses) ] spec
                (Ok (record, text)));
  }

let ops ~seed =
  let next = stream ~seed in
  fun () -> op (next ())

let faithful ~seed =
  let spec = stream ~seed () in
  match (run spec, traced_run (Layers.create ()) spec) with
  | Ok (_, a), Ok (_, b) -> String.equal a b
  | Error _, Error _ -> true
  | _ -> false
