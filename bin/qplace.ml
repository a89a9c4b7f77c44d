(* qplace: command-line front end for the quorum-placement library.

   Subcommands:
     solve       build an instance and place it with a chosen algorithm
     simulate    place and then drive the discrete-event simulator
     gap         print the Appendix-A integrality-gap measurements
     info        describe a quorum system construction
     solvers     list the registered placement algorithms
     resilience  closed-loop engine vs static baseline under churn
     churn       greedy repair vs bounded-safe migration under churn
     scenario    run a qp-scenario-spec/1 geo-workload file end to end
     tail        summarize wide-event JSONL artifacts
   Instances are described by one shared {!Qp_instance.Spec.t} record
   (deterministic from --seed); algorithms are selected by name from
   the {!Qp_place.Solver} registry. Library errors arrive as typed
   {!Qp_util.Qp_error.t} values and map to exit codes:
   infeasible/capacity 1, invalid instance 2, internal 3. *)

module Rng = Qp_util.Rng
module Table = Qp_util.Table
module Qp_error = Qp_util.Qp_error
module Obs = Qp_obs
module Spec = Qp_instance.Spec
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
open Qp_place

let ( let* ) = Qp_error.( let* )

(* ------------------------------------------------------------------ *)
(* Common flags: every instance-driven subcommand shares one spec      *)
(* record plus the telemetry sinks.                                    *)
(* ------------------------------------------------------------------ *)

type sinks = {
  trace : string option;
  metrics : string option;
  wide : string option; (* wide-event JSONL sink *)
}

type common = { spec : Spec.t; sinks : sinks }

type run_meta = {
  command : string;
  spec : Spec.t;
  jobs : int; (* resolved worker count (spec.jobs with 0 = all cores) *)
  alpha : float option;
  algorithm : string option;
}

let meta_fields m =
  [ ("command", Obs.Json.String m.command);
    ("topology", Obs.Json.String m.spec.Spec.topology);
    ("nodes", Obs.Json.Int m.spec.Spec.nodes);
    ("system", Obs.Json.String m.spec.Spec.system);
    ("cap_slack", Obs.Json.Float m.spec.Spec.cap_slack);
    ("seed", Obs.Json.Int m.spec.Spec.seed);
    ("jobs", Obs.Json.Int m.jobs) ]
  @ (match m.alpha with Some a -> [ ("alpha", Obs.Json.Float a) ] | None -> [])
  @ match m.algorithm with Some a -> [ ("algorithm", Obs.Json.String a) ] | None -> []

let print_meta m =
  Printf.printf
    "run: %s topology=%s nodes=%d system=%s cap-slack=%g seed=%d jobs=%d%s%s version=%s\n"
    m.command m.spec.Spec.topology m.spec.Spec.nodes m.spec.Spec.system
    m.spec.Spec.cap_slack m.spec.Spec.seed m.jobs
    (match m.alpha with Some a -> Printf.sprintf " alpha=%g" a | None -> "")
    (match m.algorithm with Some a -> " alg=" ^ a | None -> "")
    Obs.Build_info.version

(* --jobs 0 means "all cores"; everything downstream sees the resolved
   count. All parallel sections are deterministic by construction, so
   the choice only affects wall-clock time, never output. [pin]
   replaces a valid request (loadgen runs no parallel section). *)
let resolve_jobs ?pin jobs =
  if jobs < 0 then Qp_error.invalid_instancef "jobs must be >= 0 (got %d)" jobs
  else begin
    let jobs =
      match pin with
      | Some j -> j
      | None -> if jobs = 0 then Domain.recommended_domain_count () else jobs
    in
    Qp_par.Pool.set_default_jobs jobs;
    Ok jobs
  end

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* Run [f] with the requested telemetry sinks live: a JSONL trace
   (header record first) and/or a Prometheus text dump of the default
   registry written when the command finishes, even on error.
   [quiet] suppresses the human-readable meta line (--format json). *)
let with_obs ~quiet sinks meta f =
  if not quiet then print_meta meta;
  let install slot path =
    Obs.Trace.install slot (Obs.Trace.to_file path);
    Obs.Trace.header slot (meta_fields meta)
  in
  Option.iter (install Obs.Trace.spans) sinks.trace;
  Option.iter (install Obs.Trace.wide) sinks.wide;
  if sinks.metrics <> None then Obs.Metrics.set_enabled Obs.Metrics.default true;
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path -> write_file path (Obs.Metrics.to_prometheus Obs.Metrics.default))
        sinks.metrics;
      Obs.Trace.uninstall Obs.Trace.wide;
      Obs.Trace.uninstall Obs.Trace.spans)
    f

(* Every subcommand body returns [(unit, Qp_error.t) result]; this is
   the single place errors become diagnostics and exit codes. *)
let run_result r =
  match r with
  | Ok () -> ()
  | Error e ->
      prerr_endline ("qplace: " ^ Qp_error.to_string e);
      exit (Qp_error.exit_code e)

(* The one runner of the instance-driven subcommands: [checked] holds
   the flag checks, settled before anything prints; then --jobs is
   validated and resolved, the meta line printed (unless [quiet]), the
   telemetry sinks installed around [f], and the result mapped to an
   exit code. *)
let run ?(quiet = false) ?pin_jobs ?alpha ?algorithm ~command (c : common)
    checked f =
  run_result
  @@
  let* x = checked in
  let* jobs = resolve_jobs ?pin:pin_jobs c.spec.Spec.jobs in
  with_obs ~quiet c.sinks { command; spec = c.spec; jobs; alpha; algorithm }
    (fun () -> f x)

(* One offline unit of work as a wide event of the given [kind], whose
   body [f] runs under it, so the spans [f] opens become its phases:
   for a "solve", a "build" span for the instance and a "solve" span
   for the solver; for a "scenario", the runner's solve, delay
   evaluation and simulation spans. *)
let wide_event ~kind ~algorithm ~alpha f =
  let ev = Obs.Wide.start ~kind () in
  Obs.Wide.set_str ev "alg" algorithm;
  Obs.Wide.set ev "alpha" (Obs.Json.Float alpha);
  let res = Obs.Wide.within ev f in
  (match res with
  | Ok _ -> Obs.Wide.finish ~outcome:"ok" ev
  | Error e -> Obs.Wide.finish ~outcome:(Serialize.error_code e) ev);
  res

(* simulate, faults, resilience and churn all study the Theorem 1.2
   placement of the generated instance: the lp solver at alpha = 2
   (the default options), solved the way [qplace solve] solves. *)
let run_lp ~command (c : common) checked f =
  run ~command ~alpha:2. ~algorithm:"lp" c checked @@ fun x ->
  let* problem, outcome =
    wide_event ~kind:"solve" ~algorithm:"lp" ~alpha:2. @@ fun () ->
    let* problem = Obs.Span.with_ "build" (fun () -> Spec.build c.spec) in
    let* outcome =
      Obs.Span.with_ "solve" (fun () ->
          (Solver.find_exn "lp").Solver.solve
            (Qp_serve.Protocol.solver_params c.spec Qp_serve.Protocol.default_options)
            problem)
    in
    Ok (problem, outcome)
  in
  f x problem outcome.Outcome.placement

let check_format = function
  | "text" | "json" -> Ok ()
  | other -> Qp_error.invalid_instancef "unknown format %S (text|json)" other

(* Print a JSON document as one line, and also write it to [out]. *)
let emit_doc out doc =
  let doc = Obs.Json.to_string doc in
  Option.iter (fun path -> write_file path (doc ^ "\n")) out;
  print_endline doc

let describe_placement problem label f =
  let tbl =
    Table.create ~title:label
      [ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_rowf tbl "avg max-delay|%.4f" (Delay.avg_max_delay problem f);
  Table.add_rowf tbl "avg total-delay|%.4f" (Delay.avg_total_delay problem f);
  Table.add_rowf tbl "max load/cap|%.3f" (Placement.max_violation problem f);
  Table.add_rowf tbl "nodes used|%d" (List.length (Placement.used_nodes f));
  Table.print tbl;
  Printf.printf "placement: %s\n"
    (String.concat " " (Array.to_list (Array.map string_of_int f)))

(* ------------------------------------------------------------------ *)
(* Subcommand implementations                                          *)
(* ------------------------------------------------------------------ *)

let get_problem ~instance (c : common) =
  match instance with
  | Some path -> Serialize.load_problem path
  | None -> Spec.build c.spec

(* Solver parameters come from {!Qp_serve.Protocol.solver_params}, the
   mapping the server uses too, so served and offline placements agree
   byte-for-byte. The randomized solver streams from [seed + 1] so
   "solve" and the instance construction (seeded with [seed]) stay
   independent. *)
let solve_cmd (c : common) algorithm alpha pivot_budget instance save format =
  let json = format = "json" in
  run ~quiet:json ~command:"solve" ~alpha ~algorithm c
    (let* solver = Solver.find algorithm in
     let* () = check_format format in
     let* options =
       Qp_serve.Protocol.check_options
         { Qp_serve.Protocol.default_options with
           Qp_serve.Protocol.alpha;
           pivot_budget }
     in
     Ok (solver, options))
  @@ fun (solver, options) ->
  wide_event ~kind:"solve" ~algorithm ~alpha @@ fun () ->
  let* problem = Obs.Span.with_ "build" (fun () -> get_problem ~instance c) in
  let* () =
    match save with
    | Some path ->
        let* () = Serialize.save_problem path problem in
        if not json then Printf.printf "instance saved to %s\n" path;
        Ok ()
    | None -> Ok ()
  in
  let* outcome =
    Obs.Span.with_ "solve" (fun () ->
        solver.Solver.solve (Qp_serve.Protocol.solver_params c.spec options) problem)
  in
  if json then print_endline (Serialize.outcome_to_string outcome)
  else begin
    List.iter print_endline (solver.Solver.headline outcome);
    describe_placement problem solver.Solver.label outcome.Outcome.placement
  end;
  Ok ()

let simulate_cmd (c : common) protocol accesses =
  run_lp ~command:"simulate" c
    (match protocol with
    | "parallel" -> Ok Qp_sim.Access_sim.Parallel
    | "sequential" -> Ok Qp_sim.Access_sim.Sequential
    | other -> Qp_error.invalid_instancef "unknown protocol %S (parallel|sequential)" other)
  @@ fun protocol problem placement ->
  let cfg = Qp_sim.Access_sim.default_config ~problem ~placement in
  let* report =
    Qp_error.of_invalid_arg (fun () ->
        Qp_sim.Access_sim.run
          { cfg with
            Qp_sim.Access_sim.protocol;
            accesses_per_client = accesses;
            seed = c.spec.Spec.seed })
  in
  let open Qp_sim.Access_sim in
  Printf.printf "accesses: %d\n" report.n_accesses;
  Printf.printf "simulated mean delay: %.4f\n" report.mean_delay;
  Printf.printf "analytic delay:       %.4f\n" report.analytic_delay;
  Printf.printf "relative error:       %.3f%%\n" (100. *. report.relative_error);
  Format.printf "summary: %a@." Qp_util.Stats.pp_summary report.delay_summary;
  Ok ()

let gap_cmd (c : common) max_k =
  run ~command:"gap" c
    (if max_k < 2 then Qp_error.invalid_instancef "max-k must be at least 2 (got %d)" max_k
     else Ok ())
  @@ fun () ->
  Qp_error.guard @@ fun () ->
  let tbl =
    Table.create ~title:"Integrality gap of LP (9)-(14) on the Figure-1 family"
      [ ("k", Table.Right); ("n = k^2", Table.Right); ("LP value", Table.Right);
        ("integral OPT", Table.Right); ("gap", Table.Right) ]
  in
  for k = 2 to max_k do
    let r = Integrality.measure (Integrality.figure1_instance k) in
    Table.add_rowf tbl "%d|%d|%.4f|%.1f|%.2f" k r.Integrality.n r.Integrality.lp_value
      r.Integrality.integral_opt r.Integrality.gap
  done;
  Table.print tbl;
  Ok ()

let info_cmd (c : common) =
  run ~command:"info" c (Ok ()) @@ fun () ->
  let* system = Spec.build_system c.spec.Spec.system in
  let strategy = Strategy.uniform system in
  let loads = Strategy.loads system strategy in
  Printf.printf "universe size:   %d\n" (Quorum.universe system);
  Printf.printf "quorums:         %d\n" (Quorum.n_quorums system);
  let sizes = Array.map Array.length (Quorum.quorums system) in
  Printf.printf "quorum sizes:    min %d, max %d\n"
    (Array.fold_left min sizes.(0) sizes)
    (Array.fold_left max sizes.(0) sizes);
  Printf.printf "system load:     %.4f\n" (Strategy.system_load system strategy);
  Printf.printf "total load:      %.4f (expected quorum size)\n"
    (Strategy.total_load system strategy);
  Printf.printf "balanced loads:  %b\n"
    (Array.for_all (fun l -> Qp_util.Floatx.approx l loads.(0)) loads);
  Printf.printf "is coterie:      %b\n" (Quorum.is_coterie system);
  Printf.printf "intersecting:    %b\n" (Quorum.all_intersecting system);
  Ok ()

let solvers_cmd () =
  print_string (Solver.registry_table_markdown ())

let availability_cmd system_name p =
  run_result
  @@
  let* system = Spec.build_system system_name in
  let module Availability = Qp_quorum.Availability in
  let* failure =
    Qp_error.of_invalid_arg (fun () ->
        if Quorum.universe system <= 22 then
          Printf.sprintf "%.6f (exact)" (Availability.failure_probability system p)
        else
          Printf.sprintf "%.6f (Monte-Carlo, 100k samples)"
            (Availability.failure_probability_mc (Rng.create 1) system p
               ~samples:100_000))
  in
  Printf.printf "resilience:           %d\n%!" (Availability.resilience system);
  Printf.printf "Naor-Wool load bound: %.4f\n%!"
    (Availability.naor_wool_load_lower_bound system);
  Printf.printf "uniform system load:  %.4f\n%!"
    (Strategy.system_load system (Strategy.uniform system));
  Printf.printf "failure prob (p=%.2f): %s\n" p failure;
  Ok ()

let faults_cmd (c : common) p attempts =
  run_lp ~command:"faults" c (Ok ()) @@ fun () problem placement ->
  let module Engine = Qp_runtime.Engine in
  (* The static baseline: fixed strategy, blind retries, no repair. *)
  let base =
    Engine.default_config ~adaptive:false ~problem ~placement
      ~failure:(Qp_runtime.Failure.Static p) ()
  in
  let cfg =
    {
      base with
      Engine.retry = { base.Engine.retry with Qp_runtime.Retry.max_attempts = attempts };
      accesses_per_client = 1000;
      seed = c.spec.Spec.seed;
    }
  in
  let* () = Qp_error.of_invalid_arg (fun () -> Engine.validate cfg) in
  let r = Engine.run cfg in
  Printf.printf "accesses:        %d\n" r.Engine.n_accesses;
  Printf.printf "availability:    %.4f (iid prediction %.4f)\n" r.Engine.availability
    (Engine.predicted_availability cfg);
  Printf.printf "mean delay (ok): %.4f\n" r.Engine.mean_delay_success;
  Printf.printf "mean attempts:   %.2f\n" r.Engine.mean_attempts;
  Ok ()

let resilience_cmd (c : common) mtbf mttr attempts accesses hedge no_repair =
  run_lp ~command:"resilience" c (Ok ()) @@ fun () problem placement ->
  let seed = c.spec.Spec.seed in
  let module Failure = Qp_runtime.Failure in
  let module Retry = Qp_runtime.Retry in
  let module Engine = Qp_runtime.Engine in
  let failure = Failure.Dynamic { mtbf; mttr } in
  let timeout = 4. *. Qp_graph.Metric.diameter problem.Problem.metric in
  let* static_cfg, cfg =
    Qp_error.of_invalid_arg (fun () ->
        let fixed = Retry.fixed ~timeout ~max_attempts:attempts in
        let retry =
          if hedge then
            Retry.exponential ~jitter:0.2 ~hedge_after:(0.5 *. timeout) ~timeout
              ~base:(0.2 *. timeout) ~max_attempts:attempts ()
          else fixed
        in
        (* Static baseline at the same retry budget and failure trajectory. *)
        let static_cfg =
          { (Engine.default_config ~adaptive:false ~problem ~placement ~failure ()) with
            Engine.retry = fixed; accesses_per_client = accesses; seed }
        in
        let cfg =
          { (Engine.default_config ~adaptive:true
               ?repair:(if no_repair then None else Some Engine.default_trigger)
               ~problem ~placement ~failure ()) with
            Engine.retry; accesses_per_client = accesses; seed }
        in
        List.iter Engine.validate [ static_cfg; cfg ];
        (static_cfg, cfg))
  in
  let sr = Engine.run static_cfg in
  let er = Engine.run cfg in
  Printf.printf "dynamic churn: mtbf %.1f, mttr %.1f (node availability %.3f)\n" mtbf
    mttr (Failure.node_availability failure);
  Printf.printf "retry budget:  %d attempts, timeout %.3f%s\n" attempts timeout
    (if hedge then ", hedged + exponential backoff" else ", fixed");
  let tbl =
    Table.create ~title:"static baseline vs closed-loop engine"
      [ ("metric", Table.Left); ("static", Table.Right); ("engine", Table.Right) ]
  in
  Table.add_rowf tbl "availability|%.4f|%.4f" sr.Engine.availability
    er.Engine.availability;
  Table.add_rowf tbl "mean delay (ok)|%.4f|%.4f" sr.Engine.mean_delay_success
    er.Engine.mean_delay_success;
  Table.add_rowf tbl "mean attempts|%.2f|%.2f" sr.Engine.mean_attempts
    er.Engine.mean_attempts;
  Table.print tbl;
  Printf.printf "analytic failure-free delay: %.4f\n" er.Engine.analytic_delay;
  if hedge then
    Printf.printf "hedges: %d launched, %d won the race\n" er.Engine.hedges_launched
      er.Engine.hedges_won;
  (match er.Engine.repairs with
  | [] -> print_endline "repairs: none triggered"
  | rs ->
      Printf.printf "repairs: %d triggered\n" (List.length rs);
      List.iter
        (fun (ev : Engine.repair_event) ->
          Printf.printf
            "  t=%8.2f  dead {%s}  moved %d  delay %.4f -> %.4f\n" ev.Engine.time
            (String.concat ", " (List.map string_of_int ev.Engine.dead))
            ev.Engine.moved ev.Engine.delay_before ev.Engine.delay_after)
        rs);
  (match er.Engine.final_suspected with
  | [] -> print_endline "final suspected set: empty"
  | s ->
      Printf.printf "final suspected set: {%s}\n"
        (String.concat ", " (List.map string_of_int s)));
  Ok ()

let eval_cmd instance placement =
  run_result
  @@
  let* problem = Serialize.load_problem instance in
  let* f = Serialize.placement_of_string placement in
  let* () = Qp_error.of_invalid_arg (fun () -> Placement.validate problem f) in
  Qp_error.guard @@ fun () ->
  describe_placement problem "evaluation" f;
  let a = Relay.analyze problem f in
  Printf.printf "relay analysis: v0 = %d, direct %.4f, relayed %.4f (ratio %.3f <= 5)\n"
    a.Relay.v0 a.Relay.direct a.Relay.relayed a.Relay.ratio;
  Ok ()

let design_cmd topology nodes seed =
  run_result
  @@
  let rng = Rng.create seed in
  let* graph = Spec.build_topology topology nodes rng in
  Qp_error.guard @@ fun () ->
  let metric = Qp_graph.Metric.of_graph graph in
  let module Design = Qp_design.Design in
  let radius = Design.minmax_optimal_radius metric in
  let ball = Design.minmax_optimal_design metric in
  let median, lin = Design.lin_median_design metric in
  Printf.printf "min-max design (Tsuchiya-style):\n";
  Printf.printf "  optimal radius:     %.4f (exact)\n" radius;
  Printf.printf "  ball-design ecc:    %.4f\n" (Design.eccentricity_of_design metric ball);
  Printf.printf "min-avg design (Kobayashi/Lin):\n";
  Printf.printf "  Lin median:         node %d, cost %.4f (2-approx)\n" median
    (Design.mean_delay_of_design metric lin);
  Printf.printf "  lower bound on OPT: %.4f\n" (Design.minavg_lower_bound metric);
  Printf.printf
    "  (note: the Lin design has system load 1 - the concentration the paper's\n\
    \   placement formulation exists to avoid)\n";
  Ok ()

(* Churn comparison: the greedy-repair engine vs the full closed loop
   (warm re-solve + bounded-safe migration) on the same failure
   trajectory and retry budget. *)
let churn_cmd (c : common) mtbf mttr attempts accesses bound =
  run_lp ~command:"churn" c (Ok ()) @@ fun () problem placement ->
  let seed = c.spec.Spec.seed in
  let module Failure = Qp_runtime.Failure in
  let module Retry = Qp_runtime.Retry in
  let module Engine = Qp_runtime.Engine in
  let failure = Failure.Dynamic { mtbf; mttr } in
  let timeout = 4. *. Qp_graph.Metric.diameter problem.Problem.metric in
  let* greedy_cfg, migr_cfg =
    Qp_error.of_invalid_arg (fun () ->
        let retry = Retry.fixed ~timeout ~max_attempts:attempts in
        let cfg migration =
          { (Engine.default_config ~adaptive:true ~repair:Engine.default_trigger
               ?migration ~problem ~placement ~failure ()) with
            Engine.retry; accesses_per_client = accesses; seed }
        in
        let greedy_cfg = cfg None in
        let migr_cfg = cfg (Some { Engine.default_migration with Engine.bound }) in
        List.iter Engine.validate [ greedy_cfg; migr_cfg ];
        (greedy_cfg, migr_cfg))
  in
  let greedy = Engine.run greedy_cfg in
  let migr = Engine.run migr_cfg in
  Printf.printf "dynamic churn: mtbf %.1f, mttr %.1f (node availability %.3f)\n"
    mtbf mttr (Failure.node_availability failure);
  let tbl =
    Table.create ~title:"greedy repair vs bounded-safe migration"
      [ ("metric", Table.Left); ("greedy", Table.Right); ("migration", Table.Right) ]
  in
  Table.add_rowf tbl "availability|%.4f|%.4f" greedy.Engine.availability
    migr.Engine.availability;
  Table.add_rowf tbl "mean delay (ok)|%.4f|%.4f" greedy.Engine.mean_delay_success
    migr.Engine.mean_delay_success;
  Table.add_rowf tbl "mean attempts|%.2f|%.2f" greedy.Engine.mean_attempts
    migr.Engine.mean_attempts;
  Table.add_rowf tbl "repairs / migrations|%d|%d"
    (List.length greedy.Engine.repairs)
    (List.length migr.Engine.migrations);
  Table.print tbl;
  (match migr.Engine.migrations with
  | [] -> print_endline "migrations: none triggered"
  | ms ->
      List.iter
        (fun (m : Engine.migration_event) ->
          Printf.printf
            "  t=%8.2f  dead {%s}  moves %d/%d (%d retried)%s%s  delay %.4f -> %.4f\n"
            m.Engine.m_time
            (String.concat ", " (List.map string_of_int m.Engine.m_dead))
            m.Engine.applied_moves m.Engine.planned_moves m.Engine.retried_moves
            (if m.Engine.warm then "  warm" else "  cold")
            (if m.Engine.degraded then "  DEGRADED" else "")
            m.Engine.m_delay_before m.Engine.m_delay_after)
        ms);
  Ok ()

(* ------------------------------------------------------------------ *)
(* serve / loadgen: the network front end (lib/serve)                  *)
(* ------------------------------------------------------------------ *)

let serve_cmd (c : common) port host queue_depth deadline_ms server_jobs
    cache_capacity =
  let cfg =
    { Qp_serve.Server.default_config with
      Qp_serve.Server.host;
      port;
      queue_depth;
      default_deadline_ms = deadline_ms;
      default_spec = c.spec;
      jobs = server_jobs;
      cache_capacity }
  in
  run ~command:"serve" c (Qp_serve.Server.check_config cfg) @@ fun () ->
  Qp_serve.Server.run
    ~ready:(fun p -> Printf.printf "serving qp-serve/1 on %s:%d\n%!" host p)
    cfg

let loadgen_cmd (c : common) host port connections duration mix deadline_ms
    pivot_budget algorithm alpha timeout_ms retries drop_every unique_specs
    out =
  (* quiet: loadgen's stdout is the report document, nothing else —
     the telemetry sinks (--trace/--metrics/--wide-events) still
     install around the run *)
  run ~quiet:true ~pin_jobs:1 ~command:"loadgen" ~algorithm ~alpha c
    (let* mix = Qp_serve.Loadgen.mix_of_string mix in
     let* () =
       if retries < 0 then
         Qp_error.invalid_instancef "retries must be >= 0 (got %d)" retries
       else Ok ()
     in
     let* options =
       Qp_serve.Protocol.check_options
         { Qp_serve.Protocol.algorithm; alpha; deadline_ms; pivot_budget }
     in
     Ok (mix, options))
  @@ fun (mix, options) ->
  let cfg =
    { Qp_serve.Loadgen.host;
      port;
      connections;
      duration_s = duration;
      mix;
      spec = Some c.spec;
      options;
      seed = c.spec.Spec.seed;
      timeout_ms;
      retries;
      drop_every;
      (* Wide events imply per-request trace propagation: the client
         mints ids, the server echoes phase timing, and the two JSONL
         files join. *)
      trace_requests = c.sinks.wide <> None;
      unique_specs }
  in
  let* report = Qp_serve.Loadgen.run cfg in
  emit_doc out (Qp_serve.Loadgen.report_to_json report);
  Ok ()

(* ------------------------------------------------------------------ *)
(* scenario: run a qp-scenario-spec/1 file end to end                  *)
(* ------------------------------------------------------------------ *)

let read_scenario file =
  match open_in file with
  | exception Sys_error msg -> Qp_error.invalid_instancef "scenario: %s" msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Qp_scenario.Scenario.of_string (really_input_string ic (in_channel_length ic)))

let scenario_cmd file jobs format out sinks =
  match
    let* () = check_format format in
    read_scenario file
  with
  | Error e -> run_result (Error e)
  | Ok sc ->
      let module Scenario = Qp_scenario.Scenario in
      (* The scenario names a full instance spec, so the shared meta line
         and telemetry headers describe it exactly like any other
         subcommand. *)
      let spec =
        { Spec.topology = sc.Scenario.topology;
          nodes = sc.Scenario.nodes;
          system = sc.Scenario.system;
          cap_slack = sc.Scenario.cap_slack;
          seed = sc.Scenario.seed;
          jobs }
      in
      run ~quiet:(format = "json") ~command:"scenario" ~alpha:sc.Scenario.alpha
        ~algorithm:sc.Scenario.alg { spec; sinks } (Ok ())
      @@ fun () ->
      let* result =
        wide_event ~kind:"scenario" ~algorithm:sc.Scenario.alg
          ~alpha:sc.Scenario.alpha
        @@ fun () -> Qp_scenario.Runner.run sc
      in
      let open Qp_scenario.Runner in
      if format = "text" then begin
        Printf.printf "scenario: %s (read_fraction=%g, %d offered loads)\n"
          sc.Scenario.name sc.Scenario.read_fraction (Array.length result.curve);
        if Array.length result.regions > 0 then
          Printf.printf "regions: %s\n"
            (String.concat " " (Array.to_list result.regions));
        Printf.printf
          "objective: %.4f  read delay: %.4f  write delay: %.4f  symmetric read \
           delay: %.4f\n"
          result.outcome.Outcome.objective result.read_delay result.write_delay
          result.sym_read_delay;
        let tbl =
          Table.create ~title:"latency-throughput curve"
            [ ("offered", Table.Right); ("throughput", Table.Right);
              ("accesses", Table.Right); ("mean", Table.Right);
              ("p50", Table.Right); ("p95", Table.Right); ("max", Table.Right) ]
        in
        Array.iter
          (fun cell ->
            Table.add_rowf tbl "%g|%.4f|%d|%.3f|%.3f|%.3f|%.3f" cell.offered
              cell.throughput cell.accesses cell.mean cell.p50 cell.p95 cell.max)
          result.curve;
        Table.print tbl
      end;
      emit_doc out (to_json result);
      Ok ()

(* ------------------------------------------------------------------ *)
(* tail: summarize wide-event JSONL artifacts                          *)
(* ------------------------------------------------------------------ *)

(* Reads one or more qp-wide/1 files (e.g. the server's and the
   client's from one loadgen run) and prints per-kind counts, a
   per-phase latency breakdown, delay CDFs, and — when both sides of a
   trace are present — the client/server join. *)
let tail_cmd files =
  run_result
  @@
  let module Stats = Qp_util.Stats in
  let read_records path =
    match open_in path with
    | exception Sys_error msg -> Qp_error.invalid_instancef "tail: %s" msg
    | ic ->
        let records = ref [] in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Obs.Json.of_string line with
               | exception Obs.Json.Parse_error _ -> ()
               | j -> (
                   match Obs.Json.member "type" j with
                   | Some (Obs.Json.String "wide") -> records := j :: !records
                   | _ -> ())
           done
         with End_of_file -> close_in ic);
        Ok (List.rev !records)
  in
  let* records =
    List.fold_left
      (fun acc path ->
        let* acc = acc in
        let* rs = read_records path in
        Ok (acc @ rs))
      (Ok []) files
  in
  if records = [] then begin
    print_endline "no wide events found";
    Ok ()
  end
  else begin
    let str j key = Option.bind (Obs.Json.member key j) Obs.Json.to_str in
    let flt j key = Option.bind (Obs.Json.member key j) Obs.Json.to_float in
    let push tbl key v =
      match Hashtbl.find_opt tbl key with
      | Some l -> l := v :: !l
      | None -> Hashtbl.add tbl key (ref [ v ])
    in
    let durs_by_kind = Hashtbl.create 8 in
    let outcomes = Hashtbl.create 8 in
    let phase_samples = Hashtbl.create 8 in
    let by_trace :
        (string, float option ref * float option ref) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun j ->
        let kind = Option.value (str j "kind") ~default:"?" in
        let outcome = Option.value (str j "outcome") ~default:"?" in
        (match flt j "dur_s" with
        | Some d -> push durs_by_kind kind (d *. 1000.)
        | None -> ());
        let okey = kind ^ "/" ^ outcome in
        Hashtbl.replace outcomes okey
          (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes okey));
        (match Obs.Json.member "phases" j with
        | Some (Obs.Json.Obj ps) ->
            List.iter
              (fun (name, v) ->
                match Obs.Json.to_float v with
                | Some s -> push phase_samples (kind ^ ":" ^ name) (s *. 1000.)
                | None -> ())
              ps
        | _ -> ());
        match (str j "trace_id", flt j "dur_s") with
        | Some tid, Some d ->
            let cl, sv =
              match Hashtbl.find_opt by_trace tid with
              | Some slot -> slot
              | None ->
                  let slot = (ref None, ref None) in
                  Hashtbl.add by_trace tid slot;
                  slot
            in
            if kind = "client_call" then cl := Some d
            else if kind = "serve_request" then sv := Some d
        | _ -> ())
      records;
    let sorted tbl =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let kinds = Table.create ~title:"wide events by kind/outcome"
        [ ("kind/outcome", Table.Left); ("count", Table.Right) ]
    in
    List.iter
      (fun (k, n) -> Table.add_rowf kinds "%s|%d" k n)
      (List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) outcomes []));
    Table.print kinds;
    let phases = Table.create ~title:"phase breakdown (ms)"
        [ ("phase", Table.Left); ("count", Table.Right); ("mean", Table.Right);
          ("p50", Table.Right); ("p95", Table.Right); ("p99", Table.Right) ]
    in
    List.iter
      (fun (name, l) ->
        let a = Array.of_list !l in
        Table.add_rowf phases "%s|%d|%.3f|%.3f|%.3f|%.3f" name (Array.length a)
          (Stats.mean a) (Stats.percentile a 50.) (Stats.percentile a 95.)
          (Stats.percentile a 99.))
      (sorted phase_samples);
    Table.print phases;
    let cdf = Table.create ~title:"delay CDF (ms)"
        [ ("kind", Table.Left); ("count", Table.Right); ("p10", Table.Right);
          ("p50", Table.Right); ("p90", Table.Right); ("p99", Table.Right);
          ("max", Table.Right) ]
    in
    List.iter
      (fun (kind, l) ->
        let a = Array.of_list !l in
        Table.add_rowf cdf "%s|%d|%.3f|%.3f|%.3f|%.3f|%.3f" kind
          (Array.length a) (Stats.percentile a 10.) (Stats.percentile a 50.)
          (Stats.percentile a 90.) (Stats.percentile a 99.) (Stats.max a))
      (sorted durs_by_kind);
    Table.print cdf;
    let joined = ref [] in
    Hashtbl.iter
      (fun _ (cl, sv) ->
        match (!cl, !sv) with
        | Some c, Some s -> joined := ((c -. s) *. 1000.) :: !joined
        | _ -> ())
      by_trace;
    (match !joined with
    | [] -> ()
    | l ->
        let a = Array.of_list l in
        Printf.printf
          "trace join: %d requests seen on both sides; client-server overhead \
           mean %.3f ms, p99 %.3f ms\n"
          (Array.length a) (Stats.mean a) (Stats.percentile a 99.));
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let topology_t =
  Arg.(value & opt string "waxman" & info [ "topology" ] ~docv:"NAME"
         ~doc:"Topology: path, cycle, star, complete, tree, waxman, geometric, barbell.")

let nodes_t =
  Arg.(value & opt int 16 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Number of network nodes.")

let system_t =
  Arg.(value & opt string "grid:3" & info [ "system" ] ~docv:"SPEC"
         ~doc:"Quorum system: grid:K, majority:N:T, fpp:Q, tree:D, wheel:N, star:N, triangle.")

let cap_slack_t =
  Arg.(value & opt float 1.0 & info [ "cap-slack" ] ~docv:"X"
         ~doc:"Capacity per node as a multiple of the max element load.")

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs_t =
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains for parallel sections (0 = all cores, 1 = sequential). \
               Results are identical for every N.")

let trace_t =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a JSONL span/event trace of the run to FILE.")

let metrics_t =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write Prometheus-format metrics of the run to FILE.")

let wide_t =
  Arg.(value & opt (some string) None & info [ "wide-events" ] ~docv:"FILE"
         ~doc:"Write one qp-wide/1 JSONL record per unit of work (request, \
               solve, migration) to FILE. On loadgen this also attaches a \
               trace context to every request, so client and server files \
               join on trace id (see the tail subcommand).")

let sinks_t =
  Term.(const (fun trace metrics wide -> { trace; metrics; wide })
        $ trace_t $ metrics_t $ wide_t)

let common_t =
  let mk topology nodes system cap_slack seed jobs sinks =
    { spec = { Spec.topology; nodes; system; cap_slack; seed; jobs }; sinks }
  in
  Term.(const mk $ topology_t $ nodes_t $ system_t $ cap_slack_t $ seed_t
        $ jobs_t $ sinks_t)

let alpha_t =
  Arg.(value & opt float 2.0 & info [ "alpha" ] ~docv:"A"
         ~doc:"Rounding parameter of Theorem 3.7 (alpha > 1).")

let algorithm_t =
  Arg.(value & opt string "lp" & info [ "alg" ] ~docv:"ALG"
         ~doc:"Algorithm (see the solvers subcommand): lp (Thm 1.2), total (Thm 5.1), \
               greedy, random, exact, grid, majority, partial.")

let instance_t =
  Arg.(value & opt (some string) None & info [ "instance" ] ~docv:"FILE"
         ~doc:"Load the instance from FILE instead of generating one.")

let save_t =
  Arg.(value & opt (some string) None & info [ "save-instance" ] ~docv:"FILE"
         ~doc:"Save the instance to FILE before solving.")

let format_t =
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
         ~doc:"Output format: text (human-readable) or json (one qp-solve/1 object).")

let pivot_budget_t =
  Arg.(value & opt (some int) None & info [ "pivot-budget" ] ~docv:"N"
         ~doc:"Abort the LP after N simplex pivots (typed internal error). \
               Bounds worst-case solve time; also available per request on the server.")

let solve_term =
  Term.(const solve_cmd $ common_t $ algorithm_t $ alpha_t $ pivot_budget_t
        $ instance_t $ save_t $ format_t)

let solve_cmd_info = Cmd.info "solve" ~doc:"Place a quorum system on a generated network."

let protocol_t =
  Arg.(value & opt string "parallel" & info [ "protocol" ] ~docv:"P"
         ~doc:"Access protocol: parallel (max-delay) or sequential (total-delay).")

let accesses_t =
  Arg.(value & opt int 500 & info [ "accesses" ] ~docv:"K"
         ~doc:"Accesses per client in the simulation.")

let simulate_term = Term.(const simulate_cmd $ common_t $ protocol_t $ accesses_t)

let simulate_cmd_info =
  Cmd.info "simulate" ~doc:"Solve, then validate the placement in the event simulator."

let max_k_t =
  Arg.(value & opt int 8 & info [ "max-k" ] ~docv:"K" ~doc:"Largest k for the gap series.")

let gap_term = Term.(const gap_cmd $ common_t $ max_k_t)

let gap_cmd_info = Cmd.info "gap" ~doc:"Reproduce the Appendix-A integrality gap series."

let info_term = Term.(const info_cmd $ common_t)

let info_cmd_info = Cmd.info "info" ~doc:"Describe a quorum system construction."

let solvers_term = Term.(const solvers_cmd $ const ())

let solvers_cmd_info =
  Cmd.info "solvers" ~doc:"List the registered placement algorithms and their guarantees."

let fail_p_t =
  Arg.(value & opt float 0.1 & info [ "fail-prob" ] ~docv:"P" ~doc:"Per-node failure probability.")

let availability_term = Term.(const availability_cmd $ system_t $ fail_p_t)

let availability_cmd_info =
  Cmd.info "availability" ~doc:"Failure probability, resilience and load bounds of a system."

let attempts_t =
  Arg.(value & opt int 3 & info [ "attempts" ] ~docv:"K" ~doc:"Quorum retries per access.")

let faults_term = Term.(const faults_cmd $ common_t $ fail_p_t $ attempts_t)

let faults_cmd_info =
  Cmd.info "faults" ~doc:"Solve, then run the fault-injection simulator on the placement."

let mtbf_t =
  Arg.(value & opt float 60. & info [ "mtbf" ] ~docv:"T"
         ~doc:"Mean time between failures of the crash/repair churn process.")

let mttr_t =
  Arg.(value & opt float 20. & info [ "mttr" ] ~docv:"T"
         ~doc:"Mean time to repair of the crash/repair churn process.")

let hedge_t =
  Arg.(value & flag & info [ "hedge" ]
         ~doc:"Use exponential backoff with a hedged second quorum probe.")

let no_repair_t =
  Arg.(value & flag & info [ "no-repair" ]
         ~doc:"Disable the automatic placement-repair trigger.")

let resilience_term =
  Term.(const resilience_cmd $ common_t $ mtbf_t $ mttr_t $ attempts_t
        $ accesses_t $ hedge_t $ no_repair_t)

let resilience_cmd_info =
  Cmd.info "resilience"
    ~doc:"Run the closed-loop resilience engine against the static baseline under churn."

let eval_instance_t =
  Arg.(required & opt (some string) None & info [ "instance" ] ~docv:"FILE"
         ~doc:"Instance file (see the solve --save-instance flag).")

let placement_arg_t =
  Arg.(required & opt (some string) None & info [ "placement" ] ~docv:"IDS"
         ~doc:"Space-separated node id per element, e.g. \"0 3 3 7\".")

let eval_term = Term.(const eval_cmd $ eval_instance_t $ placement_arg_t)

let eval_cmd_info =
  Cmd.info "eval" ~doc:"Evaluate a given placement on a saved instance."

let design_term = Term.(const design_cmd $ topology_t $ nodes_t $ seed_t)

let design_cmd_info =
  Cmd.info "design" ~doc:"The Related-Work quorum DESIGN problems on a generated network."

let host_t =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind (serve) or connect to (loadgen).")

let port_t =
  Arg.(value & opt int Qp_serve.Server.default_config.Qp_serve.Server.port
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port (0 = pick an ephemeral port and print it).")

let queue_depth_t =
  Arg.(value & opt int Qp_serve.Server.default_config.Qp_serve.Server.queue_depth
       & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Admission-control bound: requests beyond N queued are rejected \
                 immediately with an overloaded error.")

let deadline_ms_t =
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Per-request deadline in milliseconds; expired requests are \
               rejected (or cancelled mid-solve) with deadline_exceeded.")

let server_jobs_t =
  Arg.(value & opt int Qp_serve.Server.default_config.Qp_serve.Server.jobs
       & info [ "server-jobs" ] ~docv:"N"
           ~doc:"Concurrent solves: 1 runs them inline on the event loop, N > \
                 1 dispatches onto N dedicated worker domains (responses stay \
                 byte-identical and in per-connection order). Distinct from \
                 --jobs, which parallelizes within one solve.")

let cache_capacity_t =
  Arg.(value
       & opt int Qp_serve.Server.default_config.Qp_serve.Server.cache_capacity
       & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Placement-cache entries (LRU, keyed by canonical \
                 spec+options); 0 disables caching.")

let serve_term =
  Term.(const serve_cmd $ common_t $ port_t $ host_t $ queue_depth_t
        $ deadline_ms_t $ server_jobs_t $ cache_capacity_t)

let serve_cmd_info =
  Cmd.info "serve"
    ~doc:"Serve placements over TCP (qp-serve/1 framed JSON) until shutdown or SIGTERM."

let connections_t =
  Arg.(value & opt int 4 & info [ "connections" ] ~docv:"N"
         ~doc:"Concurrent closed-loop client connections.")

let duration_t =
  Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"S"
         ~doc:"Load duration in seconds.")

let mix_t =
  Arg.(value & opt string "solve=8,info=1,health=1" & info [ "mix" ] ~docv:"MIX"
         ~doc:"Weighted verb mix, e.g. solve=8,info=1,health=1.")

let out_t =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Also write the qp-loadgen/1 report to FILE.")

let timeout_ms_t =
  Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS"
         ~doc:"Client connect and per-call socket timeout; a hung or \
               partitioned server fails the call instead of blocking forever.")

let retries_t =
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Retries per call (jittered exponential backoff) on transport \
               errors and overloaded replies before the failure is recorded.")

let chaos_drop_t =
  Arg.(value & opt (some int) None & info [ "chaos-drop" ] ~docv:"K"
         ~doc:"Fault injection: force-close each worker's connection before \
               every K-th request, exercising the reconnect path.")

let unique_specs_t =
  Arg.(value & flag
       & info [ "unique-specs" ]
           ~doc:"Give every request its own spec seed, defeating the server's \
                 placement cache and single-flight dedup — measures raw solve \
                 throughput.")

let loadgen_term =
  Term.(const loadgen_cmd $ common_t $ host_t $ port_t $ connections_t
        $ duration_t $ mix_t $ deadline_ms_t $ pivot_budget_t $ algorithm_t
        $ alpha_t $ timeout_ms_t $ retries_t $ chaos_drop_t $ unique_specs_t
        $ out_t)

let loadgen_cmd_info =
  Cmd.info "loadgen"
    ~doc:"Drive a qplace server with closed-loop load and report latency percentiles."

let scenario_file_t =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC"
         ~doc:"qp-scenario-spec/1 JSON file (see examples/scenarios/).")

let scenario_out_t =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Also write the qp-scenario/1 record to FILE.")

let scenario_format_t =
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
         ~doc:"Output format: text (tables + the record line) or json \
               (one qp-scenario/1 object).")

let scenario_term =
  Term.(const scenario_cmd $ scenario_file_t $ jobs_t $ scenario_format_t
        $ scenario_out_t $ sinks_t)

let scenario_cmd_info =
  Cmd.info "scenario"
    ~doc:"Run a geo-distributed scenario spec: region topology, read/write \
          mix, skewed clients, offered-load sweep."

let tail_files_t =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
         ~doc:"qp-wide/1 JSONL file(s); pass both the server's and the \
               client's to see the cross-process trace join.")

let tail_term = Term.(const tail_cmd $ tail_files_t)

let tail_cmd_info =
  Cmd.info "tail"
    ~doc:"Summarize wide-event JSONL into per-phase breakdowns and delay CDFs."

let bound_t =
  Arg.(value & opt float 3.0 & info [ "bound" ] ~docv:"B"
         ~doc:"Migration load bound: every intermediate placement keeps each \
               node's load within B times its capacity (default alpha + 1).")

let churn_term =
  Term.(const churn_cmd $ common_t $ mtbf_t $ mttr_t $ attempts_t
        $ accesses_t $ bound_t)

let churn_cmd_info =
  Cmd.info "churn"
    ~doc:"Compare greedy repair with the warm-re-solve + bounded-safe \
          migration loop under node churn."

let main_cmd =
  let doc = "quorum placement in networks to minimize access delays (PODC'05)" in
  Cmd.group (Cmd.info "qplace" ~doc ~version:Obs.Build_info.version)
    [
      Cmd.v solve_cmd_info solve_term;
      Cmd.v simulate_cmd_info simulate_term;
      Cmd.v gap_cmd_info gap_term;
      Cmd.v info_cmd_info info_term;
      Cmd.v solvers_cmd_info solvers_term;
      Cmd.v availability_cmd_info availability_term;
      Cmd.v faults_cmd_info faults_term;
      Cmd.v resilience_cmd_info resilience_term;
      Cmd.v design_cmd_info design_term;
      Cmd.v eval_cmd_info eval_term;
      Cmd.v serve_cmd_info serve_term;
      Cmd.v loadgen_cmd_info loadgen_term;
      Cmd.v scenario_cmd_info scenario_term;
      Cmd.v tail_cmd_info tail_term;
      Cmd.v churn_cmd_info churn_term;
    ]

let broken_pipe msg =
  let sub = "Broken pipe" in
  let n = String.length sub in
  let rec find i =
    i + n <= String.length msg && (String.sub msg i n = sub || find (i + 1))
  in
  find 0

let () =
  (* A downstream pipe closing early ([qplace ... | head]) or a client
     hanging up mid-reply must surface as EPIPE on the write, not kill
     the process — and EPIPE on stdout is a clean exit, not an error. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  match Cmd.eval ~catch:false main_cmd with
  | code -> (
      (* Flush before [exit] so a closed pipe cannot blow up in the
         [at_exit] flusher after we picked the exit code. *)
      match flush stdout with
      | () -> exit code
      | exception Sys_error msg when broken_pipe msg -> Unix._exit 0)
  | exception Sys_error msg when broken_pipe msg -> Unix._exit 0
  | exception Qp_error.Error e ->
      prerr_endline ("qplace: " ^ Qp_error.to_string e);
      exit (Qp_error.exit_code e)
  | exception e ->
      prerr_endline
        ("qplace: internal error, uncaught exception: " ^ Printexc.to_string e);
      exit Cmd.Exit.internal_error
