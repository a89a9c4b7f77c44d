(* The closed-loop resilience engine: failure detector, retry policy,
   adaptive strategy and the end-to-end engine. *)

module Rng = Qp_util.Rng
module Generators = Qp_graph.Generators
module Metric = Qp_graph.Metric
module Strategy = Qp_quorum.Strategy
module Majority_qs = Qp_quorum.Majority_qs
module Simple_qs = Qp_quorum.Simple_qs
module Problem = Qp_place.Problem
module Detector = Qp_runtime.Detector
module Retry = Qp_runtime.Retry
module Failure = Qp_runtime.Failure
module Adaptive = Qp_runtime.Adaptive
module Engine = Qp_runtime.Engine

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Detector                                                            *)
(* ------------------------------------------------------------------ *)

let test_detector_ewma () =
  let d = Detector.create 3 in
  Alcotest.(check bool) "initially healthy" true (Detector.healthy d);
  check_float "zero suspicion" 0. (Detector.suspicion d 1);
  (* Failed probes drive suspicion toward 1 geometrically. *)
  Detector.observe d 1 ~ok:false;
  check_float "one miss" 0.35 (Detector.suspicion d 1);
  Detector.observe d 1 ~ok:false;
  check_float "two misses" (0.35 +. (0.35 *. 0.65)) (Detector.suspicion d 1);
  Alcotest.(check bool) "not yet suspected" false (Detector.suspected d 1);
  Detector.observe d 1 ~ok:false;
  Alcotest.(check bool) "suspected after three" true (Detector.suspected d 1);
  Alcotest.(check (list int)) "suspect list" [ 1 ] (Detector.suspected_nodes d);
  (* Successes decay it back below threshold. *)
  Detector.observe d 1 ~ok:true;
  Detector.observe d 1 ~ok:true;
  Alcotest.(check bool) "recovered" false (Detector.suspected d 1);
  Alcotest.(check int) "observation count" 5 (Detector.observations d 1)

let test_detector_version_tracks_crossings () =
  let d = Detector.create 2 in
  let v0 = Detector.version d in
  Detector.observe d 0 ~ok:true;
  Alcotest.(check int) "no crossing, no bump" v0 (Detector.version d);
  Detector.observe d 0 ~ok:false;
  Detector.observe d 0 ~ok:false;
  Detector.observe d 0 ~ok:false;
  Alcotest.(check bool) "bumped on suspect" true (Detector.version d > v0);
  let v1 = Detector.version d in
  Detector.observe d 0 ~ok:false;
  Alcotest.(check int) "deeper suspicion, same version" v1 (Detector.version d);
  Detector.reset d 0;
  Alcotest.(check bool) "bumped on reset" true (Detector.version d > v1);
  check_float "reset clears" 0. (Detector.suspicion d 0)

let test_detector_validation () =
  Alcotest.check_raises "bad gain" (Invalid_argument "Detector: gain must lie in (0, 1]")
    (fun () ->
      ignore (Detector.create ~config:{ Detector.gain = 0.; suspect_threshold = 0.5 } 2));
  Alcotest.check_raises "empty" (Invalid_argument "Detector.create: need at least one node")
    (fun () -> ignore (Detector.create 0));
  let d = Detector.create 2 in
  Alcotest.check_raises "range" (Invalid_argument "Detector.observe: node out of range")
    (fun () -> Detector.observe d 7 ~ok:true)

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let test_retry_backoff () =
  let p =
    Retry.exponential ~jitter:0. ~timeout:10. ~base:1. ~factor:2. ~max_backoff:5.
      ~max_attempts:5 ()
  in
  check_float "first" 1. (Retry.base_backoff p ~attempt:1);
  check_float "second" 2. (Retry.base_backoff p ~attempt:2);
  check_float "third" 4. (Retry.base_backoff p ~attempt:3);
  check_float "capped" 5. (Retry.base_backoff p ~attempt:4);
  let fixed = Retry.fixed ~timeout:10. ~max_attempts:3 in
  check_float "fixed policy never pauses" 0. (Retry.base_backoff fixed ~attempt:2)

let test_retry_jitter_bounds () =
  let p = Retry.exponential ~jitter:0.5 ~timeout:10. ~base:2. ~max_attempts:3 () in
  let rng = Rng.create 4 in
  for _ = 1 to 200 do
    let d = Retry.backoff_delay p rng ~attempt:1 in
    Alcotest.(check bool) "within jitter band" true (d >= 1. && d <= 3.)
  done

let test_retry_validation () =
  Alcotest.check_raises "attempts" (Invalid_argument "Retry: max_attempts >= 1 required")
    (fun () -> ignore (Retry.fixed ~timeout:1. ~max_attempts:0));
  Alcotest.check_raises "hedge range"
    (Invalid_argument "Retry: hedge delay must lie in (0, timeout)") (fun () ->
      ignore (Retry.exponential ~hedge_after:2. ~timeout:1. ~base:0.1 ~max_attempts:2 ()))

(* ------------------------------------------------------------------ *)
(* Adaptive strategy                                                   *)
(* ------------------------------------------------------------------ *)

let triangle_fixture () =
  let system = Simple_qs.triangle () in
  let rng = Rng.create 3 in
  let g, _ = Generators.random_geometric rng 4 0.8 in
  let problem =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make 4 1.) ~system
      ~strategy:(Strategy.uniform system) ()
  in
  (problem, [| 0; 1; 2 |])

let test_adaptive_healthy_is_static () =
  let problem, placement = triangle_fixture () in
  let system = problem.Problem.system in
  let static = problem.Problem.strategy in
  let d = Detector.create 4 in
  (* Physical equality: when the detector is quiet the engine must run
     the paper's static optimum, not a reweighted copy of it. *)
  Alcotest.(check bool) "same array" true
    (Adaptive.strategy system placement d ~static == static)

let test_adaptive_shifts_mass_off_suspected () =
  let problem, placement = triangle_fixture () in
  let system = problem.Problem.system in
  let static = problem.Problem.strategy in
  let d = Detector.create 4 in
  (* Node 2 (hosting element 2) goes dark. Triangle quorums: {0,1},
     {1,2}, {0,2} - the two quorums touching element 2 must lose mass
     to {0,1}. *)
  for _ = 1 to 5 do
    Detector.observe d 2 ~ok:false
  done;
  let p = Adaptive.strategy system placement d ~static in
  Alcotest.(check bool) "healthy quorum gains" true (p.(0) > static.(0));
  Alcotest.(check bool) "suspect quorums lose" true (p.(1) < static.(1) && p.(2) < static.(2));
  check_float "still a distribution" 1. (Array.fold_left ( +. ) 0. p);
  (* All nodes deeply dark: every quorum's health underflows the
     renormalization floor, so reweighting has no signal and the
     strategy falls back to the static optimum. *)
  for v = 0 to 3 do
    for _ = 1 to 60 do
      Detector.observe d v ~ok:false
    done
  done;
  let q = Adaptive.strategy system placement d ~static in
  Alcotest.(check bool) "all-dark falls back to static" true
    (Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) q static)

let test_adaptive_cache_tracks_version () =
  let problem, placement = triangle_fixture () in
  let system = problem.Problem.system in
  let static = problem.Problem.strategy in
  let d = Detector.create 4 in
  let c = Adaptive.make system placement ~static in
  let s0 = Adaptive.refresh c d in
  Alcotest.(check bool) "healthy cache serves static" true (s0 == static);
  for _ = 1 to 5 do
    Detector.observe d 2 ~ok:false
  done;
  let s1 = Adaptive.refresh c d in
  Alcotest.(check bool) "recomputed on crossing" true (s1 != static);
  let s2 = Adaptive.refresh c d in
  Alcotest.(check bool) "cached between crossings" true (s1 == s2)

(* The cached sampler is rebuilt with the strategy and only then, and
   it draws what a sampler of the current strategy draws. *)
let test_adaptive_sampler_follows_cache () =
  let problem, placement = triangle_fixture () in
  let system = problem.Problem.system in
  let static = problem.Problem.strategy in
  let d = Detector.create 4 in
  let c = Adaptive.make system placement ~static in
  let s0 = Adaptive.sampler c d in
  Alcotest.(check bool) "cached while healthy" true (Adaptive.sampler c d == s0);
  for _ = 1 to 5 do
    Detector.observe d 2 ~ok:false
  done;
  let s1 = Adaptive.sampler c d in
  Alcotest.(check bool) "rebuilt on crossing" true (s1 != s0);
  Alcotest.(check bool) "cached between crossings" true (Adaptive.sampler c d == s1);
  let current = Adaptive.refresh c d in
  let a = Rng.create 5 and b = Rng.create 5 and fresh = Rng.sampler current in
  for _ = 1 to 200 do
    Alcotest.(check int) "same draws" (Rng.draw b fresh) (Rng.draw a s1)
  done

let test_strategy_reweight () =
  let p = [| 0.5; 0.25; 0.25 |] in
  (match Strategy.reweight p (fun i -> if i = 0 then 0. else 1.) with
  | None -> Alcotest.fail "renormalizable"
  | Some q ->
      check_float "zeroed" 0. q.(0);
      check_float "renormalized" 0.5 q.(1));
  Alcotest.(check bool) "all-zero weights collapse" true
    (Strategy.reweight p (fun _ -> 0.) = None);
  Alcotest.check_raises "negative factor"
    (Invalid_argument "Strategy.reweight: negative weight factor") (fun () ->
      ignore (Strategy.reweight p (fun _ -> -1.)))

(* ------------------------------------------------------------------ *)
(* Engine, end to end                                                  *)
(* ------------------------------------------------------------------ *)

let engine_fixture () =
  let rng = Rng.create 11 in
  let n = 10 in
  let g, _ = Generators.random_geometric rng n 0.6 in
  let system = Majority_qs.make ~n:5 ~t:3 in
  let strategy = Strategy.uniform system in
  let problem =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make n (1.5 *. (3. /. 5.))) ~system
      ~strategy ()
  in
  match Qp_place.Qpp_solver.solve ~alpha:2. problem with
  | Some r -> (problem, r.Qp_place.Qpp_solver.placement)
  | None -> Alcotest.fail "fixture infeasible"

let test_engine_failure_free_matches_analytic () =
  let problem, placement = engine_fixture () in
  let cfg =
    { (Engine.default_config ~problem ~placement ~failure:(Failure.Static 0.) ()) with
      Engine.accesses_per_client = 2000 }
  in
  let r = Engine.run cfg in
  check_float "everything succeeds" 1. r.Engine.availability;
  check_float "single attempts" 1. r.Engine.mean_attempts;
  (* Poisson sampling of the static strategy: the mean delay estimates
     the paper's analytic average max-delay. *)
  Alcotest.(check bool) "reproduces the analytic delay" true
    (Float.abs (r.Engine.mean_delay_success -. r.Engine.analytic_delay)
     /. r.Engine.analytic_delay
    < 0.05)

let test_engine_adaptive_beats_static_under_churn () =
  let problem, placement = engine_fixture () in
  let failure = Failure.Dynamic { mtbf = 60.; mttr = 40. } in
  let retry =
    Retry.fixed
      ~timeout:(4. *. Metric.diameter problem.Problem.metric)
      ~max_attempts:3
  in
  let run ~adaptive =
    Engine.run
      { (Engine.default_config ~adaptive ~problem ~placement ~failure ()) with
        Engine.retry; accesses_per_client = 400; seed = 3 }
  in
  let static = run ~adaptive:false and adaptive = run ~adaptive:true in
  (* Same seed => same churn trajectory and access times (both streams
     are split off the seed ahead of any workload draw): a paired
     comparison at an equal retry budget. *)
  Alcotest.(check bool) "strictly more accesses succeed" true
    (adaptive.Engine.availability > static.Engine.availability);
  Alcotest.(check bool) "no extra attempts" true
    (adaptive.Engine.mean_attempts <= static.Engine.mean_attempts +. 1e-9)

let test_engine_repair_fires_and_avoids_dead () =
  let problem, placement = engine_fixture () in
  let failure = Failure.Dynamic { mtbf = 40.; mttr = 60. } in
  let cfg =
    { (Engine.default_config ~adaptive:true ~repair:Engine.default_trigger ~problem
         ~placement ~failure ()) with
      Engine.accesses_per_client = 300;
      seed = 2 }
  in
  let r = Engine.run cfg in
  Alcotest.(check bool) "repairs triggered" true (r.Engine.repairs <> []);
  List.iter
    (fun (ev : Engine.repair_event) ->
      Alcotest.(check bool) "moved something" true (ev.Engine.moved > 0))
    r.Engine.repairs;
  (* The last repair's placement is the final one; it must avoid the
     nodes that repair believed dead at that point. *)
  (match List.rev r.Engine.repairs with
  | last :: _ ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) "replica off believed-dead node" true
            (not (List.mem v last.Engine.dead)))
        r.Engine.final_placement
  | [] -> ());
  Alcotest.(check bool) "repair helped" true (r.Engine.availability > 0.5)

let test_engine_migration_loop () =
  (* With a migration policy, a tripped trigger runs the closed loop:
     warm re-solve -> bounded-safe plan -> staged application. The run
     must record migration events whose accounting is consistent, and
     must remain deterministic in the seed. *)
  let problem, placement = engine_fixture () in
  let failure = Failure.Dynamic { mtbf = 40.; mttr = 60. } in
  let cfg =
    { (Engine.default_config ~adaptive:true ~repair:Engine.default_trigger
         ~migration:Engine.default_migration ~problem ~placement ~failure ()) with
      Engine.accesses_per_client = 300;
      seed = 2 }
  in
  let r = Engine.run cfg in
  Alcotest.(check bool) "migrations triggered" true (r.Engine.migrations <> []);
  List.iter
    (fun (ev : Engine.migration_event) ->
      Alcotest.(check bool) "applied <= planned" true
        (ev.Engine.applied_moves <= ev.Engine.planned_moves);
      Alcotest.(check bool) "non-degraded events apply their whole plan" true
        (ev.Engine.degraded || ev.Engine.applied_moves = ev.Engine.planned_moves))
    r.Engine.migrations;
  let r' = Engine.run cfg in
  Alcotest.(check int) "deterministic event count"
    (List.length r.Engine.migrations)
    (List.length r'.Engine.migrations);
  Alcotest.(check (array int)) "deterministic final placement"
    r.Engine.final_placement r'.Engine.final_placement

let test_engine_deterministic () =
  let problem, placement = engine_fixture () in
  let failure = Failure.Dynamic { mtbf = 50.; mttr = 30. } in
  let cfg =
    { (Engine.default_config ~adaptive:true ~problem ~placement ~failure ()) with
      Engine.accesses_per_client = 150;
      seed = 9 }
  in
  let a = Engine.run cfg in
  let b = Engine.run cfg in
  Alcotest.(check int) "same successes" a.Engine.n_success b.Engine.n_success;
  check_float "same delay" a.Engine.mean_delay_success b.Engine.mean_delay_success;
  Alcotest.(check (array int)) "same final placement" a.Engine.final_placement
    b.Engine.final_placement

let test_engine_hedging_accounting () =
  let problem, placement = engine_fixture () in
  let timeout = 4. *. Metric.diameter problem.Problem.metric in
  let retry =
    Retry.exponential ~jitter:0.2 ~hedge_after:(0.5 *. timeout) ~timeout
      ~base:(0.2 *. timeout) ~max_attempts:3 ()
  in
  let cfg =
    { (Engine.default_config ~adaptive:true ~problem ~placement
         ~failure:(Failure.Dynamic { mtbf = 60.; mttr = 40. }) ()) with
      Engine.retry; accesses_per_client = 300; seed = 4 }
  in
  let r = Engine.run cfg in
  Alcotest.(check bool) "hedges launched" true (r.Engine.hedges_launched > 0);
  Alcotest.(check bool) "wins within launches" true
    (r.Engine.hedges_won <= r.Engine.hedges_launched);
  Alcotest.(check int) "histogram covers successes" r.Engine.n_success
    (Array.fold_left ( + ) 0 r.Engine.attempt_histogram)

let test_engine_validation () =
  let problem, placement = engine_fixture () in
  let base = Engine.default_config ~problem ~placement ~failure:(Failure.Static 0.1) () in
  Alcotest.check_raises "attempts" (Invalid_argument "Retry: max_attempts >= 1 required")
    (fun () ->
      Engine.validate
        { base with Engine.retry = { base.Engine.retry with Retry.max_attempts = 0 } });
  Alcotest.check_raises "timeout" (Invalid_argument "Retry: timeout must be positive")
    (fun () ->
      Engine.validate { base with Engine.retry = { base.Engine.retry with Retry.timeout = 0. } });
  Alcotest.check_raises "probability"
    (Invalid_argument "Failure.validate: Static probability must lie in [0, 1]") (fun () ->
      Engine.validate { base with Engine.failure = Failure.Static 2. });
  Alcotest.check_raises "NaN probability"
    (Invalid_argument "Failure.validate: Static probability must lie in [0, 1]") (fun () ->
      Engine.validate { base with Engine.failure = Failure.Static Float.nan });
  Alcotest.check_raises "non-finite churn"
    (Invalid_argument "Failure.validate: mtbf and mttr must be positive and finite")
    (fun () ->
      Engine.validate
        { base with Engine.failure = Failure.Dynamic { mtbf = Float.nan; mttr = 40. } });
  (* Under churn the crash/repair process regenerates forever, so a run
     with no accesses to resolve would never stop: it is rejected. *)
  Alcotest.check_raises "no accesses under churn"
    (Invalid_argument "Engine: accesses_per_client >= 1 required") (fun () ->
      ignore
        (Engine.run
           { base with
             Engine.failure = Failure.Dynamic { mtbf = 60.; mttr = 40. };
             accesses_per_client = 0 }));
  Alcotest.check_raises "probe interval"
    (Invalid_argument "Engine: probe_interval must be positive") (fun () ->
      ignore (Engine.run { base with Engine.probe_interval = 0. }));
  Alcotest.check_raises "repair trigger"
    (Invalid_argument "Engine: repair capacity_frac must lie in (0, 1]") (fun () ->
      ignore
        (Engine.run
           { base with
             Engine.repair = Some { Engine.default_trigger with Engine.capacity_frac = 0. }
           }))

(* ------------------------------------------------------------------ *)
(* SLO trigger and migration wide events                                *)
(* ------------------------------------------------------------------ *)

let test_engine_slo_validation () =
  let problem, placement = engine_fixture () in
  let base = Engine.default_config ~problem ~placement ~failure:(Failure.Static 0.1) () in
  Alcotest.check_raises "requires repair"
    (Invalid_argument "Engine: an SLO trigger requires a repair trigger") (fun () ->
      ignore (Engine.run { base with Engine.slo = Some Engine.default_slo_trigger }));
  let with_slo s =
    { base with Engine.repair = Some Engine.default_trigger; slo = Some s }
  in
  Alcotest.check_raises "windows"
    (Invalid_argument "Engine: SLO windows must satisfy 0 < fast <= slow") (fun () ->
      ignore
        (Engine.run
           (with_slo { Engine.default_slo_trigger with Engine.fast_window = 200. })));
  Alcotest.check_raises "threshold"
    (Invalid_argument "Engine: SLO burn_threshold must be positive") (fun () ->
      ignore
        (Engine.run
           (with_slo { Engine.default_slo_trigger with Engine.burn_threshold = 0. })));
  Alcotest.check_raises "target"
    (Invalid_argument "Engine: SLO target must lie in (0, 1)") (fun () ->
      ignore
        (Engine.run
           (with_slo
              { Engine.default_slo_trigger with
                Engine.objective = { Qp_obs.Slo.name = "x"; target = 1.5; latency_s = None }
              })))

let test_engine_slo_trigger_trips () =
  let problem, placement = engine_fixture () in
  let failure = Failure.Dynamic { mtbf = 40.; mttr = 60. } in
  (* A repair trigger whose heuristics can never fire (all capacity
     suspected / 1000x delay): any repair in the run was tripped by
     the SLO burn rate alone. *)
  let inert =
    { Engine.default_trigger with Engine.capacity_frac = 1.0; delay_factor = 1000. }
  in
  let cfg slo =
    { (Engine.default_config ~adaptive:true ~repair:inert ?slo ~problem ~placement
         ~failure ()) with
      Engine.accesses_per_client = 300;
      seed = 2 }
  in
  let without = Engine.run (cfg None) in
  Alcotest.(check int) "inert heuristics never repair" 0
    (List.length without.Engine.repairs);
  (* 99% objective: under 60%-downtime churn the error budget burns in
     both windows and the trip invokes the same repair path *)
  let tight =
    { Engine.default_slo_trigger with
      Engine.objective = { Qp_obs.Slo.name = "access"; target = 0.99; latency_s = None }
    }
  in
  let with_slo = Engine.run (cfg (Some tight)) in
  Alcotest.(check bool) "slo burn trips repair" true (with_slo.Engine.repairs <> []);
  (* deterministic in the seed, like every other engine path *)
  let again = Engine.run (cfg (Some tight)) in
  Alcotest.(check int) "deterministic repair count"
    (List.length with_slo.Engine.repairs)
    (List.length again.Engine.repairs)

let migration_config () =
  let problem, placement = engine_fixture () in
  let failure = Failure.Dynamic { mtbf = 40.; mttr = 60. } in
  { (Engine.default_config ~adaptive:true ~repair:Engine.default_trigger
       ~migration:Engine.default_migration ~problem ~placement ~failure ()) with
    Engine.accesses_per_client = 300;
    seed = 2 }

let test_engine_migration_wide_events () =
  let module Wide = Qp_obs.Wide in
  let module Json = Qp_obs.Json in
  let module Trace = Qp_obs.Trace in
  let sink, read = Trace.memory () in
  Fun.protect ~finally:(fun () -> Trace.uninstall Trace.wide) @@ fun () ->
  Trace.install Trace.wide sink;
  let r = Engine.run (migration_config ()) in
  Alcotest.(check bool) "migrations happened" true (r.Engine.migrations <> []);
  let str k j = Option.bind (Json.member k j) Json.to_str in
  let migs =
    List.filter (fun j -> str "kind" j = Some "migration") (read ())
  in
  Alcotest.(check int) "one wide event per migration episode"
    (List.length r.Engine.migrations)
    (List.length migs);
  List.iter
    (fun m ->
      (match str "outcome" m with
      | Some ("applied" | "degraded") -> ()
      | o ->
          Alcotest.failf "unexpected outcome %s"
            (Option.value o ~default:"<none>"));
      (* every episode times the warm re-solve; the migrate_plan phase
         exists unless the ladder degraded before planning *)
      let phases = Option.get (Json.member "phases" m) in
      Alcotest.(check bool) "resolve phase timed" true
        (Json.member "resolve" phases <> None);
      Alcotest.(check bool) "sim timeline attrs" true
        (Json.member "sim_time" m <> None && Json.member "sim_end" m <> None))
    migs

(* The resolve and migrate_plan spans enclose the work they name: the
   candidate solves nest under resolve, a plan takes clock time, every
   parent is in the trace, and each migration's wide resolve phase is
   exactly its resolve span's duration. *)
let test_engine_migration_spans () =
  let module Obs = Qp_obs in
  let module Json = Obs.Json in
  let cfg = migration_config () in
  let spans_sink, spans = Obs.Trace.memory () in
  let wide_sink, wide = Obs.Trace.memory () in
  let tick = ref 0. in
  Obs.Core.set_clock (fun () ->
      tick := !tick +. 1.;
      !tick);
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.uninstall Obs.Trace.spans;
      Obs.Trace.uninstall Obs.Trace.wide;
      Obs.Core.default_clock ())
  @@ fun () ->
  Obs.Trace.install Obs.Trace.spans spans_sink;
  Obs.Trace.install Obs.Trace.wide wide_sink;
  let r = Engine.run cfg in
  Alcotest.(check bool) "migrations happened" true (r.Engine.migrations <> []);
  let str k j = Option.bind (Json.member k j) Json.to_str in
  let num k j = Option.bind (Json.member k j) Json.to_float in
  let records = List.filter (fun j -> str "type" j = Some "span") (spans ()) in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun j ->
      match Option.bind (Json.member "id" j) Json.to_int with
      | Some id -> Hashtbl.replace by_id id j
      | None -> Alcotest.fail "span without id")
    records;
  let parent j =
    match Json.member "parent" j with
    | Some (Json.Int p) -> (
        match Hashtbl.find_opt by_id p with
        | Some pj -> Some pj
        | None -> Alcotest.failf "dangling parent %d" p)
    | _ -> None
  in
  List.iter (fun j -> ignore (parent j)) records;
  let named n = List.filter (fun j -> str "name" j = Some n) records in
  let solves = named "qpp_solve" in
  Alcotest.(check bool) "solves traced" true (solves <> []);
  List.iter
    (fun j ->
      Alcotest.(check (option string)) "qpp_solve under resolve" (Some "resolve")
        (Option.bind (parent j) (str "name")))
    solves;
  let plans = named "migrate_plan" in
  Alcotest.(check bool) "plans traced" true (plans <> []);
  List.iter
    (fun j ->
      Alcotest.(check bool) "migrate_plan takes time" true
        (Option.get (num "dur_s" j) > 0.))
    plans;
  let resolves = List.map (num "dur_s") (named "resolve") in
  let phase_resolves =
    List.filter_map
      (fun j ->
        if str "kind" j = Some "migration" then
          Some (Option.bind (Json.member "phases" j) (num "resolve"))
        else None)
      (wide ())
  in
  Alcotest.(check (list (option (float 0.)))) "wide resolve = span dur_s"
    resolves phase_resolves

let suites =
  [
    ( "runtime.detector",
      [
        Alcotest.test_case "ewma suspicion" `Quick test_detector_ewma;
        Alcotest.test_case "version on crossings" `Quick test_detector_version_tracks_crossings;
        Alcotest.test_case "validation" `Quick test_detector_validation;
      ] );
    ( "runtime.retry",
      [
        Alcotest.test_case "exponential backoff" `Quick test_retry_backoff;
        Alcotest.test_case "jitter bounds" `Quick test_retry_jitter_bounds;
        Alcotest.test_case "validation" `Quick test_retry_validation;
      ] );
    ( "runtime.adaptive",
      [
        Alcotest.test_case "healthy serves static" `Quick test_adaptive_healthy_is_static;
        Alcotest.test_case "shifts mass off suspects" `Quick test_adaptive_shifts_mass_off_suspected;
        Alcotest.test_case "cache tracks version" `Quick test_adaptive_cache_tracks_version;
        Alcotest.test_case "strategy reweight" `Quick test_strategy_reweight;
        Alcotest.test_case "sampler follows cache" `Quick test_adaptive_sampler_follows_cache;
      ] );
    ( "runtime.engine",
      [
        Alcotest.test_case "failure-free matches analytic" `Quick
          test_engine_failure_free_matches_analytic;
        Alcotest.test_case "adaptive beats static" `Quick
          test_engine_adaptive_beats_static_under_churn;
        Alcotest.test_case "repair fires" `Quick test_engine_repair_fires_and_avoids_dead;
        Alcotest.test_case "migration loop" `Quick test_engine_migration_loop;
        Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
        Alcotest.test_case "hedging accounting" `Quick test_engine_hedging_accounting;
        Alcotest.test_case "validation" `Quick test_engine_validation;
        Alcotest.test_case "slo validation" `Quick test_engine_slo_validation;
        Alcotest.test_case "slo trigger trips" `Quick test_engine_slo_trigger_trips;
        Alcotest.test_case "migration spans feed wide phases" `Quick
          test_engine_migration_spans;
        Alcotest.test_case "migration wide events" `Quick
          test_engine_migration_wide_events;
      ] );
  ]
