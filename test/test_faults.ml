(* The static fault-injection baseline: the engine with a fixed
   strategy, blind retries and no repair, checked against the iid
   closed form and the exact availability analysis. *)

module Rng = Qp_util.Rng
module Generators = Qp_graph.Generators
module Strategy = Qp_quorum.Strategy
module Simple_qs = Qp_quorum.Simple_qs
module Majority_qs = Qp_quorum.Majority_qs
module Availability = Qp_quorum.Availability
module Problem = Qp_place.Problem
module Failure = Qp_runtime.Failure
module Retry = Qp_runtime.Retry
module Engine = Qp_runtime.Engine

let static_config ?(accesses = 200) ?(attempts = 3) ~problem ~placement failure =
  let base = Engine.default_config ~adaptive:false ~problem ~placement ~failure () in
  { base with
    Engine.retry = { base.Engine.retry with Retry.max_attempts = attempts };
    accesses_per_client = accesses }

let fixture ?(n = 6) ?(system = Simple_qs.triangle ()) () =
  let rng = Rng.create 10 in
  let g, _ = Generators.random_geometric rng n 0.6 in
  let problem =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make n 2.) ~system
      ~strategy:(Strategy.uniform system) ()
  in
  let universe = Qp_quorum.Quorum.universe system in
  (problem, Array.init universe (fun u -> u mod n))

let test_no_failures_full_availability () =
  let problem, placement = fixture () in
  let cfg = static_config ~problem ~placement (Failure.Static 0.) in
  let r = Engine.run cfg in
  Alcotest.(check (float 1e-9)) "all succeed" 1. r.Engine.availability;
  Alcotest.(check (float 1e-9)) "one attempt each" 1. r.Engine.mean_attempts;
  Alcotest.(check (float 1e-9)) "prediction agrees" 1. (Engine.predicted_availability cfg)

let test_total_failure () =
  let problem, placement = fixture () in
  let r = Engine.run (static_config ~problem ~placement (Failure.Static 1.)) in
  Alcotest.(check (float 1e-9)) "all fail" 0. r.Engine.availability;
  Alcotest.(check (float 1e-9)) "max attempts burned" 3. r.Engine.mean_attempts

let test_static_matches_iid_prediction () =
  let problem, placement = fixture ~n:8 ~system:(Majority_qs.make ~n:5 ~t:3) () in
  let cfg = static_config ~accesses:3000 ~problem ~placement (Failure.Static 0.25) in
  let r = Engine.run cfg in
  Alcotest.(check bool) "within 2% of iid closed form" true
    (Float.abs (r.Engine.availability -. Engine.predicted_availability cfg) < 0.02)

let test_iid_closed_form_accounts_colocation () =
  (* All three elements of the triangle on ONE node: a quorum needs
     only that node alive, so single-attempt success = 1 - p. *)
  let rng = Rng.create 1 in
  let g, _ = Generators.random_geometric rng 4 0.8 in
  let system = Simple_qs.triangle () in
  let problem =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make 4 2.) ~system
      ~strategy:(Strategy.uniform system) ()
  in
  let placement = [| 0; 0; 0 |] in
  let cfg = static_config ~attempts:1 ~problem ~placement (Failure.Static 0.3) in
  Alcotest.(check (float 1e-9)) "co-located fate sharing" 0.7
    (Engine.predicted_availability cfg)

let test_retries_improve_availability () =
  let problem, placement = fixture ~n:8 ~system:(Majority_qs.make ~n:5 ~t:3) () in
  let run attempts =
    Engine.run
      (static_config ~accesses:1500 ~attempts ~problem ~placement (Failure.Static 0.35))
  in
  let one = run 1 and three = run 3 in
  Alcotest.(check bool) "retries help" true
    (three.Engine.availability > one.Engine.availability +. 0.05)

let test_failed_attempts_cost_timeout () =
  let problem, placement = fixture () in
  let run p = Engine.run (static_config ~accesses:1500 ~problem ~placement (Failure.Static p)) in
  let r = run 0.3 and r0 = run 0. in
  Alcotest.(check bool) "successful-access delay grows with retries" true
    (r.Engine.mean_delay_success > r0.Engine.mean_delay_success);
  (* Histogram sums to the number of successes. *)
  Alcotest.(check int) "histogram consistent" r.Engine.n_success
    (Array.fold_left ( + ) 0 r.Engine.attempt_histogram)

let test_dynamic_model_runs () =
  let problem, placement = fixture ~n:8 ~system:(Majority_qs.make ~n:5 ~t:3) () in
  let cfg =
    static_config ~accesses:800 ~problem ~placement (Failure.Dynamic { mtbf = 50.; mttr = 10. })
  in
  let r = Engine.run cfg in
  Alcotest.(check bool) "some succeed" true (r.Engine.availability > 0.5);
  Alcotest.(check bool) "some fail" true (r.Engine.availability < 1.);
  Alcotest.(check bool) "attempts within budget" true
    (r.Engine.mean_attempts <= float_of_int cfg.Engine.retry.Retry.max_attempts +. 1e-9)

let test_dynamic_extremes () =
  let problem, placement = fixture () in
  (* Nodes essentially never fail. *)
  let up =
    Engine.run
      (static_config ~accesses:100 ~problem ~placement
         (Failure.Dynamic { mtbf = 1e12; mttr = 1e-6 }))
  in
  Alcotest.(check (float 1e-9)) "always up" 1. up.Engine.availability

let test_validation () =
  let problem, placement = fixture () in
  let cfg = static_config ~problem ~placement (Failure.Static 0.1) in
  Alcotest.check_raises "attempts" (Invalid_argument "Retry: max_attempts >= 1 required")
    (fun () ->
      ignore (Engine.run (static_config ~attempts:0 ~problem ~placement (Failure.Static 0.1))));
  Alcotest.check_raises "timeout" (Invalid_argument "Retry: timeout must be positive")
    (fun () ->
      ignore
        (Engine.run { cfg with Engine.retry = { cfg.Engine.retry with Retry.timeout = 0. } }));
  Alcotest.check_raises "probability"
    (Invalid_argument "Failure.validate: Static probability must lie in [0, 1]")
    (fun () -> ignore (Engine.run { cfg with Engine.failure = Failure.Static 2. }))

(* Cross-module consistency: with one element per node and one attempt,
   the simulated availability matches the Availability module's exact
   system failure probability. *)
let test_matches_availability_module () =
  let system = Majority_qs.make ~n:5 ~t:3 in
  let rng = Rng.create 2 in
  let g, _ = Generators.random_geometric rng 5 0.7 in
  let problem =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make 5 1.) ~system
      ~strategy:(Strategy.uniform system) ()
  in
  let placement = [| 0; 1; 2; 3; 4 |] in
  let p = 0.3 in
  let cfg = static_config ~accesses:4000 ~attempts:1 ~problem ~placement (Failure.Static p) in
  let r = Engine.run cfg in
  let predicted = Engine.predicted_availability cfg in
  let exact_up = 1. -. Availability.failure_probability system p in
  (* A single attempt samples ONE quorum, so it can fail even when some
     other quorum is alive: per-attempt success <= system availability. *)
  Alcotest.(check bool) "attempt success <= system availability" true
    (predicted <= exact_up +. 1e-9);
  Alcotest.(check bool) "simulation near its prediction" true
    (Float.abs (r.Engine.availability -. predicted) < 0.02)

let suites =
  [
    ( "sim.faults",
      [
        Alcotest.test_case "no failures" `Quick test_no_failures_full_availability;
        Alcotest.test_case "total failure" `Quick test_total_failure;
        Alcotest.test_case "matches iid prediction" `Quick test_static_matches_iid_prediction;
        Alcotest.test_case "co-location fate sharing" `Quick test_iid_closed_form_accounts_colocation;
        Alcotest.test_case "retries improve availability" `Quick test_retries_improve_availability;
        Alcotest.test_case "timeouts counted in delay" `Quick test_failed_attempts_cost_timeout;
        Alcotest.test_case "dynamic model" `Quick test_dynamic_model_runs;
        Alcotest.test_case "dynamic extremes" `Quick test_dynamic_extremes;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "consistent with Availability" `Quick test_matches_availability_module;
      ] );
  ]
