(* Bounded-safe migration planner ([Qp_place.Migrate]): hand-sized unit
   checks plus the qcheck safety property from the live-reconfiguration
   work — no intermediate placement of a plan ever violates quorum
   intersection or the [(alpha+1) * cap] load allowance. *)

module Rng = Qp_util.Rng
module Generators = Qp_graph.Generators
module Simple_qs = Qp_quorum.Simple_qs
module Grid_qs = Qp_quorum.Grid_qs
module Strategy = Qp_quorum.Strategy
open Qp_place

(* Same instance family as test_place: random geometric graph, small
   quorum system, capacities generous enough that random placements are
   usually feasible (tight enough that plans still need ordering). *)
let random_qpp seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 8 in
  let g, _ = Generators.random_geometric rng n 0.45 in
  let system =
    match Rng.int rng 3 with
    | 0 -> Simple_qs.triangle ()
    | 1 -> Grid_qs.make 2
    | _ -> Simple_qs.wheel 5
  in
  let strategy = Strategy.uniform system in
  let loads = Strategy.loads system strategy in
  let max_load = Array.fold_left Float.max 0. loads in
  let caps = Array.init n (fun _ -> max_load *. (1. +. Rng.float rng 1.5)) in
  (Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy (), rng)

let bound = 3.

(* ------------------------------------------------------------------ *)
(* Unit checks                                                         *)
(* ------------------------------------------------------------------ *)

let path3_problem () =
  let g = Qp_graph.Graph.create 3 in
  Qp_graph.Graph.add_edge g 0 1 1.;
  Qp_graph.Graph.add_edge g 1 2 1.;
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let caps = Array.make 3 10. in
  Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy ()

let test_identity_plan () =
  let p = path3_problem () in
  let f = [| 0; 1; 2 |] in
  match Migrate.plan ~bound p ~current:f ~target:f with
  | Error e -> Alcotest.failf "identity plan: %s" (Qp_util.Qp_error.to_string e)
  | Ok pl ->
      Alcotest.(check int) "no moves" 0 (List.length pl.Migrate.moves);
      Alcotest.(check int) "no drains" 0 pl.Migrate.drains

let test_apply_move () =
  let f = [| 0; 1; 2 |] in
  let f' = Migrate.apply_move f { Migrate.elem = 1; src = 1; dst = 2 } in
  Alcotest.(check (array int)) "moved" [| 0; 2; 2 |] f';
  Alcotest.(check (array int)) "original untouched" [| 0; 1; 2 |] f;
  Alcotest.check_raises "src mismatch" (Invalid_argument "Migrate.apply_move: source mismatch")
    (fun () -> ignore (Migrate.apply_move f { Migrate.elem = 0; src = 2; dst = 1 }))

let test_intermediates_shape () =
  let f = [| 0; 1; 2 |] in
  let moves =
    [ { Migrate.elem = 0; src = 0; dst = 1 }; { Migrate.elem = 1; src = 1; dst = 0 } ]
  in
  let states = Migrate.intermediates ~current:f moves in
  Alcotest.(check int) "one state per move" 2 (List.length states);
  Alcotest.(check (array int)) "final" [| 1; 0; 2 |]
    (List.nth states 1)

let test_infeasible_target () =
  (* Target piles every element on a node whose capacity cannot hold
     them even at the bound: the planner must refuse, not emit an
     unsafe plan. *)
  let g = Qp_graph.Graph.create 3 in
  Qp_graph.Graph.add_edge g 0 1 1.;
  Qp_graph.Graph.add_edge g 1 2 1.;
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let caps = [| 10.; 0.1; 10. |] in
  let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
  match Migrate.plan ~bound p ~current:[| 0; 0; 2 |] ~target:[| 1; 1; 1 |] with
  | Error (Qp_util.Qp_error.Infeasible _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Qp_util.Qp_error.to_string e)
  | Ok _ -> Alcotest.fail "planned into an over-bound target"

(* The migrate_plan span encloses the planner, so a refused plan is
   traced too. *)
let test_refusal_traced () =
  let module Obs = Qp_obs in
  let g = Qp_graph.Graph.create 3 in
  Qp_graph.Graph.add_edge g 0 1 1.;
  Qp_graph.Graph.add_edge g 1 2 1.;
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let p =
    Problem.of_graph_qpp ~graph:g ~capacities:[| 10.; 0.1; 10. |] ~system ~strategy ()
  in
  let sink, read = Obs.Trace.memory () in
  Obs.Trace.install Obs.Trace.spans sink;
  let r =
    Fun.protect ~finally:(fun () -> Obs.Trace.uninstall Obs.Trace.spans) (fun () ->
        Migrate.plan ~bound p ~current:[| 0; 0; 2 |] ~target:[| 1; 1; 1 |])
  in
  Alcotest.(check bool) "refused" true (Result.is_error r);
  let names =
    List.filter_map (fun j -> Option.bind (Obs.Json.member "name" j) Obs.Json.to_str) (read ())
  in
  Alcotest.(check (list string)) "one migrate_plan span" [ "migrate_plan" ] names

(* ------------------------------------------------------------------ *)
(* qcheck: every intermediate placement is safe                        *)
(* ------------------------------------------------------------------ *)

(* The independent verifier plus a from-scratch replay: every prefix
   placement must keep load(v) within max(bound * cap(v), starting
   load(v)) — the grandfathering rule — and reach the target exactly. *)
let intermediates_safe p ~current (pl : Migrate.plan) ~target =
  let start = Placement.node_loads p current in
  let allowance v =
    Float.max (bound *. p.Problem.capacities.(v)) start.(v) +. 1e-9
  in
  let ok_state f =
    let loads = Placement.node_loads p f in
    Array.for_all (fun v -> loads.(v) <= allowance v)
      (Array.init (Problem.n_nodes p) (fun v -> v))
  in
  let states = Migrate.intermediates ~current pl.Migrate.moves in
  List.for_all ok_state states
  && (states = [] || List.nth states (List.length states - 1) = target)

let prop_plan_intermediates_safe =
  QCheck.Test.make
    ~name:"every Migrate.plan intermediate respects the load allowance" ~count:120
    QCheck.small_int (fun seed ->
      let p, rng = random_qpp seed in
      match (Baselines.random rng p, Baselines.random rng p) with
      | Some current, Some target when current <> target -> (
          match Migrate.plan ~bound p ~current ~target with
          | Error _ -> true (* planner may refuse; it must never lie *)
          | Ok pl ->
              (match Migrate.check p ~current ~target pl with
              | Ok () -> true
              | Error e ->
                  QCheck.Test.fail_reportf "check rejected its own plan: %s"
                    (Qp_util.Qp_error.to_string e))
              && intermediates_safe p ~current pl ~target)
      | _ -> true)

let prop_plan_reaches_solver_target =
  (* The production path: migrate from a random placement to an LP
     placement. Solver targets respect capacities, so the planner
     should nearly always succeed — and when it does, the plan's own
     max_ratio must agree with a replay. *)
  QCheck.Test.make ~name:"plans to solver placements verify and report max_ratio"
    ~count:40 QCheck.small_int (fun seed ->
      let p, rng = random_qpp (seed + 5000) in
      match
        (Baselines.random rng p, Qpp_solver.solve ~alpha:2. p)
      with
      | Some current, Some r when current <> r.Qpp_solver.placement ->
          let target = r.Qpp_solver.placement in
          (match Migrate.plan ~bound p ~current ~target with
          | Error _ -> true
          | Ok pl ->
              let replayed =
                List.fold_left
                  (fun acc f -> Float.max acc (Placement.max_violation p f))
                  0.
                  (Migrate.intermediates ~current pl.Migrate.moves)
              in
              Migrate.check p ~current ~target pl = Ok ()
              && Float.abs (replayed -. pl.Migrate.max_ratio) <= 1e-6)
      | _ -> true)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_plan_intermediates_safe; prop_plan_reaches_solver_target ]

let suites =
  [ ( "migrate.unit",
      [ Alcotest.test_case "identity plan is empty" `Quick test_identity_plan;
        Alcotest.test_case "apply_move" `Quick test_apply_move;
        Alcotest.test_case "intermediates shape" `Quick test_intermediates_shape;
        Alcotest.test_case "over-bound target refused" `Quick test_infeasible_target;
        Alcotest.test_case "refusal traced" `Quick test_refusal_traced ] );
    ("migrate.properties", qcheck_tests) ]
