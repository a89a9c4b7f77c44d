(* Tests for the extension modules: quorum composition, access-strategy
   re-optimization, graph properties, transit-stub topologies. *)

module Rng = Qp_util.Rng
module Metric = Qp_graph.Metric
module Generators = Qp_graph.Generators
module Graph_props = Qp_graph.Graph_props
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Simple_qs = Qp_quorum.Simple_qs
module Compose_qs = Qp_quorum.Compose_qs
module Majority_qs = Qp_quorum.Majority_qs
module Grid_qs = Qp_quorum.Grid_qs
open Qp_place

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

let test_compose_counts () =
  let outer = Simple_qs.triangle () in
  let inners = Array.init 3 (fun _ -> Simple_qs.triangle ()) in
  (* Each outer quorum has 2 blocks, each with 3 inner choices: 9
     composed quorums per outer quorum, 27 total over universe 9. *)
  Alcotest.(check int) "count" 27 (Compose_qs.n_composed_quorums outer inners);
  let s = Compose_qs.compose outer inners in
  Alcotest.(check int) "universe" 9 (Quorum.universe s);
  Alcotest.(check int) "materialized" 27 (Quorum.n_quorums s);
  Alcotest.(check bool) "intersecting" true (Quorum.all_intersecting s)

let test_compose_quorum_sizes () =
  let outer = Simple_qs.triangle () in
  let inners = Array.init 3 (fun _ -> Simple_qs.triangle ()) in
  let s = Compose_qs.compose outer inners in
  (* Outer quorums have 2 elements, inner quorums 2 elements: composed
     size 4. *)
  Array.iter
    (fun q -> Alcotest.(check int) "size 4" 4 (Array.length q))
    (Quorum.quorums s)

let test_compose_heterogeneous () =
  let outer = Simple_qs.triangle () in
  let inners =
    [| Simple_qs.triangle (); Majority_qs.make ~n:5 ~t:3; Simple_qs.star 3 |]
  in
  let s = Compose_qs.compose outer inners in
  Alcotest.(check int) "universe 3+5+3" 11 (Quorum.universe s);
  Alcotest.(check bool) "intersecting" true (Quorum.all_intersecting s);
  let strategy = Compose_qs.uniform_recursive_strategy outer inners in
  Strategy.validate s strategy

let test_compose_offsets () =
  let inners = [| Simple_qs.triangle (); Simple_qs.star 4; Simple_qs.triangle () |] in
  Alcotest.(check (array int)) "offsets" [| 0; 3; 7 |] (Compose_qs.block_offsets inners)

let test_compose_validation () =
  let outer = Simple_qs.triangle () in
  Alcotest.check_raises "arity"
    (Invalid_argument "Compose_qs: need one inner system per outer element") (fun () ->
      ignore (Compose_qs.compose outer [| Simple_qs.triangle () |]))

let prop_compose_intersects =
  QCheck.Test.make ~name:"compositions pairwise intersect" ~count:20
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let pick () =
        match Rng.int rng 3 with
        | 0 -> Simple_qs.triangle ()
        | 1 -> Simple_qs.star 3
        | _ -> Majority_qs.make ~n:3 ~t:2
      in
      let outer = pick () in
      let inners = Array.init (Quorum.universe outer) (fun _ -> pick ()) in
      Quorum.all_intersecting (Compose_qs.compose outer inners))

(* ------------------------------------------------------------------ *)
(* Strategy re-optimization                                            *)
(* ------------------------------------------------------------------ *)

let strategy_fixture seed =
  let rng = Rng.create seed in
  let n = 8 in
  let g, _ = Generators.random_geometric rng n 0.5 in
  let system = Grid_qs.make 2 in
  let strategy = Strategy.uniform system in
  (* Roomy capacities so many strategies are feasible. *)
  let problem =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make n 2.) ~system ~strategy ()
  in
  let placement = [| 0; 1; 2; 3 |] in
  (problem, placement)

let test_strategy_opt_improves () =
  let problem, placement = strategy_fixture 5 in
  match Strategy_opt.optimize problem placement with
  | None -> Alcotest.fail "feasible (roomy caps)"
  | Some r ->
      check_float "input objective = avg max delay" r.Strategy_opt.input_delay
        (Delay.avg_max_delay problem placement);
      Alcotest.(check bool) "no worse than input" true
        (r.Strategy_opt.delay <= r.Strategy_opt.input_delay +. 1e-9);
      Strategy.validate problem.Problem.system r.Strategy_opt.strategy;
      (* Re-evaluating the problem under the new strategy reproduces
         the LP objective. *)
      let problem' =
        Problem.make_qpp ~metric:problem.Problem.metric
          ~capacities:problem.Problem.capacities ~system:problem.Problem.system
          ~strategy:r.Strategy_opt.strategy ()
      in
      check_float "objective consistent" r.Strategy_opt.delay
        (Delay.avg_max_delay problem' placement);
      (* The optimized strategy respects capacities under f. *)
      Alcotest.(check bool) "respects caps" true
        (Placement.respects_capacities problem' placement)

let test_strategy_opt_concentrates_on_best_quorum () =
  (* With slack capacities the optimum is a point mass on the cheapest
     quorum. *)
  let problem, placement = strategy_fixture 9 in
  match Strategy_opt.optimize problem placement with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      let m = Quorum.n_quorums problem.Problem.system in
      let best = ref infinity in
      for qi = 0 to m - 1 do
        let w =
          let acc = ref 0. in
          for v = 0 to Problem.n_nodes problem - 1 do
            acc := !acc +. Delay.quorum_max_delay problem placement v qi
          done;
          !acc /. float_of_int (Problem.n_nodes problem)
        in
        if w < !best then best := w
      done;
      check_float "point mass on cheapest quorum" !best r.Strategy_opt.delay

let test_strategy_opt_capacity_binds () =
  (* Tight capacities force load spreading: the single-quorum point
     mass becomes infeasible, so the optimum mixes quorums. *)
  let rng = Rng.create 31 in
  let n = 8 in
  let g, _ = Generators.random_geometric rng n 0.5 in
  let system = Grid_qs.make 2 in
  let strategy = Strategy.uniform system in
  (* Grid 2x2: each element lies in 3 of the 4 quorums, so its load is
     1 - p(the one quorum avoiding it). Capacity 0.8 forces
     p(Q) >= 0.2 for every quorum - no point mass is feasible. *)
  let problem =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make n 0.8) ~system ~strategy ()
  in
  let placement = [| 0; 1; 2; 3 |] in
  match Strategy_opt.optimize problem placement with
  | None -> Alcotest.fail "uniform strategy is feasible (load 3/4 < 0.8 each)"
  | Some r ->
      let support =
        Array.fold_left (fun c x -> if x > 1e-9 then c + 1 else c) 0 r.Strategy_opt.strategy
      in
      Alcotest.(check bool) "mixes all quorums" true (support = 4);
      Array.iter
        (fun pq -> Alcotest.(check bool) "each >= 0.2" true (pq >= 0.2 -. 1e-6))
        r.Strategy_opt.strategy

let test_strategy_opt_infeasible () =
  (* Zero capacity everywhere: no distribution works. *)
  let rng = Rng.create 33 in
  let g, _ = Generators.random_geometric rng 6 0.6 in
  let system = Grid_qs.make 2 in
  let strategy = Strategy.uniform system in
  let problem =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make 6 0.) ~system ~strategy ()
  in
  Alcotest.(check bool) "infeasible" true
    (Strategy_opt.optimize problem [| 0; 1; 2; 3 |] = None)

let test_strategy_opt_total_delay () =
  let problem, placement = strategy_fixture 11 in
  match Strategy_opt.optimize ~objective:Strategy_opt.Total_delay problem placement with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      check_float "input = avg total delay" r.Strategy_opt.input_delay
        (Delay.avg_total_delay problem placement);
      Alcotest.(check bool) "no worse" true
        (r.Strategy_opt.delay <= r.Strategy_opt.input_delay +. 1e-9)

let prop_strategy_opt_never_worse =
  QCheck.Test.make ~name:"strategy re-optimization never increases delay" ~count:20
    QCheck.small_int (fun seed ->
      let problem, placement = strategy_fixture (seed + 100) in
      match Strategy_opt.optimize problem placement with
      | None -> false
      | Some r -> r.Strategy_opt.delay <= r.Strategy_opt.input_delay +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Graph properties + transit-stub                                     *)
(* ------------------------------------------------------------------ *)

let test_graph_props_path () =
  let m = Metric.of_graph (Generators.path 5) in
  check_float "radius" 2. (Graph_props.radius m);
  check_float "diameter" 4. (Graph_props.diameter m);
  Alcotest.(check int) "center" 2 (Graph_props.center m);
  Alcotest.(check int) "median" 2 (Graph_props.one_median m)

let test_graph_props_star () =
  let m = Metric.of_graph (Generators.star 7) in
  check_float "radius 1" 1. (Graph_props.radius m);
  check_float "diameter 2" 2. (Graph_props.diameter m);
  Alcotest.(check int) "center is hub" 0 (Graph_props.center m)

let test_transit_stub_shape () =
  let rng = Rng.create 3 in
  let g = Generators.transit_stub rng ~transits:4 ~stubs_per_transit:2 ~stub_size:3 in
  Alcotest.(check int) "node count" (4 * (1 + 6)) (Qp_graph.Graph.n_vertices g);
  Alcotest.(check bool) "connected" true (Qp_graph.Graph.is_connected g);
  (* Hierarchy shows in the metric: intra-stub distances are much
     smaller than cross-transit ones. *)
  let m = Metric.of_graph g in
  let intra = Metric.dist m 1 2 in
  let cross = Metric.dist m 1 (7 + 1) in
  Alcotest.(check bool) "locality" true (intra < cross)

let test_transit_stub_validation () =
  let rng = Rng.create 4 in
  Alcotest.check_raises "transits" (Invalid_argument "Generators.transit_stub: transits >= 3 required")
    (fun () -> ignore (Generators.transit_stub rng ~transits:2 ~stubs_per_transit:1 ~stub_size:2))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_compose_intersects; prop_strategy_opt_never_worse ]

let suites =
  [
    ( "quorum.compose",
      [
        Alcotest.test_case "counts" `Quick test_compose_counts;
        Alcotest.test_case "quorum sizes" `Quick test_compose_quorum_sizes;
        Alcotest.test_case "heterogeneous" `Quick test_compose_heterogeneous;
        Alcotest.test_case "offsets" `Quick test_compose_offsets;
        Alcotest.test_case "validation" `Quick test_compose_validation;
      ] );
    ( "place.strategy_opt",
      [
        Alcotest.test_case "improves over input" `Quick test_strategy_opt_improves;
        Alcotest.test_case "point mass when slack" `Quick test_strategy_opt_concentrates_on_best_quorum;
        Alcotest.test_case "capacity forces mixing" `Quick test_strategy_opt_capacity_binds;
        Alcotest.test_case "infeasible" `Quick test_strategy_opt_infeasible;
        Alcotest.test_case "total-delay objective" `Quick test_strategy_opt_total_delay;
      ] );
    ( "graph.props",
      [
        Alcotest.test_case "path" `Quick test_graph_props_path;
        Alcotest.test_case "star" `Quick test_graph_props_star;
        Alcotest.test_case "transit-stub shape" `Quick test_transit_stub_shape;
        Alcotest.test_case "transit-stub validation" `Quick test_transit_stub_validation;
      ] );
    ("extensions.properties", qcheck_tests);
  ]
