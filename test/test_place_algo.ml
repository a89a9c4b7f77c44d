open Qp_place
module Rng = Qp_util.Rng
module Metric = Qp_graph.Metric
module Generators = Qp_graph.Generators
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Simple_qs = Qp_quorum.Simple_qs
module Grid_qs = Qp_quorum.Grid_qs
module Majority_qs = Qp_quorum.Majority_qs
module Lp = Qp_lp.Lp
module Simplex = Qp_lp.Simplex
module Metrics = Qp_obs.Metrics

let check_float = Alcotest.(check (float 1e-6))

(* Random SSQPP with a uniform-load system and unit-regime capacities:
   the exact DP applies, so every algorithmic guarantee can be checked
   against the true optimum. *)
let random_uniform_ssqpp seed =
  let rng = Rng.create seed in
  let system, load =
    match Rng.int rng 2 with
    | 0 -> (Simple_qs.triangle (), 2. /. 3.)
    | _ -> (Grid_qs.make 2, Grid_qs.element_load 2)
  in
  let nu = Quorum.universe system in
  let n = nu + 2 + Rng.int rng 5 in
  let g, _ = Generators.random_geometric rng n 0.5 in
  let caps = Array.make n load in
  let strategy = Strategy.uniform system in
  let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
  Problem.ssqpp_of_qpp p (Rng.int rng n)

(* ------------------------------------------------------------------ *)
(* LP formulation                                                      *)
(* ------------------------------------------------------------------ *)

let test_lp_lower_bounds_exact () =
  for seed = 1 to 6 do
    let s = random_uniform_ssqpp seed in
    match (Lp_formulation.solve s, Exact.ssqpp_uniform_dp s) with
    | Some sol, Some (opt, _) ->
        Alcotest.(check bool) "Z* <= OPT" true
          (sol.Lp_formulation.z_star <= opt +. 1e-6)
    | _ -> Alcotest.fail "expected feasible"
  done

let test_lp_infeasible_detection () =
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  (* Two nodes for three unit-regime elements. *)
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 2)
      ~capacities:(Array.make 2 (2. /. 3.))
      ~system ~strategy ()
  in
  let s = Problem.ssqpp_of_qpp p 0 in
  Alcotest.(check bool) "infeasible" true (Lp_formulation.solve s = None)

let test_lp_zero_when_colocated () =
  (* One node with huge capacity at the source: LP value 0. *)
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 3) ~capacities:[| 10.; 0.; 0. |]
      ~system ~strategy ()
  in
  let s = Problem.ssqpp_of_qpp p 0 in
  match Lp_formulation.solve s with
  | None -> Alcotest.fail "feasible"
  | Some sol -> check_float "zero delay" 0. sol.Lp_formulation.z_star

let test_lp_ordering_fields () =
  let s = random_uniform_ssqpp 42 in
  match Lp_formulation.solve s with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      let n = Array.length sol.Lp_formulation.dist in
      (* dist is sorted ascending and rank/node arrays are inverse. *)
      for t = 0 to n - 2 do
        Alcotest.(check bool) "sorted" true
          (sol.Lp_formulation.dist.(t) <= sol.Lp_formulation.dist.(t + 1) +. 1e-12)
      done;
      for t = 0 to n - 1 do
        Alcotest.(check int) "inverse maps" t
          sol.Lp_formulation.rank_of_node.(sol.Lp_formulation.node_of_rank.(t))
      done

(* The rows and objective of [lp] copied into a fresh model, which
   carries no start. *)
let startless lp =
  let copy = Lp.with_objective (Lp.create (Lp.n_vars lp)) (Lp.objective lp) in
  List.iter
    (fun (r : Lp.constr) -> Lp.add_constraint copy r.Lp.terms r.Lp.cmp r.Lp.rhs)
    (Lp.constraints lp);
  copy

let counter reg ?labels name = Metrics.counter_value (Metrics.counter ?labels reg name)
let starts reg outcome = counter reg ~labels:[ ("outcome", outcome) ] "qp_simplex_start_total"

(* Two ranks of capacity 1.05 and element loads 0.8/0.7/0.5: no two
   elements fit on one node, so first-fit (indeed every integral
   assignment) fails, yet the loads fit fractionally. The LP carries
   no start and runs phase 1 exactly as its start-less copy does. *)
let test_lp_no_first_fit () =
  let system = Simple_qs.triangle () in
  let strategy = Strategy.of_weights system [| 0.5; 0.3; 0.2 |] in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 2) ~capacities:[| 1.05; 1.05 |] ~system
      ~strategy ()
  in
  let s = Problem.ssqpp_of_qpp p 0 in
  let lp, _, _ = Lp_formulation.build s in
  Alcotest.(check bool) "no start" true (Lp.start lp = None);
  let reg = Metrics.create ~enabled:true () and copy_reg = Metrics.create ~enabled:true () in
  let sol = Metrics.with_current reg (fun () -> Lp_formulation.solve s) in
  let copy = Metrics.with_current copy_reg (fun () -> Simplex.solve (startless lp)) in
  List.iter
    (fun (outcome, expected) ->
      Alcotest.(check (float 0.)) outcome expected (starts reg outcome))
    [ ("taken", 0.); ("refused", 0.); ("no_first_fit", 1.) ];
  let pivots reg = counter reg "qp_simplex_pivots_total" in
  Alcotest.(check bool) "phase 1 ran" true (pivots reg > 0.);
  Alcotest.(check (float 0.)) "pivots as start-less" (pivots copy_reg) (pivots reg);
  match (sol, copy) with
  | Some sol, Simplex.Optimal { objective; _ } ->
      Alcotest.(check (float 0.)) "z* as start-less" objective sol.Lp_formulation.z_star
  | _ -> Alcotest.fail "fractionally feasible"

(* [Resolve] after the busiest node dies: neither candidate's warm
   basis crashes feasibly any more, so both fall back to their LP's
   start and solve exactly as a cold solve does. *)
let test_resolve_falls_back_to_start () =
  let p =
    Result.get_ok
      (Qp_instance.Spec.build
         { Qp_instance.Spec.default with Qp_instance.Spec.nodes = 10; cap_slack = 1.6 })
  in
  let candidates = [ 0; 5 ] in
  let resolve = Resolve.create ~candidates () in
  let first = Option.get (Resolve.solve resolve p) in
  let loads = Placement.node_loads p first.Qpp_solver.placement in
  let busiest = ref 0 in
  Array.iteri (fun v l -> if l > loads.(!busiest) then busiest := v) loads;
  let caps = Array.copy p.Problem.capacities in
  caps.(!busiest) <- 0.;
  let dead = { p with Problem.capacities = caps } in
  let reg = Metrics.create ~enabled:true () in
  let warm = Metrics.with_current reg (fun () -> Option.get (Resolve.solve resolve dead)) in
  let cold = Option.get (Qpp_solver.solve ~candidates dead) in
  Alcotest.(check (float 0.)) "both candidates tried warm" 2.
    (counter reg "qp_simplex_warm_attempts_total");
  Alcotest.(check (float 0.)) "both warm crashes failed" 0.
    (counter reg "qp_simplex_warm_used_total");
  Alcotest.(check (float 0.)) "both took the start" 2. (starts reg "taken");
  Alcotest.(check (float 0.)) "no start refused" 0. (starts reg "refused");
  Alcotest.(check bool) "same placement as cold" true
    (warm.Qpp_solver.placement = cold.Qpp_solver.placement);
  Alcotest.(check (float 0.)) "same z* as cold" cold.Qpp_solver.ssqpp.Rounding.z_star
    warm.Qpp_solver.ssqpp.Rounding.z_star

(* ------------------------------------------------------------------ *)
(* Filtering                                                           *)
(* ------------------------------------------------------------------ *)

let test_filtering_invariants () =
  List.iter
    (fun alpha ->
      for seed = 1 to 4 do
        let s = random_uniform_ssqpp (100 + seed) in
        match Lp_formulation.solve s with
        | None -> Alcotest.fail "feasible"
        | Some sol ->
            let flt = Filtering.apply ~alpha sol in
            Alcotest.(check bool) "invariants hold" true (Filtering.check_invariants flt)
      done)
    [ 1.5; 2.; 3.; 4. ]

let test_filtering_rejects_alpha () =
  let s = random_uniform_ssqpp 7 in
  match Lp_formulation.solve s with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      Alcotest.check_raises "alpha must exceed 1"
        (Invalid_argument "Filtering.apply: finite alpha > 1 required") (fun () ->
          ignore (Filtering.apply ~alpha:1. sol))

(* ------------------------------------------------------------------ *)
(* Rounding (Theorem 3.7)                                              *)
(* ------------------------------------------------------------------ *)

let check_thm37 s alpha =
  match Rounding.solve ~alpha s with
  | None -> Alcotest.fail "expected feasible LP"
  | Some r ->
      Alcotest.(check bool) "delay within alpha/(alpha-1) * Z*" true
        (r.Rounding.delay <= r.Rounding.delay_bound +. 1e-6);
      Alcotest.(check bool) "load within alpha+1" true
        (r.Rounding.load_violation <= r.Rounding.load_bound +. 1e-6);
      (* The delay bound also certifies against the true optimum. *)
      (match Exact.ssqpp_uniform_dp s with
      | Some (opt, _) ->
          Alcotest.(check bool) "delay within bound * OPT" true
            (r.Rounding.delay <= (alpha /. (alpha -. 1.) *. opt) +. 1e-6)
      | None -> Alcotest.fail "expected feasible DP")

let test_rounding_thm37_alpha2 () =
  for seed = 1 to 6 do
    check_thm37 (random_uniform_ssqpp (200 + seed)) 2.
  done

let test_rounding_thm37_alpha_sweep () =
  List.iter (fun alpha -> check_thm37 (random_uniform_ssqpp 300) alpha) [ 1.25; 1.5; 3.; 5. ]

let test_rounding_heterogeneous_loads () =
  (* Star system: hub load 1, leaf loads 1/(n-1). Node capacities must
     leave room for the hub somewhere. *)
  let system = Simple_qs.star 4 in
  let strategy = Strategy.uniform system in
  let rng = Rng.create 9 in
  let g, _ = Generators.random_geometric rng 8 0.5 in
  let caps = Array.init 8 (fun v -> if v < 2 then 1.2 else 0.5) in
  let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
  let s = Problem.ssqpp_of_qpp p 3 in
  match Rounding.solve ~alpha:2. s with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      Alcotest.(check bool) "delay bound" true
        (r.Rounding.delay <= r.Rounding.delay_bound +. 1e-6);
      Alcotest.(check bool) "load bound" true
        (r.Rounding.load_violation <= 3. +. 1e-6)

let test_rounding_infeasible () =
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 2)
      ~capacities:(Array.make 2 (2. /. 3.))
      ~system ~strategy ()
  in
  Alcotest.(check bool) "None" true (Rounding.solve (Problem.ssqpp_of_qpp p 0) = None)

(* ------------------------------------------------------------------ *)
(* Grid layout (Theorem B.1)                                           *)
(* ------------------------------------------------------------------ *)

let grid_ssqpp ~k ~n ~seed =
  let rng = Rng.create seed in
  let g, _ = Generators.random_geometric rng n 0.5 in
  let system = Grid_qs.make k in
  let strategy = Strategy.uniform system in
  let caps = Array.make n (Grid_qs.element_load k) in
  let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
  Problem.ssqpp_of_qpp p 0

let test_grid_rank_pattern () =
  (* k = 3 concentric pattern (1-based ranks):
       1 2 5
       3 4 6
       7 8 9 *)
  let expected = [| [| 1; 2; 5 |]; [| 3; 4; 6 |]; [| 7; 8; 9 |] |] in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check int) "rank" expected.(i).(j) (Grid_layout.rank_of_cell 3 i j)
    done
  done

let test_grid_layout_equals_dp () =
  for seed = 1 to 5 do
    let s = grid_ssqpp ~k:2 ~n:(6 + seed) ~seed:(400 + seed) in
    match (Grid_layout.place s, Exact.ssqpp_uniform_dp s) with
    | Some layout, Some (opt, _) ->
        Alcotest.(check bool) "concentric layout optimal" true
          (Float.abs (layout.Grid_layout.delay -. opt) < 1e-9)
    | _ -> Alcotest.fail "expected feasible"
  done

let test_grid_layout_equals_dp_k3 () =
  let s = grid_ssqpp ~k:3 ~n:12 ~seed:999 in
  match (Grid_layout.place s, Exact.ssqpp_uniform_dp s) with
  | Some layout, Some (opt, _) ->
      Alcotest.(check bool) "k=3 optimal" true
        (Float.abs (layout.Grid_layout.delay -. opt) < 1e-9)
  | _ -> Alcotest.fail "expected feasible"

let test_grid_layout_equals_dp_k4 () =
  (* |U| = 16: the largest size the subset DP covers comfortably. *)
  let s = grid_ssqpp ~k:4 ~n:20 ~seed:1001 in
  match (Grid_layout.place s, Exact.ssqpp_uniform_dp s) with
  | Some layout, Some (opt, _) ->
      Alcotest.(check bool) "k=4 optimal" true
        (Float.abs (layout.Grid_layout.delay -. opt) < 1e-9)
  | _ -> Alcotest.fail "expected feasible"

let test_grid_layout_predicted_matches () =
  let s = grid_ssqpp ~k:3 ~n:11 ~seed:123 in
  match Grid_layout.place s with
  | None -> Alcotest.fail "feasible"
  | Some layout ->
      (* Reconstruct tau (descending distances of the 9 nearest). *)
      let order = Metric.nodes_by_distance s.Problem.metric s.Problem.v0 in
      let nearest = Array.sub order 0 9 in
      let tau = Array.map (fun v -> Metric.dist s.Problem.metric s.Problem.v0 v) nearest in
      Array.sort (fun a b -> compare b a) tau;
      check_float "closed form = evaluation" (Grid_layout.predicted_delay tau 3)
        layout.Grid_layout.delay

let test_grid_layout_rejects_non_grid () =
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 4) ~capacities:(Array.make 4 1.)
      ~system ~strategy ()
  in
  Alcotest.check_raises "not a grid" (Invalid_argument "Grid_layout: system is not a k x k grid")
    (fun () -> ignore (Grid_layout.place (Problem.ssqpp_of_qpp p 0)))

let test_grid_layout_with_expansion () =
  (* Nodes with capacity for several elements. *)
  let rng = Rng.create 31 in
  let g, _ = Generators.random_geometric rng 6 0.5 in
  let k = 2 in
  let system = Grid_qs.make k in
  let strategy = Strategy.uniform system in
  let load = Grid_qs.element_load k in
  let caps = Array.init 6 (fun v -> if v mod 2 = 0 then 2.5 *. load else 0.2 *. load) in
  let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
  let s = Problem.ssqpp_of_qpp p 0 in
  match Grid_layout.place_with_expansion s with
  | None -> Alcotest.fail "expected enough copies"
  | Some (_, projected) ->
      Alcotest.(check bool) "projection respects capacities" true
        (Placement.respects_capacities p projected)

(* ------------------------------------------------------------------ *)
(* Majority (Eq. 19)                                                   *)
(* ------------------------------------------------------------------ *)

let majority_ssqpp ~n ~t ~nodes ~seed =
  let rng = Rng.create seed in
  let g, _ = Generators.random_geometric rng nodes 0.5 in
  let system = Majority_qs.make ~n ~t in
  let strategy = Strategy.uniform system in
  let load = float_of_int t /. float_of_int n in
  let caps = Array.make nodes load in
  let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
  Problem.ssqpp_of_qpp p 0

let test_majority_closed_form_matches_direct () =
  let s = majority_ssqpp ~n:5 ~t:3 ~nodes:8 ~seed:500 in
  match Majority_layout.place s with
  | None -> Alcotest.fail "feasible"
  | Some (predicted, f) ->
      check_float "Eq.19 = direct evaluation" predicted (Delay.ssqpp_delay s f)

let test_majority_placement_invariance () =
  (* Any permutation of elements over the same nodes: same delay. *)
  let s = majority_ssqpp ~n:5 ~t:3 ~nodes:7 ~seed:501 in
  match Majority_layout.place s with
  | None -> Alcotest.fail "feasible"
  | Some (predicted, f) ->
      let rng = Rng.create 1 in
      for _ = 1 to 10 do
        let perm = Rng.permutation rng 5 in
        let g = Array.init 5 (fun u -> f.(perm.(u))) in
        check_float "permutation invariant" predicted (Delay.ssqpp_delay s g)
      done

let test_majority_matches_dp () =
  let s = majority_ssqpp ~n:5 ~t:3 ~nodes:8 ~seed:502 in
  match (Majority_layout.place s, Exact.ssqpp_uniform_dp s) with
  | Some (predicted, _), Some (opt, _) ->
      check_float "closed form optimal" predicted opt
  | _ -> Alcotest.fail "expected feasible"

let test_majority_threshold_recovery () =
  let system = Majority_qs.make ~n:6 ~t:4 in
  Alcotest.(check int) "t" 4 (Majority_layout.threshold_of_system system);
  Alcotest.check_raises "not threshold"
    (Invalid_argument "Majority_layout: quorums are not all the same size") (fun () ->
      ignore (Majority_layout.threshold_of_system (Simple_qs.wheel 5)))

(* ------------------------------------------------------------------ *)
(* Total delay (Theorem 5.1)                                           *)
(* ------------------------------------------------------------------ *)

let test_total_delay_thm51 () =
  for seed = 1 to 6 do
    let rng = Rng.create (600 + seed) in
    let n = 7 + Rng.int rng 4 in
    let g, _ = Generators.random_geometric rng n 0.5 in
    let system = Simple_qs.triangle () in
    let strategy = Strategy.uniform system in
    let caps = Array.make n (2. /. 3.) in
    let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
    match Total_delay.solve p with
    | None -> Alcotest.fail "feasible"
    | Some r ->
        Alcotest.(check bool) "load within 2x" true (r.Total_delay.load_violation <= 2. +. 1e-6);
        Alcotest.(check bool) "cost equals GAP objective" true
          (Float.abs (r.Total_delay.cost -. r.Total_delay.lp_cost) < 1e-6
          || r.Total_delay.cost >= r.Total_delay.lp_cost -. 1e-6);
        (* Theorem 5.1: cost <= capacity-respecting optimum. *)
        (match Exact.total_delay_brute_force p with
        | Some (opt, _) ->
            Alcotest.(check bool) "cost <= OPT" true (r.Total_delay.cost <= opt +. 1e-6)
        | None -> Alcotest.fail "brute force feasible")
  done

let test_total_delay_exact_uniform () =
  for seed = 1 to 5 do
    let rng = Rng.create (700 + seed) in
    let n = 6 + Rng.int rng 3 in
    let g, _ = Generators.random_geometric rng n 0.5 in
    let system = Simple_qs.triangle () in
    let strategy = Strategy.uniform system in
    let caps = Array.make n (2. /. 3.) in
    let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
    match (Total_delay.exact_uniform p, Exact.total_delay_brute_force p) with
    | Some (greedy, f), Some (bf, _) ->
        Alcotest.(check bool) "greedy fill optimal" true (Float.abs (greedy -. bf) < 1e-9);
        Alcotest.(check bool) "feasible" true (Placement.respects_capacities p f)
    | _ -> Alcotest.fail "expected feasible"
  done

let test_total_delay_separability () =
  (* Avg Gamma = sum_u load(u) * AvgDist(f(u)). *)
  let p, _ =
    let rng = Rng.create 800 in
    let g, _ = Generators.random_geometric rng 7 0.5 in
    let system = Simple_qs.star 4 in
    let strategy = Strategy.uniform system in
    ( Problem.of_graph_qpp ~graph:g ~capacities:(Array.make 7 2.) ~system ~strategy (),
      () )
  in
  let f = [| 1; 3; 0; 5 |] in
  let loads = Problem.element_loads p in
  let expected =
    Array.to_list (Array.mapi (fun u v -> loads.(u) *. Problem.avg_dist p v) f)
    |> List.fold_left ( +. ) 0.
  in
  check_float "separable form" expected (Delay.avg_total_delay p f)

(* ------------------------------------------------------------------ *)
(* QPP solver (Theorem 1.2)                                            *)
(* ------------------------------------------------------------------ *)

let test_qpp_solver_guarantees () =
  for seed = 1 to 4 do
    let rng = Rng.create (900 + seed) in
    let n = 6 + Rng.int rng 2 in
    let g, _ = Generators.random_geometric rng n 0.5 in
    let system = Simple_qs.triangle () in
    let strategy = Strategy.uniform system in
    let caps = Array.make n (2. /. 3.) in
    let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
    match Qpp_solver.solve ~alpha:2. p with
    | None -> Alcotest.fail "feasible"
    | Some r ->
        Alcotest.(check bool) "load within alpha+1" true (r.Qpp_solver.load_violation <= 3. +. 1e-6);
        check_float "bound constant" 10. r.Qpp_solver.approx_bound;
        (* Against the exhaustive optimum. *)
        (match Exact.qpp_brute_force p with
        | Some (opt, _) ->
            Alcotest.(check bool) "within 10x OPT" true
              (r.Qpp_solver.objective <= (10. *. opt) +. 1e-6);
            (match r.Qpp_solver.lower_bound with
            | Some lb ->
                Alcotest.(check bool) "lower bound valid" true (lb <= opt +. 1e-6)
            | None -> Alcotest.fail "expected lower bound")
        | None -> Alcotest.fail "brute force feasible");
        Alcotest.(check bool) "direct <= relayed" true
          (r.Qpp_solver.objective <= r.Qpp_solver.relayed_objective +. 1e-9)
  done

let test_qpp_solver_with_client_rates () =
  (* The Section 6 extension: rate-weighted objective. The guarantee
     chain (Lemma 3.1 generalizes per the paper) must hold against the
     rate-weighted exhaustive optimum. *)
  for seed = 1 to 3 do
    let rng = Rng.create (9600 + seed) in
    let n = 6 in
    let g, _ = Generators.random_geometric rng n 0.55 in
    let system = Simple_qs.triangle () in
    let strategy = Strategy.uniform system in
    let rates = Array.init n (fun _ -> 0.2 +. Rng.float rng 3.) in
    let p =
      Problem.of_graph_qpp ~graph:g ~capacities:(Array.make n (2. /. 3.)) ~system
        ~strategy ~client_rates:rates ()
    in
    match Qpp_solver.solve ~alpha:2. p with
    | None -> Alcotest.fail "feasible"
    | Some r -> (
        Alcotest.(check bool) "load bound" true (r.Qpp_solver.load_violation <= 3. +. 1e-6);
        match Exact.qpp_brute_force p with
        | Some (opt, _) ->
            Alcotest.(check bool) "within 10x weighted OPT" true
              (r.Qpp_solver.objective <= (10. *. opt) +. 1e-6);
            (match r.Qpp_solver.lower_bound with
            | Some lb -> Alcotest.(check bool) "weighted LB valid" true (lb <= opt +. 1e-6)
            | None -> Alcotest.fail "expected lower bound")
        | None -> Alcotest.fail "brute force feasible")
  done

let test_qpp_solver_candidate_subset () =
  let rng = Rng.create 950 in
  let g, _ = Generators.random_geometric rng 7 0.5 in
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let p =
    Problem.of_graph_qpp ~graph:g ~capacities:(Array.make 7 (2. /. 3.)) ~system ~strategy ()
  in
  match Qpp_solver.solve ~alpha:2. ~candidates:[ 0; 3 ] p with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      Alcotest.(check bool) "no lower bound on subset" true (r.Qpp_solver.lower_bound = None);
      Alcotest.(check bool) "v0 from subset" true (r.Qpp_solver.v0 = 0 || r.Qpp_solver.v0 = 3)

(* ------------------------------------------------------------------ *)
(* Integrality gap (Claim A.1)                                         *)
(* ------------------------------------------------------------------ *)

let test_integrality_path () =
  let n = 8 and m = 100. in
  let s = Integrality.path_instance ~n ~m in
  let r = Integrality.measure s in
  check_float "integral = M" m r.Integrality.integral_opt;
  (* LP value <= (n-2 + M)/n (the uniform spread is feasible). *)
  Alcotest.(check bool) "LP small" true
    (r.Integrality.lp_value <= ((float_of_int (n - 2) +. m) /. float_of_int n) +. 1e-6);
  Alcotest.(check bool) "gap large" true (r.Integrality.gap >= float_of_int n /. 2.)

let test_integrality_figure1 () =
  let k = 4 in
  let s = Integrality.figure1_instance k in
  let r = Integrality.measure s in
  check_float "integral = k" (float_of_int k) r.Integrality.integral_opt;
  (* LP is at most ~1.5 + o(1) on this family. *)
  Alcotest.(check bool) "LP below 2" true (r.Integrality.lp_value <= 2.);
  Alcotest.(check bool) "gap grows with k" true (r.Integrality.gap >= float_of_int k /. 2.)

let test_integrality_rejects_multi_quorum () =
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 4) ~capacities:(Array.make 4 1.)
      ~system ~strategy ()
  in
  Alcotest.check_raises "single quorum only"
    (Invalid_argument "Integrality.measure: single-quorum instances only") (fun () ->
      ignore (Integrality.measure (Problem.ssqpp_of_qpp p 0)))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_thm37_random =
  QCheck.Test.make ~name:"Theorem 3.7 guarantees (random instances)" ~count:15
    QCheck.small_int (fun seed ->
      let s = random_uniform_ssqpp (5000 + seed) in
      match Rounding.solve ~alpha:2. s with
      | None -> false
      | Some r ->
          r.Rounding.delay <= r.Rounding.delay_bound +. 1e-6
          && r.Rounding.load_violation <= 3. +. 1e-6)

let prop_grid_concentric_optimal =
  QCheck.Test.make ~name:"Theorem B.1: concentric layout optimal (k=2)" ~count:10
    QCheck.small_int (fun seed ->
      let s = grid_ssqpp ~k:2 ~n:(6 + (seed mod 4)) ~seed:(6000 + seed) in
      match (Grid_layout.place s, Exact.ssqpp_uniform_dp s) with
      | Some layout, Some (opt, _) -> Float.abs (layout.Grid_layout.delay -. opt) < 1e-9
      | _ -> false)

let prop_majority_any_placement_same_delay =
  QCheck.Test.make ~name:"Eq. 19: all placements on same nodes equal" ~count:10
    QCheck.small_int (fun seed ->
      let s = majority_ssqpp ~n:5 ~t:3 ~nodes:7 ~seed:(7000 + seed) in
      match Majority_layout.place s with
      | None -> false
      | Some (predicted, f) ->
          let rng = Rng.create seed in
          let perm = Rng.permutation rng 5 in
          let g = Array.init 5 (fun u -> f.(perm.(u))) in
          Float.abs (Delay.ssqpp_delay s g -. predicted) < 1e-9)

(* Scaling every distance by a positive factor must scale Z*, the
   rounded delay, and the exact optimum by exactly that factor (the
   algorithms are combinatorial in the ranks, which scaling
   preserves). Guards against hidden absolute-epsilon dependencies. *)
let prop_scale_invariance =
  QCheck.Test.make ~name:"solver pipeline is scale-invariant" ~count:8
    QCheck.(pair small_int (float_range 3. 1000.))
    (fun (seed, factor) ->
      let s = random_uniform_ssqpp (8000 + seed) in
      let scaled =
        Problem.make_ssqpp
          ~metric:(Metric.scale s.Problem.metric factor)
          ~capacities:s.Problem.capacities ~system:s.Problem.system
          ~strategy:s.Problem.strategy ~v0:s.Problem.v0
      in
      match (Rounding.solve ~alpha:2. s, Rounding.solve ~alpha:2. scaled) with
      | Some a, Some b ->
          let close x y =
            Float.abs ((factor *. x) -. y) <= 1e-6 *. Float.max 1. (Float.abs y)
          in
          close a.Rounding.z_star b.Rounding.z_star
          && close a.Rounding.delay b.Rounding.delay
      | _ -> false)

(* Random placement instances for the LP start: dead nodes
   (capacity 0), random strategies, and on odd seeds the complete
   graph with nodes 2i and 2i+1 at one capacity, so candidates share
   non-uniform constraint blocks. *)
let start_qpp seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 5 in
  let g =
    if seed mod 2 = 0 then fst (Generators.random_geometric rng n 0.5)
    else Generators.complete n
  in
  let system =
    match Rng.int rng 4 with
    | 0 -> Simple_qs.triangle ()
    | 1 -> Grid_qs.make 2
    | 2 -> Simple_qs.wheel 4
    | _ -> Majority_qs.make ~n:5 ~t:3
  in
  let strategy =
    if Rng.int rng 2 = 0 then Strategy.uniform system
    else
      Strategy.of_weights system
        (Array.init (Quorum.n_quorums system) (fun _ -> 0.1 +. Rng.float rng 1.))
  in
  let max_load = Array.fold_left Float.max 0. (Strategy.loads system strategy) in
  let factors = [| 0.; 0.5; 1.; 1.5; 2.5 |] in
  let draws = Array.init n (fun _ -> Rng.int rng 5) in
  let caps =
    Array.init n (fun v -> max_load *. factors.(draws.(if seed mod 2 = 0 then v else v / 2)))
  in
  Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy ()

(* Every candidate's LP, solved from its start, agrees with the same
   rows in a start-less model: the same verdict, z* to 1e-9 relative,
   and a certificate that checks on both. The start is taken whenever
   first-fit found one, also through the shared blocks of
   [Qpp_solver.solve]. *)
let prop_start_matches_startless =
  QCheck.Test.make ~name:"LP with its start = start-less LP (dead nodes, shared blocks)"
    ~count:40 QCheck.small_int (fun seed ->
      let p = start_qpp seed in
      let n = Problem.n_nodes p in
      let lps =
        List.init n (fun v0 ->
            let lp, _, _ = Lp_formulation.build (Problem.ssqpp_of_qpp p v0) in
            lp)
      in
      let agrees lp =
        let reg = Metrics.create ~enabled:true () in
        let a = Metrics.with_current reg (fun () -> Simplex.solve_certified lp) in
        let b = Simplex.solve_certified (startless lp) in
        let has_start = Lp.start lp <> None in
        starts reg "taken" = (if has_start then 1. else 0.)
        && starts reg "refused" = 0.
        &&
        match (a, b) with
        | Simplex.C_infeasible, Simplex.C_infeasible -> true
        | Simplex.Certified ca, Simplex.Certified cb ->
            Float.abs (ca.Simplex.objective -. cb.Simplex.objective)
            <= 1e-9 *. Float.max 1. (Float.abs cb.Simplex.objective)
            && Simplex.check_certificate lp ca
            && Simplex.check_certificate lp cb
        | _ -> false
      in
      let with_start = List.length (List.filter (fun lp -> Lp.start lp <> None) lps) in
      let reg = Metrics.create ~enabled:true () in
      let (_ : Qpp_solver.result option) =
        Metrics.with_current reg (fun () -> Qpp_solver.solve p)
      in
      List.for_all agrees lps
      && starts reg "taken" = float_of_int with_start
      && starts reg "refused" = 0.
      && starts reg "no_first_fit" = float_of_int (n - with_start)
      && (seed mod 2 = 0
         || Lp_formulation.(n_blocks (blocks p (List.init n Fun.id))) > 0))

(* Seeded waxman placement instances (grid:2 or majority:5:3). On
   seeds 2 and 3 mod 4 one node's capacity is halved, so the
   candidates rank the capacities in several ways, and those that
   rank them alike share a non-uniform block. *)
let prepared_qpp seed =
  let rng = Rng.create (seed + 900) in
  let spec =
    {
      Qp_instance.Spec.default with
      Qp_instance.Spec.topology = "waxman";
      nodes = 6 + Rng.int rng 4;
      system = (if seed mod 2 = 0 then "grid:2" else "majority:5:3");
      cap_slack = 1. +. Rng.float rng 1.;
      seed = 1 + Rng.int rng 100_000;
    }
  in
  let p = Result.get_ok (Qp_instance.Spec.build spec) in
  if seed mod 4 < 2 then p
  else begin
    let caps = Array.copy p.Problem.capacities in
    let v = Rng.int rng (Array.length caps) in
    caps.(v) <- caps.(v) /. 2.;
    { p with Problem.capacities = caps }
  end

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* [shared], solved from [prepared] (whose crash made [crash] pivots),
   and [own], solved from its own build and crash, give the same bits:
   x, objective, duals, final basis, and the same pivots once the
   shared crash is added back. *)
let same_solve ~prepared ~crash shared own =
  let reg_shared = Metrics.create ~enabled:true () and reg_own = Metrics.create ~enabled:true () in
  let a = Metrics.with_current reg_shared (fun () -> Simplex.solve_certified ~prepared shared) in
  let b = Metrics.with_current reg_own (fun () -> Simplex.solve_certified own) in
  let pivots reg = counter reg "qp_simplex_pivots_total" in
  pivots reg_shared +. crash = pivots reg_own
  && snd (Simplex.solve_warm ~prepared shared) = snd (Simplex.solve_warm own)
  &&
  match (a, b) with
  | Simplex.Certified a, Simplex.Certified b ->
      same_bits a.Simplex.x b.Simplex.x
      && same_bits [| a.Simplex.objective |] [| b.Simplex.objective |]
      && same_bits a.Simplex.duals b.Simplex.duals
  | Simplex.C_infeasible, Simplex.C_infeasible -> true
  | _ -> false

(* Every candidate LP solved from the prepared start of its block (the
   rows it shares with the other candidates that build the same rows
   and start) gives the bits of solving it from its own build and
   crash, one LP after the other on the same solver buffers. So does
   candidate 0 under a start that crashes x_{0,Q} of quorum 0 alone,
   which is refused (a (14) slack goes negative) and runs phase 1. *)
let prop_prepared_start_same_bits =
  QCheck.Test.make ~name:"LP from its block's prepared start = from its own build and crash"
    ~count:30 QCheck.small_int (fun seed ->
      let p = prepared_qpp seed in
      let n = Problem.n_nodes p in
      let build v0 =
        let lp, _, var_quorum = Lp_formulation.build (Problem.ssqpp_of_qpp p v0) in
        (lp, var_quorum)
      in
      let lps = List.init n (fun v0 -> fst (build v0)) in
      let key lp = (Lp.constraints lp, Lp.start lp) in
      let groups =
        List.fold_left
          (fun groups lp ->
            match List.partition (fun g -> key (List.hd g) = key lp) groups with
            | [ g ], rest -> (g @ [ lp ]) :: rest
            | _ -> [ lp ] :: groups)
          [] lps
      in
      let from_block block members =
        let reg = Metrics.create ~enabled:true () in
        let prepared = Metrics.with_current reg (fun () -> Simplex.prepare block) in
        let crash = counter reg "qp_simplex_pivots_total" in
        List.for_all
          (fun (shared, own) -> same_solve ~prepared ~crash shared own)
          (List.map (fun lp -> (Lp.with_objective block (Lp.objective lp), lp)) members)
      in
      let zero lp = Lp.with_objective lp (Array.make (Lp.n_vars lp) 0.) in
      let refused () =
        let lp, var_quorum = build 0 in
        Lp.set_start lp [| var_quorum 0 0 |];
        lp
      in
      let refused_block = zero (refused ()) in
      let reg = Metrics.create ~enabled:true () in
      let (_ : Simplex.certified_outcome) =
        Metrics.with_current reg (fun () -> Simplex.solve_certified (refused ()))
      in
      (seed mod 4 >= 2 || List.length groups = 1)
      && starts reg "refused" = 1.
      && List.for_all (fun g -> from_block (zero (List.hd g)) g) groups
      && List.for_all
           (fun own ->
             from_block refused_block [ own ]
             && same_solve
                  ~prepared:(Simplex.prepare refused_block) ~crash:0.
                  (Lp.with_objective refused_block (Lp.objective own))
                  own)
           [ refused () ])

(* The triangle on two ranks of capacity [cap] (just above 1), element
   loads 0.8/0.7/0.5: no first-fit start, so phase 1 runs; both
   candidates share one block. *)
let no_first_fit_qpp cap =
  let system = Simple_qs.triangle () in
  Problem.of_graph_qpp ~graph:(Generators.path 2) ~capacities:[| cap; cap |] ~system
    ~strategy:(Strategy.of_weights system [| 0.5; 0.3; 0.2 |])
    ()

(* Everything a cold solve of [p] and a re-solve after node 0 dies,
   warm from the first solve's bases, return or count: per step v0,
   placement, the bits of objective, z* and lower bound, and the bases,
   then every qp_simplex_* series. *)
let solve_record (p : Problem.qpp) =
  let reg = Metrics.create ~enabled:true () in
  let outcome (r, bases) =
    ( Option.map
        (fun r ->
          let bits = Int64.bits_of_float in
          ( r.Qpp_solver.v0,
            r.Qpp_solver.placement,
            List.map bits [ r.Qpp_solver.objective; r.Qpp_solver.ssqpp.Rounding.z_star ],
            Option.map bits r.Qpp_solver.lower_bound ))
        r,
      bases )
  in
  let caps = Array.copy p.Problem.capacities in
  caps.(0) <- 0.;
  let steps =
    Metrics.with_current reg (fun () ->
        let first = Qpp_solver.solve_warm ~alpha:2. ~warm:(fun _ -> None) p in
        let warm v0 = List.assoc_opt v0 (snd first) in
        let second =
          Qpp_solver.solve_warm ~alpha:2. ~warm { p with Problem.capacities = caps }
        in
        [ outcome first; outcome second ])
  in
  let simplex (key, _) = String.starts_with ~prefix:"qp_simplex_" key in
  (steps, List.filter simplex (Metrics.scalar_series reg))

(* What earlier solves leave in the process-wide block cache changes no
   later solve. The instances: a seeded waxman instance, uniform or
   with one node's capacity halved (shared and own blocks); the same
   under another strategy, whose blocks differ from its only in their
   loads; one with no first-fit start. At pool widths 1 and 3, each is
   solved into an empty cache and then again with its blocks cached;
   they are solved one after the other into one cache; and the first is
   solved once more after other blocks have evicted its own. Every
   record is the first one's. *)
let prop_block_cache_changes_nothing =
  QCheck.Test.make ~name:"earlier solves and the LP block cache change nothing" ~count:10
    QCheck.small_int (fun seed ->
      let p = prepared_qpp seed in
      let nq = Quorum.n_quorums p.Problem.system in
      let weights = Array.init nq (fun q -> 1. +. (0.1 *. float_of_int (q mod 2))) in
      let instances =
        [ p; { p with Problem.strategy = Strategy.of_weights p.Problem.system weights };
          no_first_fit_qpp 1.05 ]
      in
      let hits () = fst (Lp_formulation.block_cache_stats ()) in
      let at_width jobs =
        Qp_par.Pool.set_default_jobs jobs;
        Fun.protect ~finally:(fun () -> Qp_par.Pool.set_default_jobs 1) @@ fun () ->
        let cold =
          List.map
            (fun p ->
              Lp_formulation.reset_block_cache ();
              solve_record p)
            instances
        in
        let again =
          List.map
            (fun p ->
              Lp_formulation.reset_block_cache ();
              ignore (solve_record p);
              let hits_before = hits () in
              let record = solve_record p in
              (record, hits () > hits_before))
            instances
        in
        Lp_formulation.reset_block_cache ();
        let in_turn = List.map solve_record instances in
        for k = 1 to Lp_formulation.block_cache_capacity do
          ignore (Qpp_solver.solve (no_first_fit_qpp (1.05 +. (0.01 *. float_of_int k))))
        done;
        let hits_before = hits () in
        let evicted = solve_record p in
        List.exists snd again
        && List.map fst again = cold
        && in_turn = cold && evicted = List.hd cold
        && hits () = hits_before
      in
      at_width 1 && at_width 3)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_thm37_random; prop_grid_concentric_optimal;
      prop_majority_any_placement_same_delay; prop_scale_invariance;
      prop_start_matches_startless; prop_prepared_start_same_bits;
      prop_block_cache_changes_nothing;
    ]

let suites =
  [
    ( "place.lp",
      [
        Alcotest.test_case "Z* lower-bounds OPT" `Quick test_lp_lower_bounds_exact;
        Alcotest.test_case "infeasible detection" `Quick test_lp_infeasible_detection;
        Alcotest.test_case "zero when colocated" `Quick test_lp_zero_when_colocated;
        Alcotest.test_case "ordering fields" `Quick test_lp_ordering_fields;
        Alcotest.test_case "no first-fit: no start, phase 1" `Quick test_lp_no_first_fit;
        Alcotest.test_case "Resolve falls back to the start" `Quick
          test_resolve_falls_back_to_start;
      ] );
    ( "place.filtering",
      [
        Alcotest.test_case "invariants across alpha" `Quick test_filtering_invariants;
        Alcotest.test_case "alpha validation" `Quick test_filtering_rejects_alpha;
      ] );
    ( "place.rounding",
      [
        Alcotest.test_case "Theorem 3.7 (alpha=2)" `Quick test_rounding_thm37_alpha2;
        Alcotest.test_case "alpha sweep" `Quick test_rounding_thm37_alpha_sweep;
        Alcotest.test_case "heterogeneous loads" `Quick test_rounding_heterogeneous_loads;
        Alcotest.test_case "infeasible" `Quick test_rounding_infeasible;
      ] );
    ( "place.grid_layout",
      [
        Alcotest.test_case "rank pattern" `Quick test_grid_rank_pattern;
        Alcotest.test_case "optimal k=2" `Quick test_grid_layout_equals_dp;
        Alcotest.test_case "optimal k=3" `Quick test_grid_layout_equals_dp_k3;
        Alcotest.test_case "optimal k=4" `Quick test_grid_layout_equals_dp_k4;
        Alcotest.test_case "closed form matches" `Quick test_grid_layout_predicted_matches;
        Alcotest.test_case "rejects non-grid" `Quick test_grid_layout_rejects_non_grid;
        Alcotest.test_case "expansion" `Quick test_grid_layout_with_expansion;
      ] );
    ( "place.majority",
      [
        Alcotest.test_case "Eq.19 = direct" `Quick test_majority_closed_form_matches_direct;
        Alcotest.test_case "placement invariance" `Quick test_majority_placement_invariance;
        Alcotest.test_case "matches DP optimum" `Quick test_majority_matches_dp;
        Alcotest.test_case "threshold recovery" `Quick test_majority_threshold_recovery;
      ] );
    ( "place.total_delay",
      [
        Alcotest.test_case "Theorem 5.1" `Quick test_total_delay_thm51;
        Alcotest.test_case "exact uniform greedy" `Quick test_total_delay_exact_uniform;
        Alcotest.test_case "separability" `Quick test_total_delay_separability;
      ] );
    ( "place.qpp_solver",
      [
        Alcotest.test_case "Theorem 1.2 guarantees" `Quick test_qpp_solver_guarantees;
        Alcotest.test_case "candidate subset" `Quick test_qpp_solver_candidate_subset;
        Alcotest.test_case "client rates (Section 6)" `Quick test_qpp_solver_with_client_rates;
      ] );
    ( "place.integrality",
      [
        Alcotest.test_case "path instance" `Quick test_integrality_path;
        Alcotest.test_case "figure-1 instance" `Quick test_integrality_figure1;
        Alcotest.test_case "rejects multi-quorum" `Quick test_integrality_rejects_multi_quorum;
      ] );
    ("place.algo_properties", qcheck_tests);
  ]
