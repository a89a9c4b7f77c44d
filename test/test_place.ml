open Qp_place
module Rng = Qp_util.Rng
module Metric = Qp_graph.Metric
module Generators = Qp_graph.Generators
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Simple_qs = Qp_quorum.Simple_qs
module Grid_qs = Qp_quorum.Grid_qs

let check_float = Alcotest.(check (float 1e-9))

(* Path 0-1-2 with the 2-of-3 triangle system, uniform strategy,
   cap = 2/3 per node (exactly one element each). *)
let triangle_on_path () =
  let system = Simple_qs.triangle () in
  Problem.of_graph_qpp ~graph:(Generators.path 3)
    ~capacities:(Array.make 3 (2. /. 3.))
    ~system ~strategy:(Strategy.uniform system) ()

(* ------------------------------------------------------------------ *)
(* Problem / placement                                                 *)
(* ------------------------------------------------------------------ *)

let test_problem_validation () =
  let system = Simple_qs.triangle () in
  let metric = Metric.of_graph (Generators.path 3) in
  Alcotest.check_raises "bad caps length"
    (Invalid_argument "Problem: capacities length must match metric size") (fun () ->
      ignore
        (Problem.make_qpp ~metric ~capacities:[| 1. |] ~system
           ~strategy:(Strategy.uniform system) ()));
  Alcotest.check_raises "negative cap" (Invalid_argument "Problem: negative capacity")
    (fun () ->
      ignore
        (Problem.make_qpp ~metric ~capacities:[| 1.; -1.; 1. |] ~system
           ~strategy:(Strategy.uniform system) ()));
  Alcotest.check_raises "bad v0" (Invalid_argument "Problem: v0 out of range") (fun () ->
      ignore
        (Problem.make_ssqpp ~metric ~capacities:(Array.make 3 1.) ~system
           ~strategy:(Strategy.uniform system) ~v0:9));
  Alcotest.check_raises "bad rates"
    (Invalid_argument "Problem: client rates must have positive sum") (fun () ->
      ignore
        (Problem.make_qpp ~metric ~capacities:(Array.make 3 1.) ~system
           ~strategy:(Strategy.uniform system) ~client_rates:[| 0.; 0.; 0. |] ()));
  Alcotest.check_raises "empty metric"
    (Invalid_argument "Problem: metric must have at least one node") (fun () ->
      ignore
        (Problem.make_qpp ~metric:(Metric.of_matrix [||]) ~capacities:[||] ~system
           ~strategy:(Strategy.uniform system) ()));
  (* Metric.scale with an infinite factor is the one public path that
     produces non-finite distances; the instance must refuse them. *)
  Alcotest.check_raises "non-finite metric"
    (Invalid_argument "Problem: non-finite metric entry") (fun () ->
      ignore
        (Problem.make_qpp ~metric:(Metric.scale metric infinity)
           ~capacities:(Array.make 3 1.) ~system ~strategy:(Strategy.uniform system) ()));
  Alcotest.check_raises "non-finite cap" (Invalid_argument "Problem: non-finite capacity")
    (fun () ->
      ignore
        (Problem.make_qpp ~metric ~capacities:[| 1.; Float.nan; 1. |] ~system
           ~strategy:(Strategy.uniform system) ()));
  Alcotest.check_raises "non-finite rate"
    (Invalid_argument "Problem: non-finite client rate") (fun () ->
      ignore
        (Problem.make_qpp ~metric ~capacities:(Array.make 3 1.) ~system
           ~strategy:(Strategy.uniform system) ~client_rates:[| 1.; infinity; 1. |] ()));
  (* Empty quorum systems are unconstructable: even the unchecked
     constructor refuses them, so no qpp can smuggle one in (the
     Problem-level guards are defense in depth). *)
  Alcotest.check_raises "empty universe"
    (Invalid_argument "Quorum.make: universe must be positive") (fun () ->
      ignore (Quorum.make_unchecked ~universe:0 [||]));
  Alcotest.check_raises "no quorums" (Invalid_argument "Quorum.make: empty family")
    (fun () -> ignore (Quorum.make_unchecked ~universe:3 [||]))

let test_problem_capacity_feasible () =
  let p = triangle_on_path () in
  Alcotest.(check bool) "feasible" true (Problem.capacity_feasible p);
  let system = Simple_qs.triangle () in
  let tight =
    Problem.of_graph_qpp ~graph:(Generators.path 3) ~capacities:(Array.make 3 0.1)
      ~system ~strategy:(Strategy.uniform system) ()
  in
  Alcotest.(check bool) "infeasible" false (Problem.capacity_feasible tight)

let test_placement_loads () =
  let p = triangle_on_path () in
  let f = [| 0; 0; 2 |] in
  let loads = Placement.node_loads p f in
  check_float "node 0" (4. /. 3.) loads.(0);
  check_float "node 1" 0. loads.(1);
  check_float "node 2" (2. /. 3.) loads.(2);
  Alcotest.(check bool) "violates" false (Placement.respects_capacities p f);
  Alcotest.(check bool) "within 2x" true (Placement.respects_capacities ~slack:2. p f);
  check_float "violation factor" 2. (Placement.max_violation p f);
  Alcotest.(check (list int)) "used nodes" [ 0; 2 ] (Placement.used_nodes f);
  Alcotest.(check bool) "identity respects" true
    (Placement.respects_capacities p [| 0; 1; 2 |])

let test_placement_validation () =
  let p = triangle_on_path () in
  Alcotest.check_raises "length" (Invalid_argument "Placement.validate: length must equal universe size")
    (fun () -> Placement.validate p [| 0 |]);
  Alcotest.check_raises "range" (Invalid_argument "Placement.validate: node out of range")
    (fun () -> Placement.validate p [| 0; 1; 7 |])

(* ------------------------------------------------------------------ *)
(* Delay functionals (hand-computed)                                   *)
(* ------------------------------------------------------------------ *)

let test_max_delay_hand () =
  let p = triangle_on_path () in
  let f = [| 0; 1; 2 |] in
  check_float "Delta(0)" (5. /. 3.) (Delay.client_max_delay p f 0);
  check_float "Delta(1)" 1. (Delay.client_max_delay p f 1);
  check_float "Delta(2)" (5. /. 3.) (Delay.client_max_delay p f 2);
  check_float "avg" (13. /. 9.) (Delay.avg_max_delay p f)

let test_total_delay_hand () =
  let p = triangle_on_path () in
  let f = [| 0; 1; 2 |] in
  check_float "Gamma(0)" 2. (Delay.client_total_delay p f 0);
  check_float "Gamma(1)" (4. /. 3.) (Delay.client_total_delay p f 1);
  check_float "Gamma(2)" 2. (Delay.client_total_delay p f 2);
  check_float "avg" (16. /. 9.) (Delay.avg_total_delay p f)

let test_delay_colocated_zero () =
  (* All elements on the client's node: zero max-delay there. *)
  let system = Simple_qs.triangle () in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 3) ~capacities:[| 2.; 0.; 0. |]
      ~system ~strategy:(Strategy.uniform system) ()
  in
  let f = [| 0; 0; 0 |] in
  check_float "Delta(0) = 0" 0. (Delay.client_max_delay p f 0);
  check_float "Delta(2) = 2" 2. (Delay.client_max_delay p f 2)

let test_client_rates_weighting () =
  let system = Simple_qs.triangle () in
  let graph = Generators.path 3 in
  let mk rates =
    Problem.of_graph_qpp ~graph ~capacities:(Array.make 3 1.) ~system
      ~strategy:(Strategy.uniform system) ?client_rates:rates ()
  in
  let f = [| 0; 1; 2 |] in
  (* All rate on client 1: avg = Delta(1) = 1. *)
  check_float "rate-concentrated" 1.
    (Delay.avg_max_delay (mk (Some [| 0.; 1.; 0. |])) f);
  (* Uniform rates = unweighted. *)
  check_float "uniform rates" (13. /. 9.)
    (Delay.avg_max_delay (mk (Some [| 1.; 1.; 1. |])) f)

let test_ssqpp_delay () =
  let p = triangle_on_path () in
  let s = Problem.ssqpp_of_qpp p 1 in
  check_float "single-source = client delay" 1. (Delay.ssqpp_delay s [| 0; 1; 2 |])

(* ------------------------------------------------------------------ *)
(* Relay (Lemma 3.1)                                                   *)
(* ------------------------------------------------------------------ *)

let test_relay_hand () =
  let p = triangle_on_path () in
  let f = [| 0; 1; 2 |] in
  let a = Relay.analyze p f in
  (* v0 minimizes Delta: node 1. relayed = avg d(v,1) + Delta(1) =
     2/3 + 1 = 5/3; direct = 13/9; ratio = 15/13. *)
  Alcotest.(check int) "v0" 1 a.Relay.v0;
  check_float "direct" (13. /. 9.) a.Relay.direct;
  check_float "relayed" (5. /. 3.) a.Relay.relayed;
  check_float "ratio" (15. /. 13.) a.Relay.ratio;
  Alcotest.(check bool) "within bound" true (a.Relay.ratio <= Relay.bound)

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
  (* Generous capacities keep random placements feasible. *)
  let caps = Array.init n (fun _ -> max_load *. (1. +. Rng.float rng 2.)) in
  (Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy (), rng)

let prop_relay_bound =
  QCheck.Test.make ~name:"Lemma 3.1: relay ratio <= 5 (random placements)" ~count:80
    QCheck.small_int (fun seed ->
      let p, rng = random_qpp seed in
      match Baselines.random rng p with
      | None -> true (* nothing to check *)
      | Some f ->
          let a = Relay.analyze p f in
          a.Relay.ratio <= Relay.bound +. 1e-9)

let prop_relay_dominates_direct =
  QCheck.Test.make ~name:"relaying never beats direct routing" ~count:50
    QCheck.small_int (fun seed ->
      let p, rng = random_qpp (seed + 1000) in
      match Baselines.random rng p with
      | None -> true
      | Some f ->
          (* For each client, d(v,v0) + delta(v0,Q) >= delta(v,Q) by the
             triangle inequality, so the averages compare too. *)
          let a = Relay.analyze p f in
          a.Relay.relayed >= a.Relay.direct -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Exact solvers                                                       *)
(* ------------------------------------------------------------------ *)

let test_exact_dp_equals_brute_force () =
  for seed = 1 to 8 do
    let rng = Rng.create (2000 + seed) in
    let n = 5 + Rng.int rng 3 in
    let g, _ = Generators.random_geometric rng n 0.5 in
    let system = Simple_qs.triangle () in
    let strategy = Strategy.uniform system in
    let load = 2. /. 3. in
    let caps = Array.make n load in
    let p = Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy () in
    let s = Problem.ssqpp_of_qpp p 0 in
    match (Exact.ssqpp_uniform_dp s, Exact.ssqpp_brute_force s) with
    | Some (dp, fdp), Some (bf, fbf) ->
        Alcotest.(check bool) "same optimum" true (Float.abs (dp -. bf) < 1e-9);
        check_float "dp placement evaluates to dp" dp (Delay.ssqpp_delay s fdp);
        check_float "bf placement evaluates to bf" bf (Delay.ssqpp_delay s fbf)
    | _ -> Alcotest.fail "expected feasible instance"
  done

let test_exact_dp_infeasible () =
  let system = Simple_qs.triangle () in
  let strategy = Strategy.uniform system in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 2)
      ~capacities:(Array.make 2 (2. /. 3.))
      ~system ~strategy ()
  in
  let s = Problem.ssqpp_of_qpp p 0 in
  Alcotest.(check bool) "too few nodes" true (Exact.ssqpp_uniform_dp s = None);
  Alcotest.(check bool) "brute force agrees" true (Exact.ssqpp_brute_force s = None)

let test_exact_dp_rejects_nonuniform () =
  let system = Simple_qs.star 3 in
  (* Star loads: hub 1, leaves 1/2 -> non-uniform. *)
  let strategy = Strategy.uniform system in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 4) ~capacities:(Array.make 4 1.)
      ~system ~strategy ()
  in
  let s = Problem.ssqpp_of_qpp p 0 in
  Alcotest.check_raises "nonuniform"
    (Invalid_argument "Exact.ssqpp_uniform_dp: element loads are not uniform") (fun () ->
      ignore (Exact.ssqpp_uniform_dp s))

let test_qpp_brute_force_tiny () =
  let p = triangle_on_path () in
  match Exact.qpp_brute_force p with
  | None -> Alcotest.fail "feasible"
  | Some (opt, f) ->
      check_float "matches evaluation" opt (Delay.avg_max_delay p f);
      (* The identity placement is one feasible competitor. *)
      Alcotest.(check bool) "no worse than identity" true
        (opt <= Delay.avg_max_delay p [| 0; 1; 2 |] +. 1e-9)

(* The exhaustive search polls the domain-local deadline like the
   simplex and tree solvers do. Deterministic via the fake clock: the
   deadline is already past, so the first poll (leaf 1024 of the
   16^3 = 4096 placements) must abort with the typed internal error. *)
let test_brute_force_honours_deadline () =
  let system = Simple_qs.triangle () in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 16) ~capacities:(Array.make 16 3.)
      ~system ~strategy:(Strategy.uniform system) ()
  in
  Qp_obs.Core.set_clock (fun () -> 100.);
  Fun.protect
    ~finally:(fun () ->
      Qp_lp.Cancel.set_deadline None;
      Qp_obs.Core.default_clock ())
  @@ fun () ->
  Qp_lp.Cancel.set_deadline (Some 50.);
  match Exact.qpp_brute_force p with
  | exception Qp_util.Qp_error.Error (Qp_util.Qp_error.Internal _) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "an expired deadline must cancel the search"

(* ------------------------------------------------------------------ *)
(* Capacity expansion                                                  *)
(* ------------------------------------------------------------------ *)

let test_capacity_expand () =
  let metric = Metric.of_graph (Generators.path 3) in
  let caps = [| 2.5; 0.4; 1.0 |] in
  let e = Capacity.expand metric caps ~load:1. () in
  (* Node 0 -> 2 copies, node 1 -> 0, node 2 -> 1. *)
  Alcotest.(check (array int)) "copies" [| 0; 0; 2 |] e.Capacity.original_of_copy;
  check_float "copies colocated" 0. (Metric.dist e.Capacity.metric 0 1);
  check_float "cross distance preserved" 2. (Metric.dist e.Capacity.metric 0 2)

let test_capacity_expand_rejects () =
  let metric = Metric.of_graph (Generators.path 2) in
  Alcotest.check_raises "no room" (Invalid_argument "Capacity.expand: no node can hold any element")
    (fun () -> ignore (Capacity.expand metric [| 0.3; 0.3 |] ~load:1. ()));
  Alcotest.check_raises "bad load" (Invalid_argument "Capacity.expand: load must be positive")
    (fun () -> ignore (Capacity.expand metric [| 1.; 1. |] ~load:0. ()))

let test_capacity_max_copies () =
  let metric = Metric.of_graph (Generators.path 2) in
  let e = Capacity.expand metric [| 1000.; 1. |] ~load:1. ~max_copies:3 () in
  Alcotest.(check int) "bounded" 4 (Array.length e.Capacity.original_of_copy)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_baselines_feasible () =
  let p, rng = random_qpp 77 in
  (match Baselines.random rng p with
  | None -> Alcotest.fail "random should fit (generous caps)"
  | Some f -> Alcotest.(check bool) "random respects caps" true
      (Placement.respects_capacities p f));
  match Baselines.greedy_closest p 0 with
  | None -> Alcotest.fail "greedy should fit"
  | Some f ->
      Alcotest.(check bool) "greedy respects caps" true (Placement.respects_capacities p f)

let test_lin_single_node () =
  let p = triangle_on_path () in
  let hub, f = Baselines.lin_single_node p in
  Alcotest.(check int) "middle of path" 1 hub;
  Alcotest.(check (array int)) "all on hub" [| 1; 1; 1 |] f;
  (* Massively overloaded but delay-optimal: avg = avg distance. *)
  check_float "delay = avg distance" (2. /. 3.) (Delay.avg_max_delay p f);
  Alcotest.(check bool) "violates caps" false (Placement.respects_capacities p f)

let test_local_search_improves () =
  let p = triangle_on_path () in
  (* Deliberately bad start: everything far from the middle. *)
  let start = [| 0; 1; 2 |] in
  let objective f = Delay.avg_max_delay p f in
  let improved = Baselines.local_search ~objective p start in
  Alcotest.(check bool) "no worse" true (objective improved <= objective start +. 1e-12);
  Alcotest.(check bool) "still feasible" true (Placement.respects_capacities p improved)

let prop_local_search_never_worse =
  QCheck.Test.make ~name:"local search never worsens the objective" ~count:30
    QCheck.small_int (fun seed ->
      let p, rng = random_qpp (seed + 3000) in
      match Baselines.random rng p with
      | None -> true
      | Some start ->
          let objective f = Delay.avg_max_delay p f in
          let out = Baselines.local_search ~max_steps:20 ~objective p start in
          objective out <= objective start +. 1e-9
          && Placement.respects_capacities p out)

(* The Theorem 3.7 stage of one candidate the way a caller that builds
   each candidate's LP itself runs it: [Lp_formulation.build], then
   [Simplex.solve_warm], filtering and rounding. *)
let round_building_each_lp ~alpha ~v0:_ (s : Problem.ssqpp) =
  let lp, var_elem, var_quorum = Lp_formulation.build s in
  match Qp_lp.Simplex.solve_warm lp with
  | (Qp_lp.Simplex.Infeasible | Qp_lp.Simplex.Unbounded), _ -> None
  | Qp_lp.Simplex.Optimal { x; objective }, basis ->
      let rank_of_node, node_of_rank, dist =
        let node_of_rank = Metric.nodes_by_distance s.Problem.metric s.Problem.v0 in
        let rank_of_node = Array.make (Array.length node_of_rank) 0 in
        Array.iteri (fun t v -> rank_of_node.(v) <- t) node_of_rank;
        (rank_of_node, node_of_rank,
         Array.map (Metric.dist s.Problem.metric s.Problem.v0) node_of_rank)
      in
      let n = Array.length node_of_rank in
      let nu = Quorum.universe s.Problem.system in
      let nq = Quorum.n_quorums s.Problem.system in
      let clip v = if v < 1e-11 then 0. else if v > 1. then 1. else v in
      let sol =
        { Lp_formulation.rank_of_node; node_of_rank; dist;
          x_elem = Array.init n (fun t -> Array.init nu (fun u -> clip x.(var_elem t u)));
          x_quorum = Array.init n (fun t -> Array.init nq (fun q -> clip x.(var_quorum t q)));
          z_star = objective }
      in
      Some (Rounding.round_filtered s (Filtering.apply ~alpha sol), basis)

(* Random instances whose capacities mix 0.5x (pinning rows (13)) to
   2.5x the largest element load, so candidate sources see different
   capacity-by-rank vectors. Even seeds draw a random geometric graph
   and a capacity per node, so nearly every source ranks the
   capacities its own way. Odd seeds take the complete graph, whose
   distance ties rank the other nodes by index, and give nodes 2i and
   2i+1 the same capacity, so those two sources share one vector. *)
let mixed_capacity_qpp seed =
  let rng = Rng.create seed in
  let n = 5 + Rng.int rng 5 in
  let g =
    if seed mod 2 = 0 then fst (Generators.random_geometric rng n 0.5)
    else Generators.complete n
  in
  let system =
    match Rng.int rng 3 with
    | 0 -> Simple_qs.triangle ()
    | 1 -> Grid_qs.make 2
    | _ -> Simple_qs.wheel 4
  in
  let strategy = Strategy.uniform system in
  let max_load = Array.fold_left Float.max 0. (Strategy.loads system strategy) in
  let factors = [| 0.5; 1.; 1.5; 2.5 |] in
  let draws = Array.init n (fun _ -> Rng.int rng 4) in
  let caps =
    Array.init n (fun v -> max_load *. factors.(draws.(if seed mod 2 = 0 then v else v / 2)))
  in
  Problem.of_graph_qpp ~graph:g ~capacities:caps ~system ~strategy ()

let prop_shared_blocks_identical =
  QCheck.Test.make
    ~name:"Qpp_solver.solve = building each candidate's LP (mixed capacities)"
    ~count:40 QCheck.small_int (fun seed ->
      let p = mixed_capacity_qpp seed in
      let bits = Int64.bits_of_float in
      let key (r : Qpp_solver.result) =
        ( r.Qpp_solver.v0, r.Qpp_solver.placement, bits r.Qpp_solver.objective,
          bits r.Qpp_solver.relayed_objective,
          Option.map bits r.Qpp_solver.lower_bound,
          bits r.Qpp_solver.ssqpp.Rounding.z_star )
      in
      let shared, shared_bases =
        Qpp_solver.solve_warm ~alpha:2. ~warm:(fun _ -> None) p
      in
      let each, each_bases =
        Qpp_solver.solve_with ~alpha:2. ~round:(round_building_each_lp ~alpha:2.) p
      in
      let n = Problem.n_nodes p in
      let vectors =
        List.init n (fun v ->
            Array.map
              (fun u -> p.Problem.capacities.(u))
              (Metric.nodes_by_distance p.Problem.metric v))
      in
      let distinct = List.sort_uniq compare vectors in
      let repeated =
        List.filter (fun c -> List.length (List.filter (( = ) c) vectors) > 1) distinct
      in
      let n_blocks = Lp_formulation.(n_blocks (blocks p (List.init n Fun.id))) in
      Option.map key shared = Option.map key each
      && shared_bases = each_bases
      && n_blocks = List.length repeated
      && (List.length distinct > 1 || n_blocks = 1)
      && (seed mod 2 = 0 || n_blocks > 0))

(* The per-member loops [Delay] ran before the [Metric] kernel: fold
   [Metric.dist] over the quorum from 0. *)
let member_loop m ~total v f q =
  let acc = ref 0. in
  for i = 0 to Array.length q - 1 do
    let d = Metric.dist m v f.(q.(i)) in
    acc := if total then !acc +. d else Float.max !acc d
  done;
  !acc

(* [Metric.quorum_delay] against [member_loop], bit for bit, on raw
   matrices with signed zeros, NaNs of two payloads, infinity and ties,
   quorums with
   repeated members, and vertex or node ids one past either end: both
   must then raise [Invalid_argument]. *)
let prop_quorum_delay_matches_member_loop =
  let entry =
    QCheck.Gen.(
      frequency
        [ (4, float_range 0. 10.); (2, oneofl [ 0.; -0.; 1.; 2.5 ]);
          ( 3,
            oneofl
              [ nan; Int64.float_of_bits 0x7ff8000000000002L;
                Int64.float_of_bits 0xfff8000000000000L; infinity; 5e-324 ] ) ])
  in
  (* Mostly a vertex, sometimes one past either end. *)
  let vertex n = QCheck.Gen.(frequency [ (9, int_range 0 (n - 1)); (1, oneofl [ -1; n ]) ]) in
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      int_range 1 5 >>= fun u ->
      array_repeat n (array_repeat n entry) >>= fun rows ->
      array_repeat u (vertex n) >>= fun f ->
      array_size (int_range 0 7) (int_range 0 (u - 1)) >>= fun q ->
      vertex n >>= fun v -> return (rows, f, q, v))
  in
  QCheck.Test.make ~name:"quorum_delay = per-member loop" ~count:500 (QCheck.make gen)
    (fun (rows, f, q, v) ->
      let m = Metric.of_matrix_unchecked rows in
      let run g = try Ok (Int64.bits_of_float (g ())) with Invalid_argument _ -> Error () in
      let in_range x = x >= 0 && x < Array.length rows in
      List.for_all
        (fun total ->
          let ours = run (fun () -> Metric.quorum_delay m ~total v f q)
          and theirs = run (fun () -> member_loop m ~total v f q) in
          (* An out-of-range [v] with an empty quorum: the kernel checks
             [v] up front, the loop never reads it. *)
          ours = theirs || (q = [||] && not (in_range v) && ours = Error ()))
        [ false; true ])

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_relay_bound; prop_relay_dominates_direct; prop_local_search_never_worse;
      prop_shared_blocks_identical; prop_quorum_delay_matches_member_loop ]

let suites =
  [
    ( "place.problem",
      [
        Alcotest.test_case "validation" `Quick test_problem_validation;
        Alcotest.test_case "capacity feasibility" `Quick test_problem_capacity_feasible;
        Alcotest.test_case "placement loads" `Quick test_placement_loads;
        Alcotest.test_case "placement validation" `Quick test_placement_validation;
      ] );
    ( "place.delay",
      [
        Alcotest.test_case "max-delay by hand" `Quick test_max_delay_hand;
        Alcotest.test_case "total-delay by hand" `Quick test_total_delay_hand;
        Alcotest.test_case "colocated zero" `Quick test_delay_colocated_zero;
        Alcotest.test_case "client rates" `Quick test_client_rates_weighting;
        Alcotest.test_case "ssqpp delay" `Quick test_ssqpp_delay;
      ] );
    ( "place.relay",
      [ Alcotest.test_case "hand instance" `Quick test_relay_hand ] );
    ( "place.exact",
      [
        Alcotest.test_case "DP = brute force" `Quick test_exact_dp_equals_brute_force;
        Alcotest.test_case "infeasible detection" `Quick test_exact_dp_infeasible;
        Alcotest.test_case "rejects nonuniform" `Quick test_exact_dp_rejects_nonuniform;
        Alcotest.test_case "QPP brute force" `Quick test_qpp_brute_force_tiny;
        Alcotest.test_case "brute force honours deadline" `Quick
          test_brute_force_honours_deadline;
      ] );
    ( "place.capacity",
      [
        Alcotest.test_case "expand" `Quick test_capacity_expand;
        Alcotest.test_case "rejects" `Quick test_capacity_expand_rejects;
        Alcotest.test_case "max copies" `Quick test_capacity_max_copies;
      ] );
    ( "place.baselines",
      [
        Alcotest.test_case "feasible placements" `Quick test_baselines_feasible;
        Alcotest.test_case "lin single node" `Quick test_lin_single_node;
        Alcotest.test_case "local search improves" `Quick test_local_search_improves;
      ] );
    ("place.properties", qcheck_tests);
  ]
