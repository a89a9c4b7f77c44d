(* Solve-core scaling layer (DESIGN.md section 15): the flat Bigarray
   metric representation and the exact tree specialist behind the
   registry's auto dispatch. Every property here pins a NEW code path
   to an OLD oracle: flat vs per-source APSP, branch-and-bound vs
   exhaustive search. *)

module Rng = Qp_util.Rng
module Qp_error = Qp_util.Qp_error
module Graph = Qp_graph.Graph
module Apsp = Qp_graph.Apsp
module Metric = Qp_graph.Metric
module Spec = Qp_instance.Spec
open Qp_lp
open Qp_place

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected error: " ^ Qp_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Flat metrics vs the boxed oracles                                   *)
(* ------------------------------------------------------------------ *)

(* Random connected graph: a random spanning tree (connectivity by
   construction) plus extra random edges with float lengths. *)
let random_connected_graph_rng rng n =
  let g = Graph.create n in
  for v = 1 to n - 1 do
    Graph.add_edge g v (Rng.int rng v) (0.1 +. Rng.float rng 5.)
  done;
  let extra = Rng.int rng (2 * n) in
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then Graph.add_edge g u v (0.1 +. Rng.float rng 5.)
  done;
  g

let random_connected_graph seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 30 in
  random_connected_graph_rng rng n

let random_connected_graph_n n seed =
  random_connected_graph_rng (Rng.create seed) n

let alloc_mat n =
  Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (n * n)

(* Bit-for-bit: the flat matrix behind [Metric.of_graph] must
   reproduce the single-source heap Dijkstra floats exactly — same
   summation order, different storage (and, on trees, no heap). *)
let prop_flat_equals_boxed_dijkstra =
  QCheck.Test.make
    ~name:"flat Metric.of_graph = per-source Dijkstra.distances bit-for-bit"
    ~count:100 QCheck.small_int (fun seed ->
      let g = random_connected_graph (seed + 100) in
      let n = Graph.n_vertices g in
      let m = Metric.of_graph ~cache:false g in
      let ok = ref true in
      for i = 0 to n - 1 do
        let row = Qp_graph.Dijkstra.distances g i in
        for j = 0 to n - 1 do
          if Metric.dist m i j <> row.(j) then ok := false
        done
      done;
      !ok)

(* Single-block (n <= block): the tiled schedule degenerates to the
   plain k-major triple loop, so the floats must match the boxed
   oracle bitwise. *)
let prop_blocked_fw_equals_boxed =
  QCheck.Test.make
    ~name:"single-block Floyd-Warshall = boxed triple loop bitwise" ~count:60
    QCheck.small_int (fun seed ->
      let g = random_connected_graph (seed + 500) in
      let n = Graph.n_vertices g in
      let boxed = Apsp.floyd_warshall g in
      let flat = alloc_mat n in
      Apsp.floyd_warshall_into g flat;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Bigarray.Array1.get flat ((i * n) + j) <> boxed.(i).(j) then
            ok := false
        done
      done;
      !ok)

(* Multi-block (nb > 1): phase 3 reads distances already closed over a
   whole k-block — a different bracketing of the same path sums than
   the untiled loop — so cells agree only up to float-summation
   rounding. Both must still be the same shortest-path distances. *)
let fw_close_to_boxed g =
  let n = Graph.n_vertices g in
  let boxed = Apsp.floyd_warshall g in
  let flat = alloc_mat n in
  Apsp.floyd_warshall_into g flat;
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let a = Bigarray.Array1.get flat ((i * n) + j) and b = boxed.(i).(j) in
      if Float.abs (a -. b) > 1e-9 *. Float.max 1. (Float.abs b) then
        ok := false
    done
  done;
  !ok

(* The tiled phases 2/3 exercised at property sizes by shrinking the
   block through the test hook: n up to 31 over block 4 gives up to 8
   block-rows per phase. *)
let prop_blocked_fw_multiblock =
  QCheck.Test.make
    ~name:"multi-block Floyd-Warshall = boxed triple loop (tolerance)"
    ~count:60 QCheck.small_int (fun seed ->
      let saved = Apsp.fw_block () in
      Fun.protect
        ~finally:(fun () -> Apsp.set_fw_block saved)
        (fun () ->
          Apsp.set_fw_block 4;
          fw_close_to_boxed (random_connected_graph (seed + 1300))))

(* And once past the production block size of 64 with no hook: n = 100
   runs the real two-block-per-axis schedule. *)
let test_blocked_fw_above_block_size () =
  Alcotest.(check bool) "default block width is the production one" true
    (Apsp.fw_block () = 64);
  Alcotest.(check bool) "n=100 blocked FW matches boxed within tolerance" true
    (fw_close_to_boxed (random_connected_graph_n 100 7))

(* [repeated_dijkstra_into] writes the per-source Dijkstra floats into
   a caller-supplied flat buffer (disjoint row chunks per worker), at
   pool widths 1 and 3 alike. *)
let prop_dijkstra_into_equals_boxed =
  QCheck.Test.make
    ~name:"repeated_dijkstra_into at widths 1 and 3 = Dijkstra rows bit-for-bit"
    ~count:60 QCheck.small_int (fun seed ->
      let g = random_connected_graph (seed + 900) in
      let n = Graph.n_vertices g in
      let rows = Array.init n (Qp_graph.Dijkstra.distances g) in
      let ok = ref true in
      List.iter
        (fun jobs ->
          let flat = alloc_mat n in
          let pool = Qp_par.Pool.create ~jobs in
          Fun.protect
            ~finally:(fun () -> Qp_par.Pool.shutdown pool)
            (fun () -> Apsp.repeated_dijkstra_into ~pool g flat);
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if Bigarray.Array1.get flat ((i * n) + j) <> rows.(i).(j) then
                ok := false
            done
          done)
        [ 1; 3 ];
      !ok)

(* The cache-footprint gauge: 8 bytes per matrix cell per resident
   entry, back to zero on reset. *)
let test_apsp_cache_bytes () =
  Metric.reset_apsp_cache ();
  Alcotest.(check int) "empty cache" 0 (Metric.apsp_cache_bytes ());
  let g1 = random_connected_graph 1 in
  let n1 = Graph.n_vertices g1 in
  let (_ : Metric.t) = Metric.of_graph g1 in
  Alcotest.(check int) "one entry" (8 * n1 * n1) (Metric.apsp_cache_bytes ());
  let (_ : Metric.t) = Metric.of_graph g1 in
  Alcotest.(check int) "hit adds nothing" (8 * n1 * n1)
    (Metric.apsp_cache_bytes ());
  let g2 = random_connected_graph 2 in
  let n2 = Graph.n_vertices g2 in
  let (_ : Metric.t) = Metric.of_graph g2 in
  Alcotest.(check int) "two entries"
    ((8 * n1 * n1) + (8 * n2 * n2))
    (Metric.apsp_cache_bytes ());
  Metric.reset_apsp_cache ();
  Alcotest.(check int) "reset zeroes the gauge" 0 (Metric.apsp_cache_bytes ())

(* ------------------------------------------------------------------ *)
(* Exact tree specialist and the auto dispatcher                       *)
(* ------------------------------------------------------------------ *)

let build_spec ?(topology = "tree") ?(nodes = 8) ?(system = "grid:2")
    ?(cap_slack = 1.4) ?(seed = 1) () =
  { Spec.default with Spec.topology; nodes; system; cap_slack; seed }

let params_for spec =
  let topology_hint, system_hint = Spec.solver_hints spec in
  { Solver.default_params with Solver.topology_hint; system_hint }

let solve_registry name spec p =
  (Solver.find_exn name).Solver.solve (params_for spec) p

(* Exactness: on every <= 8-node tree instance the branch-and-bound
   answer equals the exhaustive search, including on infeasible
   instances (both must say so). *)
let tree_spec_gen =
  QCheck.Gen.(
    let* nodes = int_range 4 8 in
    let* system = oneofl [ "grid:2"; "majority:3:2"; "triangle" ] in
    let* cap_slack = float_range 0.9 1.8 in
    let* seed = int_range 1 10_000 in
    return (build_spec ~nodes ~system ~cap_slack ~seed ()))

let tree_spec_arbitrary =
  QCheck.make ~print:(Format.asprintf "%a" Spec.pp) tree_spec_gen

let prop_tree_equals_exhaustive =
  QCheck.Test.make ~name:"tree solver = exhaustive search on small trees"
    ~count:80 tree_spec_arbitrary (fun spec ->
      match Spec.build spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok p -> (
          match
            (solve_registry "tree" spec p, solve_registry "exact" spec p)
          with
          | Ok t, Ok e ->
              Float.abs (t.Outcome.objective -. e.Outcome.objective) <= 1e-9
          | Error (Qp_error.Infeasible _), Error (Qp_error.Infeasible _) ->
              true
          | _ -> false))

(* The LP pipeline relaxes capacities to (alpha+1)*cap, so its rounded
   placement may beat the cap-respecting optimum; the exact bound only
   holds when the LP answer happens to respect the true capacities. *)
let prop_tree_no_worse_than_lp =
  QCheck.Test.make
    ~name:"tree optimum <= cap-respecting LP-rounded objective" ~count:80
    tree_spec_arbitrary (fun spec ->
      match Spec.build spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok p -> (
          match
            (solve_registry "tree" spec p, solve_registry "lp" spec p)
          with
          | Ok t, Ok l ->
              l.Outcome.load_violation > 1. +. 1e-9
              || t.Outcome.objective <= l.Outcome.objective +. 1e-6
          | _ -> true))

let test_auto_dispatches_tree () =
  let spec = build_spec ~nodes:10 () in
  let p = ok_exn (Spec.build spec) in
  let auto = ok_exn (solve_registry "auto" spec p) in
  Alcotest.(check string) "tree specialist selected" "tree"
    auto.Outcome.solver;
  let direct = ok_exn (solve_registry "tree" spec p) in
  Alcotest.(check (float 1e-12)) "same objective as direct call"
    direct.Outcome.objective auto.Outcome.objective

let test_auto_on_general_metric () =
  let spec = build_spec ~topology:"waxman" ~nodes:10 () in
  let p = ok_exn (Spec.build spec) in
  let auto = ok_exn (solve_registry "auto" spec p) in
  Alcotest.(check bool) "never the tree solver off trees" true
    (auto.Outcome.solver <> "tree");
  Alcotest.(check bool) "stamped a registered solver" true
    (List.mem auto.Outcome.solver (Solver.names ()))

(* Hints steer, verification decides: a cycle metric is not a tree
   metric, and the specialist must refuse it no matter what a caller
   hints. *)
let test_tree_rejects_cycle_metric () =
  let g = Graph.create 4 in
  List.iter
    (fun (u, v) -> Graph.add_edge g u v 1.)
    [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  let m = Metric.of_graph ~cache:false g in
  Alcotest.(check bool) "C4 is not a tree metric" false
    (Tree_place.is_tree_metric m);
  let spec = build_spec ~topology:"tree" ~nodes:8 () in
  let tree_metric =
    (ok_exn (Spec.build spec)).Problem.metric
  in
  Alcotest.(check bool) "tree topology verifies" true
    (Tree_place.is_tree_metric tree_metric)

(* Cooperative cancellation parity with the simplex paths: the tree
   branch-and-bound honours the request's work budget and the
   domain-local deadline, both surfacing as the [Internal] error shape
   the server's deadline mapping keys on. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_tree_node_budget () =
  let spec = build_spec ~nodes:12 () in
  let p = ok_exn (Spec.build spec) in
  let params = { (params_for spec) with Solver.pivot_budget = Some 1 } in
  (match (Solver.find_exn "tree").Solver.solve params p with
  | Error (Qp_error.Internal msg) ->
      Alcotest.(check bool) "budget named in the error" true
        (contains_sub msg "search-node budget")
  | Ok _ -> Alcotest.fail "solve completed under a 1-node budget"
  | Error e ->
      Alcotest.fail ("unexpected error: " ^ Qp_error.to_string e));
  (* The same instance without a budget solves fine. *)
  match (Solver.find_exn "tree").Solver.solve (params_for spec) p with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("unbudgeted solve: " ^ Qp_error.to_string e)

let test_tree_deadline_cancels () =
  let spec = build_spec ~nodes:12 () in
  let p = ok_exn (Spec.build spec) in
  Fun.protect
    ~finally:(fun () -> Simplex.set_deadline None)
    (fun () ->
      Simplex.set_deadline (Some 0.) (* already expired *);
      match (Solver.find_exn "tree").Solver.solve (params_for spec) p with
      | Error (Qp_error.Internal msg) ->
          Alcotest.(check bool) "deadline named in the error" true
            (contains_sub msg "deadline")
      | Ok _ -> Alcotest.fail "solve completed past an expired deadline"
      | Error e ->
          Alcotest.fail ("unexpected error: " ^ Qp_error.to_string e))

(* Flat-layout bounds: an out-of-range j must raise, never silently
   read a cell of the wrong row (i*n + j can stay inside the buffer). *)
let test_metric_dist_bounds () =
  let g = random_connected_graph_n 4 11 in
  let m = Metric.of_graph ~cache:false g in
  let raises i j =
    match Metric.dist m i j with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "in-range reads fine" true
    (Float.is_finite (Metric.dist m 3 0));
  Alcotest.(check bool) "j = n raises" true (raises 1 4);
  Alcotest.(check bool) "j < 0 raises" true (raises 1 (-1));
  Alcotest.(check bool) "i = n raises" true (raises 4 1);
  Alcotest.(check bool) "i < 0 raises" true (raises (-1) 1)

(* The tree check accepts every generated tree metric, at pool widths
   1 and 3, and refuses it once one symmetric pair moves by 1e-3. *)
let prop_tree_check_exact =
  QCheck.Test.make
    ~name:"is_tree_metric accepts trees, rejects a perturbed pair"
    ~count:100
    QCheck.(pair small_int (int_range 3 60))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let m = Metric.of_graph ~cache:false (Qp_graph.Generators.random_tree rng n) in
      let i = Rng.int rng n in
      let j = (i + 1 + Rng.int rng (n - 1)) mod n in
      let d = Array.init n (fun a -> Array.init n (Metric.dist m a)) in
      d.(i).(j) <- d.(i).(j) +. 1e-3;
      d.(j).(i) <- d.(i).(j);
      let perturbed = Metric.of_matrix d in
      List.for_all
        (fun jobs ->
          let pool = Qp_par.Pool.create ~jobs in
          Fun.protect
            ~finally:(fun () -> Qp_par.Pool.shutdown pool)
            (fun () ->
              Tree_place.is_tree_metric ~pool m
              && not (Tree_place.is_tree_metric ~pool perturbed)))
        [ 1; 3 ])

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_flat_equals_boxed_dijkstra; prop_blocked_fw_equals_boxed;
      prop_blocked_fw_multiblock; prop_dijkstra_into_equals_boxed;
      prop_tree_equals_exhaustive; prop_tree_no_worse_than_lp;
      prop_tree_check_exact ]

let suites =
  [
    ( "scale.core",
      [
        Alcotest.test_case "apsp cache bytes" `Quick test_apsp_cache_bytes;
        Alcotest.test_case "auto dispatches tree" `Quick
          test_auto_dispatches_tree;
        Alcotest.test_case "auto on general metric" `Quick
          test_auto_on_general_metric;
        Alcotest.test_case "tree metric verification" `Quick
          test_tree_rejects_cycle_metric;
        Alcotest.test_case "blocked FW above block size" `Quick
          test_blocked_fw_above_block_size;
        Alcotest.test_case "tree node budget" `Quick test_tree_node_budget;
        Alcotest.test_case "tree deadline cancellation" `Quick
          test_tree_deadline_cancels;
        Alcotest.test_case "metric dist bounds" `Quick test_metric_dist_bounds;
      ] );
    ("scale.properties", qcheck_tests);
  ]
