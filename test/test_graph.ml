open Qp_graph
module Rng = Qp_util.Rng

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let test_graph_basic () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 2.0;
  Graph.add_edge g 1 2 3.0;
  Alcotest.(check int) "n" 4 (Graph.n_vertices g);
  Alcotest.(check int) "m" 2 (Graph.n_edges g);
  Alcotest.(check (option (float 1e-9))) "edge len" (Some 2.0) (Graph.edge_length g 1 0);
  Alcotest.(check (option (float 1e-9))) "missing edge" None (Graph.edge_length g 0 3);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1)

let test_graph_parallel_edge_min () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1 5.0;
  Graph.add_edge g 0 1 2.0;
  Graph.add_edge g 0 1 9.0;
  Alcotest.(check int) "still one edge" 1 (Graph.n_edges g);
  Alcotest.(check (option (float 1e-9))) "min kept" (Some 2.0) (Graph.edge_length g 0 1)

let test_graph_rejects () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1 1.0);
  Alcotest.check_raises "bad length" (Invalid_argument "Graph.add_edge: non-positive length")
    (fun () -> Graph.add_edge g 0 1 0.0);
  Alcotest.check_raises "out of range" (Invalid_argument "Graph.add_edge: vertex out of range")
    (fun () -> Graph.add_edge g 0 7 1.0)

let test_graph_rejects_non_finite () =
  let g = Graph.create 2 in
  List.iter
    (fun (name, len, msg) ->
      Alcotest.check_raises name (Invalid_argument ("Graph.add_edge: " ^ msg))
        (fun () -> Graph.add_edge g 0 1 len))
    [ ("nan", Float.nan, "non-finite length");
      ("+inf", infinity, "non-finite length");
      ("-inf", neg_infinity, "non-finite length");
      ("zero", 0., "non-positive length");
      ("negative", -1., "non-positive length") ];
  Alcotest.(check int) "no edge inserted" 0 (Graph.n_edges g)

let test_graph_connectivity () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.;
  Graph.add_edge g 2 3 1.;
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g);
  Graph.add_edge g 1 2 1.;
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check bool) "empty connected" true (Graph.is_connected (Graph.create 0))

let test_graph_iter_edges_once () =
  let g = Generators.complete 5 in
  let count = ref 0 in
  Graph.iter_edges g (fun u v _ ->
      Alcotest.(check bool) "u < v" true (u < v);
      incr count);
  Alcotest.(check int) "edge count" 10 !count

(* ------------------------------------------------------------------ *)
(* Dijkstra / APSP                                                     *)
(* ------------------------------------------------------------------ *)

let test_dijkstra_path_graph () =
  let g = Generators.path 5 in
  let d = Dijkstra.distances g 0 in
  Array.iteri (fun i di -> check_float "distance" (float_of_int i) di) d

let test_dijkstra_weighted () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.0;
  Graph.add_edge g 1 2 1.0;
  Graph.add_edge g 0 2 5.0;
  Graph.add_edge g 2 3 1.0;
  let d = Dijkstra.distances g 0 in
  check_float "shortcut ignored" 2.0 d.(2);
  check_float "end" 3.0 d.(3)

let test_dijkstra_unreachable () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.0;
  let d = Dijkstra.distances g 0 in
  Alcotest.(check bool) "unreachable = inf" true (d.(2) = infinity);
  Alcotest.(check bool) "no path" true (Dijkstra.path g 0 2 = None)

let test_dijkstra_path_reconstruction () =
  let g = Generators.cycle 6 in
  match Dijkstra.path g 0 3 with
  | None -> Alcotest.fail "expected path"
  | Some p ->
      Alcotest.(check int) "path length" 4 (List.length p);
      Alcotest.(check int) "starts at src" 0 (List.hd p);
      Alcotest.(check int) "ends at dst" 3 (List.nth p 3)

let random_connected_graph seed n =
  let rng = Rng.create seed in
  let g = Generators.erdos_renyi rng n 0.2 in
  (* Randomize lengths while keeping connectivity: rebuild with random
     weights on the same edge set. *)
  let g' = Graph.create n in
  Graph.iter_edges g (fun u v _ -> Graph.add_edge g' u v (0.1 +. Rng.uniform rng));
  g'

let test_apsp_dijkstra_equals_floyd () =
  for seed = 1 to 10 do
    let g = random_connected_graph seed 20 in
    let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (20 * 20) in
    Apsp.repeated_dijkstra_into g a;
    let b = Apsp.floyd_warshall g in
    for i = 0 to 19 do
      for j = 0 to 19 do
        Alcotest.(check bool) "apsp agree" true
          (Float.abs (Bigarray.Array1.get a ((i * 20) + j) -. b.(i).(j)) < 1e-9)
      done
    done
  done

(* Textbook O(n^2) Dijkstra: settle the closest unsettled vertex by an
   array scan, no heap. The oracle for the flat kernel's rows. *)
let textbook_dijkstra g src =
  let n = Graph.n_vertices g in
  let dist = Array.make n infinity and settled = Array.make n false in
  dist.(src) <- 0.;
  for _ = 1 to n do
    let v = ref (-1) in
    for u = 0 to n - 1 do
      if (not settled.(u)) && dist.(u) < infinity
         && (!v < 0 || dist.(u) < dist.(!v))
      then v := u
    done;
    if !v >= 0 then begin
      let v = !v in
      settled.(v) <- true;
      List.iter
        (fun (w, len) -> if dist.(v) +. len < dist.(w) then dist.(w) <- dist.(v) +. len)
        (Graph.neighbors g v)
    end
  done;
  dist

(* A plain swap-based binary heap with the kernel's tie rules (strict
   [<] in sift-up, the left child winning ties in sift-down): the queue
   of the reference Dijkstra below. *)
module Swap_heap = struct
  type 'a t = { mutable keys : float array; mutable vals : 'a option array; mutable len : int }

  let create () = { keys = Array.make 16 0.; vals = Array.make 16 None; len = 0 }

  let swap t i j =
    let k = t.keys.(i) in
    t.keys.(i) <- t.keys.(j);
    t.keys.(j) <- k;
    let v = t.vals.(i) in
    t.vals.(i) <- t.vals.(j);
    t.vals.(j) <- v

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.keys.(i) < t.keys.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.len && t.keys.(l) < t.keys.(!smallest) then smallest := l;
    if r < t.len && t.keys.(r) < t.keys.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t key v =
    if t.len = Array.length t.keys then begin
      let cap = 2 * t.len in
      let keys = Array.make cap 0. and vals = Array.make cap None in
      Array.blit t.keys 0 keys 0 t.len;
      Array.blit t.vals 0 vals 0 t.len;
      t.keys <- keys;
      t.vals <- vals
    end;
    t.keys.(t.len) <- key;
    t.vals.(t.len) <- Some v;
    t.len <- t.len + 1;
    sift_up t (t.len - 1)

  let pop_min t =
    if t.len = 0 then None
    else begin
      let result = match t.vals.(0) with Some v -> Some (t.keys.(0), v) | None -> assert false in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.keys.(0) <- t.keys.(t.len);
        t.vals.(0) <- t.vals.(t.len)
      end;
      t.vals.(t.len) <- None;
      sift_down t 0;
      result
    end
end

(* The pre-kernel Dijkstra on a generic heap and [Graph] lists: the
   flat kernel must reproduce its pop order, hence its parents, also
   among the many equal keys of unit-length graphs. *)
let heap_dijkstra g src =
  let n = Graph.n_vertices g in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  let settled = Array.make n false and heap = Swap_heap.create () in
  dist.(src) <- 0.;
  Swap_heap.push heap 0. src;
  let rec drain () =
    match Swap_heap.pop_min heap with
    | None -> ()
    | Some (d, v) ->
        if not settled.(v) then begin
          settled.(v) <- true;
          List.iter
            (fun (w, len) ->
              if d +. len < dist.(w) then begin
                dist.(w) <- d +. len;
                parent.(w) <- v;
                Swap_heap.push heap (d +. len) w
              end)
            (Graph.neighbors g v)
        end;
        drain ()
  in
  drain ();
  (dist, parent)

let test_parents_match_heap_dijkstra () =
  let rng = Rng.create 11 in
  List.iter
    (fun g ->
      for src = 0 to Graph.n_vertices g - 1 do
        Alcotest.(check bool) "same distances and parents" true
          (Dijkstra.distances_with_parents g src = heap_dijkstra g src)
      done)
    [ Generators.grid2d 5 6; Generators.torus2d 4 5; Generators.cycle 9;
      Generators.complete 7; Generators.barbell 5; random_connected_graph 4 25;
      Generators.erdos_renyi rng 30 0.2 ]

let with_default_jobs jobs f =
  Qp_par.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Qp_par.Pool.set_default_jobs 1) f

(* (topology, extra nodes): a region table needs a node per region. *)
let topology_families =
  List.map (fun t -> (t, 0)) [ "tree"; "path"; "star"; "waxman"; "geometric" ]
  @ List.map (fun r -> ("region:" ^ r, 9)) (Qp_instance.Region.names ())

(* Every cell of the flat metric of [g], tree pass or heap, carries
   the oracle's exact bits at pool widths 1 and 3. *)
let matches_textbook g =
  let n = Graph.n_vertices g in
  let oracle = Array.init n (textbook_dijkstra g) in
  List.for_all
    (fun jobs ->
      let m = with_default_jobs jobs (fun () -> Metric.of_graph ~cache:false g) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Int64.bits_of_float (Metric.dist m i j) <> Int64.bits_of_float oracle.(i).(j)
          then ok := false
        done
      done;
      !ok)
    [ 1; 3 ]

let prop_metric_equals_textbook =
  QCheck.Test.make ~name:"Metric.of_graph = textbook Dijkstra bitwise"
    ~count:60
    QCheck.(triple (int_range 0 (List.length topology_families - 1))
              (int_range 1 40) small_int)
    (fun (fam, n, seed) ->
      let name, extra = List.nth topology_families fam in
      match Qp_instance.Spec.build_topology name (n + extra) (Rng.create seed) with
      | Error _ -> QCheck.assume_fail ()
      | Ok g -> matches_textbook g)

(* Trees at the benchmark's size with labels shuffled, so the preorder
   is not the id order: random trees, paths (the longest path up to
   the root) and stars (the shortest), lengths spread over six decades
   so that a sum formed in another order changes bits. *)
let random_labelled_tree rng n =
  let label = Rng.permutation rng n in
  let len () = (0.1 +. Rng.float rng 1.) *. (10. ** float_of_int (Rng.int rng 6 - 3)) in
  let g = Graph.create n in
  let shape = Rng.int rng 3 and hub = Rng.int rng n in
  for v = 1 to n - 1 do
    let u = match shape with 0 -> Rng.int rng v | 1 -> v - 1 | _ -> 0 in
    if shape = 2 then Graph.add_edge g hub ((hub + v) mod n) (len ())
    else Graph.add_edge g label.(u) label.(v) (len ())
  done;
  g

let prop_tree_rows_equal_textbook =
  QCheck.Test.make ~name:"tree rows = textbook Dijkstra bitwise up to n = 300"
    ~count:30
    QCheck.(pair (int_range 1 300) small_int)
    (fun (n, seed) -> matches_textbook (random_labelled_tree (Rng.create seed) n))

let apsp_work g =
  let n = Graph.n_vertices g in
  let d = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (n * n) in
  let reg = Qp_obs.Metrics.create () in
  Qp_obs.Metrics.with_current reg (fun () -> Apsp.repeated_dijkstra_into g d);
  let series = Qp_obs.Metrics.scalar_series reg in
  let get name = int_of_float (List.assoc name series) in
  (d, get "qp_apsp_heap_pops_total", get "qp_apsp_tree_rows_total")

let test_apsp_tree_walk_counters () =
  let _, pops, walked = apsp_work (Generators.random_tree (Rng.create 3) 30) in
  Alcotest.(check (pair int int)) "tree: no heap, every row walked" (0, 30)
    (pops, walked);
  let _, pops, walked = apsp_work (Generators.cycle 30) in
  Alcotest.(check bool) "cycle: heap rows" true (pops > 0 && walked = 0)

(* A lengthened tree edge re-runs the rows whose paths crossed it —
   on a tree every row — from the preorder, straight into the copied
   matrix: no heap pops, and the distances of a fresh APSP. *)
let test_tree_delta_rows () =
  let n = 200 in
  let g = Generators.random_tree (Rng.create 5) n in
  let base = Metric.of_graph ~cache:false g in
  let edges = Graph.edges g in
  let u0, v0, w0 = List.nth edges 17 in
  let g' =
    Graph.of_edges n
      ((u0, v0, w0 *. 3.) :: List.filter (fun (a, b, _) -> (a, b) <> (u0, v0)) edges)
  in
  let reg = Qp_obs.Metrics.create () in
  let inc =
    Qp_obs.Metrics.with_current reg (fun () ->
        Metric.of_graph_delta ~cache:false ~base ~base_graph:g g')
  in
  let fresh = Metric.of_graph ~cache:false g' in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check (float 1e-9)) "delta = fresh" (Metric.dist fresh i j)
        (Metric.dist inc i j)
    done
  done;
  let series = Qp_obs.Metrics.scalar_series reg in
  let get name = int_of_float (List.assoc name series) in
  Alcotest.(check (pair int int)) "no heap, every row re-run" (0, n)
    (get "qp_apsp_heap_pops_total", get "qp_apsp_tree_rows_total")

(* n - 1 edges but disconnected: a triangle plus an isolated vertex has
   a cycle, so the kernel must not walk it. *)
let test_apsp_disconnected_n_minus_1_edges () =
  let g = Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 1.); (0, 2, 1.) ] in
  let d, _, walked = apsp_work g in
  Alcotest.(check int) "not walked" 0 walked;
  for i = 0 to 3 do
    for j = 0 to 3 do
      let expect = if i = j then 0. else if i = 3 || j = 3 then infinity else 1. in
      Alcotest.(check (float 0.)) "cell" expect (Bigarray.Array1.get d ((i * 4) + j))
    done
  done

(* ------------------------------------------------------------------ *)
(* Metric                                                              *)
(* ------------------------------------------------------------------ *)

let test_metric_of_graph_triangle () =
  for seed = 1 to 10 do
    let g = random_connected_graph (100 + seed) 15 in
    let m = Metric.of_graph g in
    Alcotest.(check bool) "triangle holds" true (Metric.check_triangle m = None)
  done

(* Connectivity is read off the APSP result, cached or not, whichever
   component vertex 0 lies in, also with n - 1 edges (a triangle plus
   an isolated vertex, where the row kernel runs the heap). *)
let test_metric_rejects_disconnected () =
  let raises ?cache g =
    Alcotest.check_raises "disconnected"
      (Invalid_argument "Metric.of_graph: disconnected graph") (fun () ->
        ignore (Metric.of_graph ?cache g))
  in
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.0;
  raises g;
  raises ~cache:false g;
  let isolated_0 = Graph.of_edges 3 [ (1, 2, 1.0) ] in
  raises isolated_0;
  raises ~cache:false isolated_0;
  raises (Graph.of_edges 4 [ (1, 2, 1.0); (2, 3, 1.0); (1, 3, 1.0) ])

let test_metric_of_matrix_validation () =
  Alcotest.check_raises "asymmetric" (Invalid_argument "Metric.of_matrix: not symmetric")
    (fun () -> ignore (Metric.of_matrix [| [| 0.; 1. |]; [| 2.; 0. |] |]));
  Alcotest.check_raises "diag" (Invalid_argument "Metric.of_matrix: non-zero diagonal")
    (fun () -> ignore (Metric.of_matrix [| [| 1. |] |]))

let test_metric_triangle_detector () =
  (* d(0,2)=10 violates via middle point 1: 1 + 1 < 10. *)
  let m = Metric.of_matrix [| [| 0.; 1.; 10. |]; [| 1.; 0.; 1. |]; [| 10.; 1.; 0. |] |] in
  Alcotest.(check bool) "violation found" true (Metric.check_triangle m <> None)

let test_metric_nodes_by_distance () =
  let g = Generators.path 5 in
  let m = Metric.of_graph g in
  Alcotest.(check (array int)) "order from end" [| 4; 3; 2; 1; 0 |] (Metric.nodes_by_distance m 4);
  Alcotest.(check (array int)) "order from middle" [| 2; 1; 3; 0; 4 |] (Metric.nodes_by_distance m 2)

let test_metric_avg_and_diameter () =
  let m = Metric.of_graph (Generators.path 3) in
  check_float "diameter" 2.0 (Metric.diameter m);
  check_float "avg from end" 1.0 (Metric.average_distance m 0);
  check_float "avg from middle" (2. /. 3.) (Metric.average_distance m 1)

let test_metric_submetric_scale () =
  let m = Metric.of_graph (Generators.path 5) in
  let s = Metric.submetric m [| 0; 4 |] in
  Alcotest.(check int) "size" 2 (Metric.size s);
  check_float "kept distance" 4.0 (Metric.dist s 0 1);
  let sc = Metric.scale m 2.0 in
  check_float "scaled" 8.0 (Metric.dist sc 0 4)

(* ------------------------------------------------------------------ *)
(* Union-find / MST                                                    *)
(* ------------------------------------------------------------------ *)

let test_union_find () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "classes" 5 (Union_find.n_classes uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union dup" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "classes after" 4 (Union_find.n_classes uf)

let test_mst_known () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.0;
  Graph.add_edge g 1 2 2.0;
  Graph.add_edge g 2 3 1.0;
  Graph.add_edge g 0 3 10.0;
  Graph.add_edge g 0 2 2.5;
  let mst = Mst.kruskal g in
  Alcotest.(check int) "n-1 edges" 3 (List.length mst);
  check_float "weight" 4.0 (Mst.total_weight mst)

let test_mst_spans () =
  let rng = Rng.create 77 in
  let g, _ = Generators.random_geometric rng 30 0.3 in
  let mst = Mst.kruskal g in
  Alcotest.(check int) "spanning" (Graph.n_vertices g - 1) (List.length mst)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_generators_shapes () =
  Alcotest.(check int) "path edges" 9 (Graph.n_edges (Generators.path 10));
  Alcotest.(check int) "cycle edges" 10 (Graph.n_edges (Generators.cycle 10));
  Alcotest.(check int) "star edges" 9 (Graph.n_edges (Generators.star 10));
  Alcotest.(check int) "complete edges" 45 (Graph.n_edges (Generators.complete 10));
  Alcotest.(check int) "grid edges" 12 (Graph.n_edges (Generators.grid2d 3 3));
  Alcotest.(check int) "torus edges" 18 (Graph.n_edges (Generators.torus2d 3 3));
  Alcotest.(check int) "barbell vertices" 8 (Graph.n_vertices (Generators.barbell 4))

let test_generators_connected () =
  let rng = Rng.create 5 in
  let graphs =
    [
      Generators.random_tree rng 40;
      Generators.erdos_renyi rng 40 0.05;
      fst (Generators.random_geometric rng 40 0.2);
      fst (Generators.waxman rng 40 ());
      Generators.caterpillar rng 40;
      Generators.integrality_gap_graph 5;
    ]
  in
  List.iter (fun g -> Alcotest.(check bool) "connected" true (Graph.is_connected g)) graphs

let test_generators_tree_edge_count () =
  let rng = Rng.create 9 in
  let g = Generators.random_tree rng 25 in
  Alcotest.(check int) "tree edges" 24 (Graph.n_edges g)

let test_gap_graph_distances () =
  (* Distances from v0 sorted must be 0, then 1 x (n-k), then 2..k. *)
  let k = 5 in
  let g = Generators.integrality_gap_graph k in
  let n = k * k in
  Alcotest.(check int) "n = k^2" n (Graph.n_vertices g);
  let d = Dijkstra.distances g 0 in
  let sorted = Array.copy d in
  Array.sort compare sorted;
  check_float "self" 0. sorted.(0);
  for i = 1 to n - k do
    check_float "unit spokes" 1. sorted.(i)
  done;
  for j = 2 to k do
    check_float "tail path" (float_of_int j) sorted.(n - k + j - 1)
  done

let test_weighted_path () =
  let g = Generators.weighted_path [| 2.; 3.; 4. |] in
  let d = Dijkstra.distances g 0 in
  check_float "cumulative" 9.0 d.(3)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"graph metric satisfies triangle inequality" ~count:30
    QCheck.(pair small_int (int_range 4 25))
    (fun (seed, n) ->
      let g = random_connected_graph seed n in
      Metric.check_triangle (Metric.of_graph g) = None)

let prop_mst_weight_leq_any_spanning_subgraph =
  QCheck.Test.make ~name:"MST weight <= path-tree weight" ~count:30
    QCheck.(pair small_int (int_range 3 15))
    (fun (seed, n) ->
      let g = random_connected_graph seed n in
      let mst_w = Mst.total_weight (Mst.kruskal g) in
      (* Compare against the shortest-path tree from vertex 0. *)
      let _, parent = Dijkstra.distances_with_parents g 0 in
      let spt_w = ref 0. in
      Array.iteri
        (fun v p ->
          if p >= 0 then
            match Graph.edge_length g v p with Some l -> spt_w := !spt_w +. l | None -> ())
        parent;
      mst_w <= !spt_w +. 1e-9)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dijkstra_triangle; prop_mst_weight_leq_any_spanning_subgraph;
      prop_metric_equals_textbook; prop_tree_rows_equal_textbook ]

let suites =
  [
    ( "graph.core",
      [
        Alcotest.test_case "basic" `Quick test_graph_basic;
        Alcotest.test_case "parallel edges keep min" `Quick test_graph_parallel_edge_min;
        Alcotest.test_case "rejects invalid edges" `Quick test_graph_rejects;
        Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
        Alcotest.test_case "iter_edges visits once" `Quick test_graph_iter_edges_once;
        Alcotest.test_case "rejects non-finite lengths" `Quick test_graph_rejects_non_finite;
      ] );
    ( "graph.shortest_paths",
      [
        Alcotest.test_case "path graph" `Quick test_dijkstra_path_graph;
        Alcotest.test_case "weighted" `Quick test_dijkstra_weighted;
        Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "path reconstruction" `Quick test_dijkstra_path_reconstruction;
        Alcotest.test_case "dijkstra = floyd-warshall" `Quick test_apsp_dijkstra_equals_floyd;
        Alcotest.test_case "parents = generic-heap Dijkstra" `Quick
          test_parents_match_heap_dijkstra;
        Alcotest.test_case "tree walk work counters" `Quick test_apsp_tree_walk_counters;
        Alcotest.test_case "tree delta rows" `Quick test_tree_delta_rows;
        Alcotest.test_case "disconnected n-1 edges terminates" `Quick
          test_apsp_disconnected_n_minus_1_edges;
      ] );
    ( "graph.metric",
      [
        Alcotest.test_case "triangle inequality" `Quick test_metric_of_graph_triangle;
        Alcotest.test_case "rejects disconnected" `Quick test_metric_rejects_disconnected;
        Alcotest.test_case "matrix validation" `Quick test_metric_of_matrix_validation;
        Alcotest.test_case "violation detector" `Quick test_metric_triangle_detector;
        Alcotest.test_case "nodes by distance" `Quick test_metric_nodes_by_distance;
        Alcotest.test_case "avg + diameter" `Quick test_metric_avg_and_diameter;
        Alcotest.test_case "submetric + scale" `Quick test_metric_submetric_scale;
      ] );
    ( "graph.mst",
      [
        Alcotest.test_case "union-find" `Quick test_union_find;
        Alcotest.test_case "known instance" `Quick test_mst_known;
        Alcotest.test_case "spans" `Quick test_mst_spans;
      ] );
    ( "graph.generators",
      [
        Alcotest.test_case "shapes" `Quick test_generators_shapes;
        Alcotest.test_case "connectivity" `Quick test_generators_connected;
        Alcotest.test_case "tree edge count" `Quick test_generators_tree_edge_count;
        Alcotest.test_case "figure-1 gap graph distances" `Quick test_gap_graph_distances;
        Alcotest.test_case "weighted path" `Quick test_weighted_path;
      ] );
    ("graph.properties", qcheck_tests);
  ]
