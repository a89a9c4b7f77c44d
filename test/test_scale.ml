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

(* The byte bound: a stream of distinct builds keeps the resident
   bytes within the budget, evicting oldest first, and a metric larger
   than the whole budget is returned uncached. Scoped caches with small
   budgets stand in for the 256 MB default, which the same stream only
   approaches with metrics of thousands of nodes. *)
let test_apsp_cache_budget () =
  let tree seed n = Qp_graph.Generators.random_tree (Rng.create seed) n in
  let within budget =
    Metric.with_private_apsp_cache ~budget_bytes:budget (fun () ->
        let ok = ref true in
        for i = 0 to 29 do
          let n = 20 + (i mod 7 * 5) in
          let (_ : Metric.t) = Metric.of_graph (tree i n) in
          if Metric.apsp_cache_bytes () > budget then ok := false
        done;
        let _, misses, _ = Metric.apsp_cache_stats () in
        (!ok, misses, Metric.apsp_cache_bytes ()))
  in
  let ok, misses, bytes = within 40_000 in
  Alcotest.(check bool) "small budget holds after every build" true ok;
  Alcotest.(check int) "every build a miss" 30 misses;
  Alcotest.(check bool) "the budget is used" true (bytes > 40_000 / 2);
  let ok, _, _ = within Metric.apsp_cache_budget_bytes in
  Alcotest.(check bool) "default budget holds" true ok;
  Alcotest.(check int) "default budget is 256 MB" (256 * 1024 * 1024)
    Metric.apsp_cache_budget_bytes;
  Metric.with_private_apsp_cache ~budget_bytes:(8 * 30 * 30 - 1) (fun () ->
      let g = tree 7 30 in
      let (_ : Metric.t) = Metric.of_graph g in
      let (_ : Metric.t) = Metric.of_graph g in
      Alcotest.(check int) "oversized metric not cached" 0 (Metric.apsp_cache_bytes ());
      Alcotest.(check (triple int int int)) "so both builds miss" (0, 2, 0)
        (Metric.apsp_cache_stats ()))

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

(* ------------------------------------------------------------------ *)
(* Metric scans = the per-entry loops they replace                     *)
(* ------------------------------------------------------------------ *)

(* Reference copies of the loops that ran one [Metric.dist] call per
   entry in Metric.of_matrix, Problem validation and the tree solver
   before those scans moved into Metric as flat loops. Each scan must
   give the same message, parents, verdict or float bits. *)

exception Refused of string

let old_of_matrix_check d =
  let n = Array.length d in
  try
    for i = 0 to n - 1 do
      if d.(i).(i) <> 0. then raise (Refused "Metric.of_matrix: non-zero diagonal");
      for j = 0 to n - 1 do
        if not (Float.is_finite d.(i).(j)) then
          raise (Refused "Metric.of_matrix: non-finite distance");
        if d.(i).(j) < 0. then raise (Refused "Metric.of_matrix: negative distance");
        if not (Qp_util.Floatx.approx d.(i).(j) d.(j).(i)) then
          raise (Refused "Metric.of_matrix: not symmetric")
      done
    done;
    None
  with Refused msg -> Some msg

let old_problem_check metric =
  let n = Metric.size metric in
  try
    for i = 0 to n - 1 do
      if not (Float.is_finite (Metric.dist metric i i)) then
        raise (Refused "Problem: non-finite metric entry");
      if Metric.dist metric i i <> 0. then
        raise (Refused "Problem: metric diagonal must be zero");
      for j = i + 1 to n - 1 do
        let d = Metric.dist metric i j in
        if not (Float.is_finite d) then raise (Refused "Problem: non-finite metric entry");
        if d < 0. then raise (Refused "Problem: negative metric entry");
        if not (Qp_util.Floatx.approx d (Metric.dist metric j i)) then
          raise (Refused "Problem: metric must be symmetric")
      done
    done;
    None
  with Refused msg -> Some msg

let old_mst_parent metric =
  let n = Metric.size metric in
  let parent = Array.make n (-1) in
  let in_tree = Array.make n false in
  let best = Array.make n infinity in
  let best_from = Array.make n (-1) in
  in_tree.(0) <- true;
  for v = 1 to n - 1 do
    best.(v) <- Metric.dist metric 0 v;
    best_from.(v) <- 0
  done;
  for _ = 1 to n - 1 do
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not in_tree.(v)) && (!u < 0 || best.(v) < best.(!u)) then u := v
    done;
    let u = !u in
    in_tree.(u) <- true;
    parent.(u) <- best_from.(u);
    for v = 0 to n - 1 do
      if not in_tree.(v) then begin
        let d = Metric.unsafe_dist metric u v in
        if d < best.(v) then begin
          best.(v) <- d;
          best_from.(v) <- u
        end
      end
    done
  done;
  parent

(* The tree check before the preorder kernel: a stack walk from each
   source over the MST's adjacency lists, then a separate compare pass
   over the row. Kept here so the oracle shares no code with the
   kernel under test. *)
let old_is_tree_metric metric =
  let n = Metric.size metric in
  if n <= 2 then true
  else begin
    let parent = old_mst_parent metric in
    let adj = Array.make n [] in
    for c = 1 to n - 1 do
      let p = parent.(c) in
      let l = Metric.dist metric p c in
      adj.(c) <- (p, l) :: adj.(c);
      adj.(p) <- (c, l) :: adj.(p)
    done;
    let dist = Array.make n 0. and from = Array.make n (-1) in
    let ok = ref true in
    for s = 0 to n - 1 do
      dist.(s) <- 0.;
      from.(s) <- -1;
      let stack = ref [ s ] in
      while !stack <> [] do
        let v = List.hd !stack in
        stack := List.tl !stack;
        List.iter
          (fun (w, l) ->
            if w <> from.(v) then begin
              dist.(w) <- dist.(v) +. l;
              from.(w) <- v;
              stack := w :: !stack
            end)
          adj.(v)
      done;
      for v = 0 to n - 1 do
        let dm = Metric.unsafe_dist metric s v in
        if Float.abs (dist.(v) -. dm) > 1e-6 *. Float.max 1. dm then ok := false
      done
    done;
    !ok
  end

let old_two_center_sum metric rates a b =
  let acc = ref 0. in
  for v = 0 to Metric.size metric - 1 do
    if rates.(v) > 0. then
      acc :=
        !acc
        +. rates.(v)
           *. Float.max (Metric.unsafe_dist metric v a) (Metric.unsafe_dist metric v b)
  done;
  !acc

let refusal f = match f () with _ -> None | exception Invalid_argument m -> Some m

(* A symmetric matrix with a zero diagonal — small integers (ties,
   zero distances) or floats, sometimes off symmetry by a relative
   1e-12 — with up to three entries, diagonal ones included, replaced
   by NaN, an infinity, a large or tiny negative, an asymmetric value,
   a value within the symmetry tolerance, or a non-zero diagonal. *)
let defective_matrix rng =
  let n = 1 + Rng.int rng 7 in
  let ints = Rng.bool rng in
  let d = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = if ints then float_of_int (Rng.int rng 4) else Rng.float rng 10. in
      d.(i).(j) <- x;
      d.(j).(i) <- (if Rng.int rng 4 = 0 then x *. (1. +. 1e-12) else x)
    done
  done;
  for _ = 1 to Rng.int rng 4 do
    let i = Rng.int rng n and j = Rng.int rng n in
    d.(i).(j) <-
      (match Rng.int rng 8 with
      | 0 -> Float.nan
      | 1 -> Float.infinity
      | 2 -> Float.neg_infinity
      | 3 -> -1. -. Rng.float rng 5.
      | 4 -> -1e-12
      | 5 -> d.(i).(j) +. 1.
      | 6 -> d.(i).(j) *. (1. +. 1e-10)
      | _ -> 0.5)
  done;
  d

let prop_entry_check_as_before =
  QCheck.Test.make ~name:"Metric.first_defect = the old of_matrix and Problem loops"
    ~count:1000 QCheck.int (fun seed ->
      let d = defective_matrix (Rng.create seed) in
      let n = Array.length d in
      let system = Qp_quorum.Simple_qs.triangle () in
      let unchecked = Metric.of_matrix_unchecked d in
      refusal (fun () -> Metric.of_matrix d) = old_of_matrix_check d
      && refusal (fun () ->
             Problem.make_qpp ~metric:unchecked ~capacities:(Array.make n 1.) ~system
               ~strategy:(Qp_quorum.Strategy.uniform system) ())
         = old_problem_check unchecked)

(* Prim's tie rule matters off trees: integer lengths make many
   equal keys. *)
let prop_mst_parent_as_before =
  QCheck.Test.make ~name:"Metric.mst_parent = the old Prim loop, ties included"
    ~count:300 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 30 in
      let m =
        match Rng.int rng 3 with
        | 0 -> Metric.of_graph ~cache:false (Qp_graph.Generators.random_tree rng n)
        | 1 ->
            let g = random_connected_graph_rng rng n in
            let g' = Graph.create n in
            Graph.iter_edges g (fun u v _ ->
                Graph.add_edge g' u v (float_of_int (1 + Rng.int rng 3)));
            Metric.of_graph ~cache:false g'
        | _ ->
            let d = Array.make_matrix n n 0. in
            for i = 0 to n - 1 do
              for j = i + 1 to n - 1 do
                d.(i).(j) <- float_of_int (Rng.int rng 3);
                d.(j).(i) <- d.(i).(j)
              done
            done;
            Metric.of_matrix d
      in
      Metric.mst_parent m = old_mst_parent m)

(* Tree metrics, then one entry (or a symmetric pair) moved by a
   relative 0, 4e-7, 2e-6 (either side of the 1e-6 tolerance) or 1e-3. *)
let prop_tree_verdict_as_before =
  QCheck.Test.make ~name:"is_tree_metric = the old row loop on trees and perturbed trees"
    ~count:300 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 300 in
      let m = Metric.of_graph ~cache:false (Qp_graph.Generators.random_tree rng n) in
      let d = Array.init n (fun a -> Array.init n (Metric.dist m a)) in
      let i = Rng.int rng n and j = Rng.int rng n in
      let rel = [| 0.; 4e-7; 2e-6; 1e-3 |].(Rng.int rng 4) in
      d.(i).(j) <- d.(i).(j) +. (rel *. Float.max 1. d.(i).(j));
      if Rng.bool rng then d.(j).(i) <- d.(i).(j);
      let perturbed = Metric.of_matrix_unchecked d in
      Tree_place.is_tree_metric m = old_is_tree_metric m
      && Tree_place.is_tree_metric perturbed = old_is_tree_metric perturbed)

(* Random rates, some zero, over tree metrics and over matrices a
   relative 1e-12 off symmetry, so that summing in another order or
   reading d(a, v) for d(v, a) changes bits. *)
let rated_metric rng n =
  let m =
    let t = Metric.of_graph ~cache:false (Qp_graph.Generators.random_tree rng n) in
    if Rng.bool rng then t
    else
      Metric.of_matrix
        (Array.init n (fun a ->
             Array.init n (fun b ->
                 let x = Metric.dist t a b in
                 if a > b then x *. (1. +. 1e-12) else x)))
  in
  let rates =
    Array.init n (fun _ -> if Rng.int rng 4 = 0 then 0. else Rng.float rng 3.)
  in
  (m, rates)

let prop_two_center_bits_as_before =
  QCheck.Test.make ~name:"Metric.weighted_max_sum = the old two-center loop bitwise"
    ~count:300 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 40 in
      let m, rates = rated_metric rng n in
      let a = Rng.int rng n and b = Rng.int rng n in
      Int64.bits_of_float (Metric.weighted_max_sum m rates a b)
      = Int64.bits_of_float (old_two_center_sum m rates a b))

(* The one-center pass reads d(v, a) row by row where
   [weighted_max_sum] walks column a: reading d(a, v) instead would
   change bits on the asymmetric matrices, and so would summing the
   terms in another order. *)
let prop_one_center_bits =
  QCheck.Test.make ~name:"Metric.one_center_sums = weighted_max_sum m r v v bitwise"
    ~count:100 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 300 in
      let m, rates = rated_metric rng n in
      let sums = Metric.one_center_sums m rates in
      Array.length sums = n
      && Array.for_all Fun.id
           (Array.init n (fun v ->
                Int64.bits_of_float sums.(v)
                = Int64.bits_of_float (Metric.weighted_max_sum m rates v v))))

(* Copies of the loops that [Problem.avg_dist] and
   [Graph_props.one_median] replaced (the rate-weighted sum of
   Qpp_solver.run, Relay.relay_delay_via and Total_delay.avg_dist_to;
   the argmin of Design.one_median and Baselines.lin_single_node). The
   unweighted mean is spelled out rather than calling
   [Metric.average_distance], so the oracles share no code with the
   functions under test. *)
let old_mean_dist m v0 =
  let n = Metric.size m in
  if n = 0 then 0.
  else begin
    let sum = ref 0. in
    for v = 0 to n - 1 do
      sum := !sum +. Metric.dist m v v0
    done;
    !sum /. float_of_int n
  end

let old_avg_dist (p : Problem.qpp) v0 =
  match p.Problem.client_rates with
  | None -> old_mean_dist p.Problem.metric v0
  | Some rates ->
      let total = Array.fold_left ( +. ) 0. rates in
      let acc = ref 0. in
      Array.iteri
        (fun v rate ->
          if rate > 0. then acc := !acc +. (rate *. Metric.dist p.Problem.metric v v0))
        rates;
      !acc /. total

let old_one_median m =
  let best = ref 0 and best_cost = ref infinity in
  for v = 0 to Metric.size m - 1 do
    let c = old_mean_dist m v in
    if c < !best_cost then begin
      best_cost := c;
      best := v
    end
  done;
  !best

(* Distances drawn from [lo, hi] with hi <= 2 lo always form a metric. *)
let random_metric n ~draw =
  let d = Array.make_matrix n n 0. in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let x = draw () in
      d.(a).(b) <- x;
      d.(b).(a) <- x
    done
  done;
  Metric.of_matrix d

let qpp_on m rates =
  let system = Qp_quorum.Simple_qs.triangle () in
  Problem.make_qpp ~metric:m ~capacities:(Array.make (Metric.size m) 3.) ~system
    ~strategy:(Qp_quorum.Strategy.uniform system) ?client_rates:rates ()

(* Rates: none, a quarter of them zero, or spread over six decades, so
   that summing in another order changes bits. *)
let prop_avg_dist_as_before =
  QCheck.Test.make ~name:"Problem.avg_dist = the old rate-weighted loop bitwise"
    ~count:300 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 40 in
      let m = random_metric n ~draw:(fun () -> 1. +. Rng.float rng 1.) in
      let rates =
        match Rng.int rng 3 with
        | 0 -> None
        | 1 ->
            Some
              (Array.init n (fun v ->
                   if v = 0 || Rng.int rng 4 > 0 then 0.1 +. Rng.float rng 3. else 0.))
        | _ -> Some (Array.init n (fun _ -> 10. ** (Rng.float rng 6. -. 3.)))
      in
      let p = qpp_on m rates in
      List.for_all
        (fun v0 ->
          Int64.bits_of_float (Problem.avg_dist p v0)
          = Int64.bits_of_float (old_avg_dist p v0))
        (List.init n Fun.id))

(* Distances in {1, 2} make tied minima common: the lowest id must win
   for the shared argmin and for both callers that used to copy it. *)
let prop_one_median_as_before =
  QCheck.Test.make ~name:"Graph_props.one_median = the old argmin on ties" ~count:300
    QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 8 in
      let m = random_metric n ~draw:(fun () -> float_of_int (1 + Rng.int rng 2)) in
      let want = old_one_median m in
      Qp_graph.Graph_props.one_median m = want
      && fst (Baselines.lin_single_node (qpp_on m None)) = want
      && fst (Qp_design.Design.lin_median_design m) = want)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_flat_equals_boxed_dijkstra; prop_blocked_fw_equals_boxed;
      prop_blocked_fw_multiblock; prop_dijkstra_into_equals_boxed;
      prop_tree_equals_exhaustive; prop_tree_no_worse_than_lp;
      prop_tree_check_exact; prop_entry_check_as_before; prop_mst_parent_as_before;
      prop_tree_verdict_as_before; prop_two_center_bits_as_before; prop_one_center_bits;
      prop_avg_dist_as_before; prop_one_median_as_before ]

let suites =
  [
    ( "scale.core",
      [
        Alcotest.test_case "apsp cache bytes" `Quick test_apsp_cache_bytes;
        Alcotest.test_case "apsp cache byte budget" `Quick test_apsp_cache_budget;
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
