open Qp_quorum
module Rng = Qp_util.Rng
module Combin = Qp_util.Combin

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Core                                                                *)
(* ------------------------------------------------------------------ *)

let test_make_normalizes () =
  let s = Quorum.make ~universe:4 [| [| 2; 0; 2; 1 |]; [| 1; 3 |] |] in
  Alcotest.(check (array int)) "sorted dedup" [| 0; 1; 2 |] (Quorum.quorum s 0);
  Alcotest.(check int) "sizes" 2 (Array.length (Quorum.quorum s 1))

let test_make_rejects () =
  Alcotest.check_raises "empty family" (Invalid_argument "Quorum.make: empty family")
    (fun () -> ignore (Quorum.make ~universe:3 [||]));
  Alcotest.check_raises "empty quorum" (Invalid_argument "Quorum.make: empty quorum")
    (fun () -> ignore (Quorum.make ~universe:3 [| [||] |]));
  Alcotest.check_raises "out of range" (Invalid_argument "Quorum.make: element out of range")
    (fun () -> ignore (Quorum.make ~universe:3 [| [| 5 |] |]));
  Alcotest.check_raises "non-intersecting"
    (Invalid_argument "Quorum.make: family is not pairwise intersecting") (fun () ->
      ignore (Quorum.make ~universe:4 [| [| 0; 1 |]; [| 2; 3 |] |]))

let test_mem_and_intersection () =
  let q1 = [| 0; 2; 4; 6 |] and q2 = [| 1; 2; 3; 6 |] in
  Alcotest.(check bool) "mem yes" true (Quorum.mem q1 4);
  Alcotest.(check bool) "mem no" false (Quorum.mem q1 3);
  Alcotest.(check bool) "intersect" true (Quorum.intersect q1 q2);
  Alcotest.(check (array int)) "intersection" [| 2; 6 |] (Quorum.intersection q1 q2);
  Alcotest.(check bool) "disjoint" false (Quorum.intersect [| 0; 1 |] [| 2; 3 |])

let test_element_quorums_degree () =
  let s = Simple_qs.triangle () in
  Alcotest.(check (list int)) "elt 0 in quorums" [ 0; 1 ] (Quorum.element_quorums s 0);
  Alcotest.(check (array int)) "degrees" [| 2; 2; 2 |] (Quorum.degree s)

let test_coterie_detection () =
  let s = Simple_qs.triangle () in
  Alcotest.(check bool) "triangle is coterie" true (Quorum.is_coterie s);
  let dominated = Quorum.make ~universe:3 [| [| 0; 1 |]; [| 0; 1; 2 |] |] in
  Alcotest.(check bool) "dominated not coterie" false (Quorum.is_coterie dominated)

(* ------------------------------------------------------------------ *)
(* Strategy                                                            *)
(* ------------------------------------------------------------------ *)

let test_strategy_uniform_valid () =
  let s = Grid_qs.make 3 in
  let p = Strategy.uniform s in
  Strategy.validate s p;
  check_float "each prob" (1. /. 9.) p.(0)

let test_strategy_validate_rejects () =
  let s = Simple_qs.triangle () in
  Alcotest.check_raises "bad length" (Invalid_argument "Strategy.validate: length mismatch")
    (fun () -> Strategy.validate s [| 1.0 |]);
  Alcotest.check_raises "negative"
    (Invalid_argument "Strategy.validate: negative probability") (fun () ->
      Strategy.validate s [| 1.5; -0.5; 0. |]);
  Alcotest.check_raises "bad sum"
    (Invalid_argument "Strategy.validate: probabilities do not sum to 1") (fun () ->
      Strategy.validate s [| 0.1; 0.1; 0.1 |])

let test_strategy_loads_triangle () =
  let s = Simple_qs.triangle () in
  let p = Strategy.uniform s in
  let loads = Strategy.loads s p in
  Array.iter (fun l -> check_float "balanced load" (2. /. 3.) l) loads;
  check_float "system load" (2. /. 3.) (Strategy.system_load s p);
  check_float "total = E|Q|" 2. (Strategy.total_load s p)

let test_strategy_loads_match_element_load () =
  let s = Grid_qs.make 3 in
  let p = Strategy.uniform s in
  let loads = Strategy.loads s p in
  for u = 0 to Quorum.universe s - 1 do
    check_float "agree" (Strategy.element_load s p u) loads.(u)
  done

let test_strategy_of_weights_and_mix () =
  let s = Simple_qs.triangle () in
  let p = Strategy.of_weights s [| 1.; 1.; 2. |] in
  check_float "normalized" 0.5 p.(2);
  let q = Strategy.uniform s in
  let m = Strategy.mix p q 0.5 in
  Strategy.validate s m;
  check_float "mixed" ((0.5 *. 0.25) +. (1. /. 6.)) m.(0)

let test_strategy_sampling_frequencies () =
  let p = [| 0.2; 0.3; 0.5 |] in
  let rng = Rng.create 99 in
  let counts = Array.make 3 0 in
  let trials = 50_000 in
  let sampler = Rng.sampler p in
  for _ = 1 to trials do
    let i = Rng.draw rng sampler in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. float_of_int trials in
      Alcotest.(check bool) "frequency close" true (Float.abs (freq -. p.(i)) < 0.01))
    counts

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_grid_shape () =
  let k = 4 in
  let s = Grid_qs.make k in
  Alcotest.(check int) "universe" (k * k) (Quorum.universe s);
  Alcotest.(check int) "quorum count" (k * k) (Quorum.n_quorums s);
  Array.iter
    (fun q -> Alcotest.(check int) "quorum size 2k-1" ((2 * k) - 1) (Array.length q))
    (Quorum.quorums s);
  Alcotest.(check bool) "intersecting" true (Quorum.all_intersecting s);
  Alcotest.(check int) "side" k (Grid_qs.side s)

let test_grid_quorum_contents () =
  let k = 3 in
  let s = Grid_qs.make k in
  (* Q_{i,j} has index i*k + j. Row 1 = {3,4,5}; column 2 = {2,5,8}. *)
  let q = Quorum.quorum s ((1 * k) + 2) in
  Alcotest.(check (array int)) "row+col" [| 2; 3; 4; 5; 8 |] q

let test_grid_load () =
  let k = 3 in
  let s = Grid_qs.make k in
  let p = Grid_qs.uniform_strategy s in
  let loads = Strategy.loads s p in
  Array.iter (fun l -> check_float "uniform load" (Grid_qs.element_load k) l) loads

let test_grid_k1 () =
  let s = Grid_qs.make 1 in
  Alcotest.(check int) "single quorum" 1 (Quorum.n_quorums s)

(* ------------------------------------------------------------------ *)
(* Majority                                                            *)
(* ------------------------------------------------------------------ *)

let test_majority_shape () =
  let s = Majority_qs.make ~n:7 ~t:4 in
  Alcotest.(check int) "count" (Combin.binomial 7 4) (Quorum.n_quorums s);
  Alcotest.(check bool) "intersecting" true (Quorum.all_intersecting s);
  Alcotest.(check bool) "coterie" true (Quorum.is_coterie s)

let test_majority_rejects_non_intersecting_threshold () =
  Alcotest.check_raises "t too small"
    (Invalid_argument "Majority_qs: 2t > n required for intersection") (fun () ->
      ignore (Majority_qs.make ~n:6 ~t:3))

let test_majority_uniform_load () =
  let n = 7 and t = 4 in
  let s = Majority_qs.make ~n ~t in
  let p = Strategy.uniform s in
  let loads = Strategy.loads s p in
  Array.iter (fun l -> check_float "load t/n" (float_of_int t /. float_of_int n) l) loads

let test_majority_counting_identity () =
  (* Eq. (19) counting: sum over i of C(n-i-1, t-1) = C(n, t). *)
  let n = 9 and t = 5 in
  let total = ref 0 in
  for i = 0 to n - t do
    total := !total + Majority_qs.quorums_containing_first_of ~n ~t i
  done;
  Alcotest.(check int) "partition of family" (Combin.binomial n t) !total

let test_majority_sampling () =
  let rng = Rng.create 4 in
  for _ = 1 to 100 do
    let q = Majority_qs.sample_quorum rng ~n:20 ~t:11 in
    Alcotest.(check int) "size t" 11 (Array.length q);
    let sorted = Array.copy q in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "sorted distinct" sorted q
  done

(* ------------------------------------------------------------------ *)
(* Tree                                                                *)
(* ------------------------------------------------------------------ *)

let test_tree_counts () =
  Alcotest.(check int) "depth 0" 1 (Tree_qs.n_quorums 0);
  Alcotest.(check int) "depth 1" 3 (Tree_qs.n_quorums 1);
  Alcotest.(check int) "depth 2" 15 (Tree_qs.n_quorums 2);
  let s = Tree_qs.make 2 in
  Alcotest.(check int) "universe" 7 (Quorum.universe s);
  Alcotest.(check int) "enumerated" 15 (Quorum.n_quorums s);
  Alcotest.(check bool) "intersecting" true (Quorum.all_intersecting s)

let test_tree_depth3_intersects () =
  let s = Tree_qs.make 3 in
  Alcotest.(check int) "universe" 15 (Quorum.universe s);
  Alcotest.(check int) "count" (Tree_qs.n_quorums 3) (Quorum.n_quorums s);
  Alcotest.(check bool) "intersecting" true (Quorum.all_intersecting s)

(* ------------------------------------------------------------------ *)
(* FPP                                                                 *)
(* ------------------------------------------------------------------ *)

let test_fpp_small_primes () =
  List.iter
    (fun q ->
      let s = Fpp_qs.make q in
      let n = (q * q) + q + 1 in
      Alcotest.(check int) "points" n (Quorum.universe s);
      Alcotest.(check int) "lines" n (Quorum.n_quorums s);
      Array.iter
        (fun line -> Alcotest.(check int) "line size" (q + 1) (Array.length line))
        (Quorum.quorums s);
      Alcotest.(check bool) "pairwise intersecting" true (Quorum.all_intersecting s);
      (* Any two lines meet in exactly one point. *)
      let qs = Quorum.quorums s in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          Alcotest.(check int) "exactly one common point" 1
            (Array.length (Quorum.intersection qs.(i) qs.(j)))
        done
      done)
    [ 2; 3; 5 ]

let test_fpp_balanced_load () =
  let q = 3 in
  let s = Fpp_qs.make q in
  let p = Strategy.uniform s in
  let loads = Strategy.loads s p in
  let expected = float_of_int (q + 1) /. float_of_int (Quorum.universe s) in
  Array.iter (fun l -> check_float "sqrt-n load" expected l) loads

let test_fpp_rejects () =
  Alcotest.check_raises "composite" (Invalid_argument "Fpp_qs.make: q must be prime")
    (fun () -> ignore (Fpp_qs.make 4));
  List.iter
    (fun q ->
      Alcotest.check_raises
        (Printf.sprintf "odd composite %d" q)
        (Invalid_argument "Fpp_qs.make: q must be prime")
        (fun () -> ignore (Fpp_qs.make q)))
    [ 9; 15; 25 ];
  let s = Fpp_qs.make 13 in
  Alcotest.(check int) "prime 13: universe" 183 (Quorum.universe s);
  Alcotest.(check int) "prime 13: lines" 183 (Quorum.n_quorums s)

(* ------------------------------------------------------------------ *)
(* Walls                                                               *)
(* ------------------------------------------------------------------ *)

let test_walls () =
  let widths = [ 1; 2; 3 ] in
  Alcotest.(check int) "count" ((2 * 3) + 3 + 1) (Walls_qs.n_quorums widths);
  let s = Walls_qs.make widths in
  Alcotest.(check int) "universe" 6 (Quorum.universe s);
  Alcotest.(check int) "enumerated" 10 (Quorum.n_quorums s);
  Alcotest.(check bool) "intersecting" true (Quorum.all_intersecting s)

let test_walls_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Walls_qs: empty wall") (fun () ->
      ignore (Walls_qs.make []));
  Alcotest.check_raises "bad width" (Invalid_argument "Walls_qs: non-positive row width")
    (fun () -> ignore (Walls_qs.make [ 2; 0 ]))

(* ------------------------------------------------------------------ *)
(* Simple                                                              *)
(* ------------------------------------------------------------------ *)

let test_simple_systems () =
  let star = Simple_qs.star 5 in
  Alcotest.(check int) "star quorums" 4 (Quorum.n_quorums star);
  Alcotest.(check bool) "star intersects" true (Quorum.all_intersecting star);
  let wheel = Simple_qs.wheel 5 in
  Alcotest.(check int) "wheel quorums" 5 (Quorum.n_quorums wheel);
  Alcotest.(check bool) "wheel intersects" true (Quorum.all_intersecting wheel);
  Alcotest.(check bool) "wheel coterie" true (Quorum.is_coterie wheel);
  let single = Simple_qs.singleton 4 2 in
  Alcotest.(check int) "singleton" 1 (Quorum.n_quorums single)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_grid_intersecting =
  QCheck.Test.make ~name:"grid systems pairwise intersect" ~count:8
    QCheck.(int_range 1 6)
    (fun k -> Quorum.all_intersecting (Grid_qs.make k))

let prop_majority_intersecting =
  QCheck.Test.make ~name:"majority systems pairwise intersect" ~count:20
    QCheck.(int_range 1 9)
    (fun n ->
      let t = (n / 2) + 1 in
      Quorum.all_intersecting (Majority_qs.make ~n ~t))

let prop_walls_intersecting =
  QCheck.Test.make ~name:"crumbling walls pairwise intersect" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 4) (int_range 1 4))
    (fun widths -> widths = [] || Quorum.all_intersecting (Walls_qs.make widths))

let prop_loads_sum_rule =
  QCheck.Test.make ~name:"sum of loads = expected quorum size" ~count:20
    QCheck.(int_range 2 5)
    (fun k ->
      let s = Grid_qs.make k in
      let p = Strategy.uniform s in
      Float.abs (Strategy.total_load s p -. float_of_int ((2 * k) - 1)) < 1e-9)

(* The linear-scan categorical the prefix-sum sampler replaced, kept
   as the oracle: one [Rng.float] of the total, then the first index
   whose running sum exceeds it, the last index as the fallback. *)
let linear_categorical rng w =
  let total = Array.fold_left ( +. ) 0. w in
  let r = Rng.float rng total in
  let n = Array.length w in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if r < acc then i else go (i + 1) acc
  in
  go 0 0.

(* Both draw the same index sequence from one seed and leave the two
   generators in the same state. *)
let same_draws ~seed ~draws w =
  let a = Rng.create seed and b = Rng.create seed in
  let sampler = Rng.sampler w in
  let ok = ref true in
  for _ = 1 to draws do
    if Rng.draw a sampler <> linear_categorical b w then ok := false
  done;
  !ok && Rng.int64 a = Rng.int64 b

(* Unnormalised weights built from runs of zeros and runs of values
   (some tiny), single non-zero weights, and length-1 arrays. *)
let gen_weights =
  let open QCheck.Gen in
  let value = frequency [ (4, float_range 0. 10.); (1, float_range 0. 1e-9); (1, return 1e6) ] in
  let run =
    int_range 1 6 >>= fun len ->
    bool >>= fun zero -> if zero then return (List.init len (fun _ -> 0.)) else list_repeat len value
  in
  let runs =
    list_size (int_range 1 12) run >>= fun rs ->
    let w = Array.of_list (List.concat rs) in
    if Array.exists (fun x -> x > 0.) w then return w
    else int_range 0 (Array.length w - 1) >|= fun i -> w.(i) <- 1.; w
  in
  let single =
    int_range 1 50 >>= fun n ->
    int_range 0 (n - 1) >>= fun i ->
    float_range 1e-6 1e3 >|= fun x -> Array.init n (fun j -> if j = i then x else 0.)
  in
  let one = float_range 1e-6 1e3 >|= fun x -> [| x |] in
  frequency [ (4, runs); (2, single); (1, one) ]

let prop_sampler_matches_linear_scan =
  QCheck.Test.make ~name:"sampler = linear-scan categorical" ~count:300
    QCheck.(pair small_nat (make ~print:Print.(array float) gen_weights))
    (fun (seed, w) -> same_draws ~seed ~draws:200 w)

(* The 126-quorum majority:9:5 uniform strategy and, over its 252-quorum
   read/write embedding, the 75/25 mix and the read-only strategy (126
   zero weights in one run). *)
let prop_sampler_matches_on_majority =
  let majority = Majority_qs.make ~n:9 ~t:5 in
  let rw =
    match Rw_qs.majority ~n:9 ~r:5 ~w:5 with Ok rw -> rw | Error _ -> assert false
  in
  let read = Strategy.uniform (Rw_qs.reads rw) and write = Strategy.uniform (Rw_qs.writes rw) in
  let strategies =
    [ Strategy.uniform majority;
      Rw_qs.mixed rw ~read ~write ~read_fraction:0.75;
      Rw_qs.read_only rw ~read ]
  in
  QCheck.Test.make ~name:"sampler = linear scan on majority strategies" ~count:20
    QCheck.small_nat
    (fun seed ->
      List.map Array.length strategies = [ 126; 252; 252 ]
      && List.for_all (same_draws ~seed ~draws:2000) strategies)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_grid_intersecting; prop_majority_intersecting; prop_walls_intersecting;
      prop_loads_sum_rule; prop_sampler_matches_linear_scan;
      prop_sampler_matches_on_majority;
    ]

let suites =
  [
    ( "quorum.core",
      [
        Alcotest.test_case "normalization" `Quick test_make_normalizes;
        Alcotest.test_case "validation" `Quick test_make_rejects;
        Alcotest.test_case "mem/intersection" `Quick test_mem_and_intersection;
        Alcotest.test_case "element quorums + degree" `Quick test_element_quorums_degree;
        Alcotest.test_case "coterie detection" `Quick test_coterie_detection;
      ] );
    ( "quorum.strategy",
      [
        Alcotest.test_case "uniform valid" `Quick test_strategy_uniform_valid;
        Alcotest.test_case "validation" `Quick test_strategy_validate_rejects;
        Alcotest.test_case "triangle loads" `Quick test_strategy_loads_triangle;
        Alcotest.test_case "loads = element_load" `Quick test_strategy_loads_match_element_load;
        Alcotest.test_case "weights + mix" `Quick test_strategy_of_weights_and_mix;
        Alcotest.test_case "sampling frequencies" `Quick test_strategy_sampling_frequencies;
      ] );
    ( "quorum.grid",
      [
        Alcotest.test_case "shape" `Quick test_grid_shape;
        Alcotest.test_case "contents" `Quick test_grid_quorum_contents;
        Alcotest.test_case "uniform load" `Quick test_grid_load;
        Alcotest.test_case "k = 1" `Quick test_grid_k1;
      ] );
    ( "quorum.majority",
      [
        Alcotest.test_case "shape" `Quick test_majority_shape;
        Alcotest.test_case "threshold check" `Quick test_majority_rejects_non_intersecting_threshold;
        Alcotest.test_case "uniform load t/n" `Quick test_majority_uniform_load;
        Alcotest.test_case "Eq.19 counting identity" `Quick test_majority_counting_identity;
        Alcotest.test_case "sampling" `Quick test_majority_sampling;
      ] );
    ( "quorum.tree",
      [
        Alcotest.test_case "counts + depth 2" `Quick test_tree_counts;
        Alcotest.test_case "depth 3 intersects" `Quick test_tree_depth3_intersects;
      ] );
    ( "quorum.fpp",
      [
        Alcotest.test_case "projective planes" `Quick test_fpp_small_primes;
        Alcotest.test_case "balanced load" `Quick test_fpp_balanced_load;
        Alcotest.test_case "primality" `Quick test_fpp_rejects;
      ] );
    ( "quorum.walls",
      [
        Alcotest.test_case "wall 1-2-3" `Quick test_walls;
        Alcotest.test_case "validation" `Quick test_walls_rejects;
      ] );
    ( "quorum.simple",
      [ Alcotest.test_case "star/wheel/singleton" `Quick test_simple_systems ] );
    ("quorum.properties", qcheck_tests);
  ]
