open Qp_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniform_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let u = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0. && u < 1.)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 5 in
  let xs = Array.init 20000 (fun _ -> Rng.uniform rng) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (m -. 0.5) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let xs = Array.init 20000 (fun _ -> Rng.exponential rng 2.0) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (m -. 0.5) < 0.03)

let test_rng_permutation () =
  let rng = Rng.create 13 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    let s = Rng.sample_distinct rng 5 12 in
    Alcotest.(check int) "size" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < 12)) s
  done

let test_rng_split_independent () =
  let a = Rng.create 23 in
  let b = Rng.split a in
  let xa = Rng.int64 a and xb = Rng.int64 b in
  Alcotest.(check bool) "distinct streams" true (xa <> xb)

let test_rng_categorical () =
  let rng = Rng.create 29 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30000 do
    let i = Rng.categorical rng [| 1.; 2.; 1. |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac1 = float_of_int counts.(1) /. 30000. in
  Alcotest.(check bool) "middle weight dominates" true (Float.abs (frac1 -. 0.5) < 0.03);
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.sampler: weights must have positive sum") (fun () ->
      ignore (Rng.categorical rng [| 0.; 0. |]))

let test_rng_sampler_validation () =
  List.iter
    (fun (name, w, msg) ->
      Alcotest.check_raises name (Invalid_argument ("Rng.sampler: " ^ msg)) (fun () ->
          ignore (Rng.sampler w)))
    [ ("empty", [||], "empty weights");
      ("negative", [| 1.; -0.5 |], "weights must be finite and non-negative");
      ("nan", [| nan; 1. |], "weights must be finite and non-negative");
      ("infinite", [| 1.; infinity |], "weights must be finite and non-negative");
      ("zero sum", [| 0.; 0.; 0. |], "weights must have positive sum");
      ("overflowing sum", [| max_float; max_float |], "weights must have positive sum") ];
  (* A zero weight is never drawn, whatever its position. *)
  let rng = Rng.create 3 and s = Rng.sampler [| 0.; 2.; 0.; 0.; 1.; 0. |] in
  for _ = 1 to 2000 do
    let i = Rng.draw rng s in
    Alcotest.(check bool) "positive weight" true (i = 1 || i = 4)
  done

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_variance () =
  check_float "variance" (5. /. 3.) (Stats.variance [| 1.; 2.; 3.; 4. |])

let test_stats_min_max () =
  check_float "min" (-2.) (Stats.min [| 3.; -2.; 7. |]);
  check_float "max" 7. (Stats.max [| 3.; -2.; 7. |])

let test_stats_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Stats.median xs);
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 5. (Stats.percentile xs 100.);
  check_float "p25" 2. (Stats.percentile xs 25.)

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty input") (fun () ->
      ignore (Stats.mean [||]))

let test_stats_online_matches_batch () =
  let rng = Rng.create 31 in
  let xs = Array.init 500 (fun _ -> Rng.uniform rng *. 10.) in
  let o = Stats.online_create () in
  Array.iter (Stats.online_add o) xs;
  Alcotest.(check bool) "mean matches" true
    (Float.abs (Stats.online_mean o -. Stats.mean xs) < 1e-9);
  Alcotest.(check bool) "stddev matches" true
    (Float.abs (Stats.online_stddev o -. Stats.stddev xs) < 1e-9)

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3. |] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  check_float "mean" 2. s.Stats.mean

let test_stats_nonfinite () =
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Stats.percentile: non-finite input") (fun () ->
      ignore (Stats.percentile [| 1.; Float.nan |] 50.));
  Alcotest.check_raises "inf rejected"
    (Invalid_argument "Stats.summarize: non-finite input") (fun () ->
      ignore (Stats.summarize [| 1.; Float.infinity |]))

let test_stats_online_merge_edges () =
  let a = Stats.online_create () and b = Stats.online_create () in
  Alcotest.(check int) "empty + empty" 0 (Stats.online_count (Stats.online_merge a b));
  Array.iter (Stats.online_add a) [| 1.; 2.; 3. |];
  let one_sided = Stats.online_merge a b in
  Alcotest.(check int) "count vs empty" 3 (Stats.online_count one_sided);
  check_float "mean vs empty" 2. (Stats.online_mean one_sided);
  check_float "stddev vs empty" 1. (Stats.online_stddev one_sided)

(* ------------------------------------------------------------------ *)
(* Combin                                                              *)
(* ------------------------------------------------------------------ *)

let test_binomial_values () =
  Alcotest.(check int) "C(5,2)" 10 (Combin.binomial 5 2);
  Alcotest.(check int) "C(10,0)" 1 (Combin.binomial 10 0);
  Alcotest.(check int) "C(10,10)" 1 (Combin.binomial 10 10);
  Alcotest.(check int) "C(10,11)" 0 (Combin.binomial 10 11);
  Alcotest.(check int) "C(10,-1)" 0 (Combin.binomial 10 (-1));
  Alcotest.(check int) "C(52,5)" 2598960 (Combin.binomial 52 5)

let test_binomial_pascal () =
  for n = 1 to 30 do
    for k = 1 to n - 1 do
      Alcotest.(check int) "pascal" (Combin.binomial n k)
        (Combin.binomial (n - 1) (k - 1) + Combin.binomial (n - 1) k)
    done
  done

let test_factorial () =
  Alcotest.(check int) "0!" 1 (Combin.factorial 0);
  Alcotest.(check int) "5!" 120 (Combin.factorial 5);
  Alcotest.(check int) "12!" 479001600 (Combin.factorial 12)

let test_overflow_detection () =
  (* 63-bit ints hold 20! but not 21!. *)
  Alcotest.(check bool) "20! fits" true (Combin.factorial 20 > 0);
  Alcotest.check_raises "21! overflows" (Failure "Combin: 63-bit overflow") (fun () ->
      ignore (Combin.factorial 21));
  Alcotest.check_raises "C(70,35) overflows" (Failure "Combin: 63-bit overflow")
    (fun () -> ignore (Combin.binomial 70 35));
  (* The float fallback still works there. *)
  Alcotest.(check bool) "log binomial finite" true
    (Float.is_finite (Combin.log_binomial 70 35))

let test_choose_iter_counts () =
  let count = ref 0 in
  Combin.choose_iter 6 3 (fun _ -> incr count);
  Alcotest.(check int) "C(6,3) subsets" 20 !count;
  let subsets = ref [] in
  Combin.choose_iter 4 2 (fun s -> subsets := s :: !subsets);
  let subsets = !subsets in
  Alcotest.(check int) "C(4,2)" 6 (List.length subsets);
  Alcotest.(check bool) "all sorted distinct" true
    (List.for_all (fun s -> List.sort compare s = s) subsets)

let test_log_binomial () =
  let exact = log (float_of_int (Combin.binomial 30 15)) in
  Alcotest.(check bool) "log binomial accurate" true
    (Float.abs (Combin.log_binomial 30 15 -. exact) < 1e-8)

(* ------------------------------------------------------------------ *)
(* Floatx                                                              *)
(* ------------------------------------------------------------------ *)

let test_floatx () =
  Alcotest.(check bool) "approx" true (Floatx.approx 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "not approx" false (Floatx.approx 1.0 1.1);
  Alcotest.(check bool) "leq slack" true (Floatx.leq (1.0 +. 1e-12) 1.0);
  Alcotest.(check bool) "leq strict fail" false (Floatx.leq 1.1 1.0)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Table.create ~title:"demo" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_rowf t "yy|%d" 22;
  let s = Table.render t in
  Alcotest.(check bool) "contains title" true
    (String.length s > 0 && String.sub s 0 4 = "demo");
  Alcotest.(check bool) "contains formatted row" true (contains s "yy" && contains s "22")

let test_table_manual_contains () =
  let t = Table.create [ ("col", Table.Left) ] in
  Table.add_row t [ "value" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (contains s "col");
  Alcotest.(check bool) "has value" true (contains s "value")

let test_table_mismatch () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Alcotest.check_raises "bad row" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_binomial_symmetry =
  QCheck.Test.make ~name:"binomial symmetric" ~count:200
    QCheck.(pair (int_range 0 40) (int_range 0 40))
    (fun (n, k) -> Combin.binomial n k = Combin.binomial n (n - k) || k > n)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in q" ~count:100
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 30) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (q1, q2)) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

(* [Stats.sort] against [Array.sort Float.compare], bit for bit, on
   arrays full of duplicates, signed zeros, subnormals, infinities and
   NaNs of two payloads: the same heap sort must give the same
   permutation, so -0. and 0. land in the same places. *)
let prop_sort_matches_stdlib =
  let specials =
    [ 0.; -0.; 1.; -1.; 5e-324; -5e-324; 2.2250738585072009e-308; 1e-310; -1e-310;
      infinity; neg_infinity; nan; Int64.float_of_bits 0x7ff8000000000002L;
      Int64.float_of_bits 0xfff8000000000000L; 3.5; 3.5 ]
  in
  let gen =
    QCheck.Gen.(
      array_size (int_range 0 80)
        (frequency
           [ (3, oneofl specials); (2, map float_of_int (int_range (-3) 3));
             (1, float_range (-1e3) 1e3) ]))
  in
  QCheck.Test.make ~name:"float sort = Array.sort Float.compare" ~count:500
    (QCheck.make ~print:QCheck.Print.(array float) gen)
    (fun xs ->
      let ours = Array.copy xs and theirs = Array.copy xs in
      Stats.sort ours;
      Array.sort Float.compare theirs;
      Array.map Int64.bits_of_float ours = Array.map Int64.bits_of_float theirs)

let prop_online_merge_matches_single_stream =
  QCheck.Test.make ~name:"online merge = single stream" ~count:200
    QCheck.(pair (array (float_range (-50.) 50.)) (array (float_range (-50.) 50.)))
    (fun (xs, ys) ->
      let a = Stats.online_create () and b = Stats.online_create () in
      Array.iter (Stats.online_add a) xs;
      Array.iter (Stats.online_add b) ys;
      let merged = Stats.online_merge a b in
      let single = Stats.online_create () in
      Array.iter (Stats.online_add single) xs;
      Array.iter (Stats.online_add single) ys;
      Stats.online_count merged = Stats.online_count single
      && Float.abs (Stats.online_mean merged -. Stats.online_mean single) < 1e-9
      && Float.abs (Stats.online_stddev merged -. Stats.online_stddev single) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basics () =
  let l = Lru.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Lru.capacity l);
  Alcotest.(check int) "empty" 0 (Lru.length l);
  Lru.put l "a" 1;
  Lru.put l "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find l "a");
  Alcotest.(check (option int)) "miss" None (Lru.find l "zzz");
  Lru.put l "a" 10;
  Alcotest.(check (option int)) "overwrite" (Some 10) (Lru.find l "a");
  Alcotest.(check int) "overwrite keeps length" 2 (Lru.length l);
  Lru.remove l "a";
  Alcotest.(check bool) "removed" false (Lru.mem l "a");
  Alcotest.(check int) "remove is not an eviction" 0 (Lru.evictions l)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 in
  Lru.put l "a" 1;
  Lru.put l "b" 2;
  (* touching [a] makes [b] the LRU, so the next insert evicts [b] *)
  ignore (Lru.find l "a");
  Lru.put l "c" 3;
  Alcotest.(check bool) "a survives (promoted)" true (Lru.mem l "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem l "b");
  Alcotest.(check bool) "c present" true (Lru.mem l "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions l);
  Alcotest.(check int) "bounded" 2 (Lru.length l);
  (* fold is recency order, most recent first *)
  Alcotest.(check (list string)) "recency order" [ "c"; "a" ]
    (List.rev (Lru.fold l ~init:[] ~f:(fun acc k _ -> k :: acc)))

let test_lru_bound_under_churn () =
  let l = Lru.create ~capacity:4 in
  for i = 1 to 100 do
    Lru.put l (string_of_int i) i;
    Alcotest.(check bool) "length <= capacity" true (Lru.length l <= 4)
  done;
  Alcotest.(check int) "evictions = inserts - capacity" 96 (Lru.evictions l);
  (* the survivors are exactly the last four inserts *)
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "%d present" i) true
        (Lru.mem l (string_of_int i)))
    [ 97; 98; 99; 100 ]

let test_lru_zero_capacity_and_clear () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity:(-1) : (int, int) Lru.t));
  let off = Lru.create ~capacity:0 in
  Lru.put off 1 1;
  Alcotest.(check int) "capacity 0 stores nothing" 0 (Lru.length off);
  Alcotest.(check (option int)) "capacity 0 always misses" None (Lru.find off 1);
  Alcotest.(check int) "no-op put is not an eviction" 0 (Lru.evictions off);
  let l = Lru.create ~capacity:2 in
  Lru.put l 1 1;
  Lru.put l 2 2;
  Lru.put l 3 3;
  Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Lru.length l);
  Alcotest.(check int) "clear keeps the eviction count" 1 (Lru.evictions l);
  (* reusable after clear *)
  Lru.put l 9 9;
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Lru.find l 9)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (array small_int))
    (fun (seed, a) ->
      let b = Array.copy a in
      Rng.shuffle (Rng.create seed) b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_binomial_symmetry; prop_percentile_monotone; prop_sort_matches_stdlib;
      prop_online_merge_matches_single_stream; prop_shuffle_preserves_multiset ]

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int rejects bound<=0" `Quick test_rng_int_rejects_nonpositive;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "permutation" `Quick test_rng_permutation;
        Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "categorical" `Quick test_rng_categorical;
        Alcotest.test_case "sampler validation" `Quick test_rng_sampler_validation;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "min/max" `Quick test_stats_min_max;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "empty input" `Quick test_stats_empty;
        Alcotest.test_case "online = batch" `Quick test_stats_online_matches_batch;
        Alcotest.test_case "non-finite rejected" `Quick test_stats_nonfinite;
        Alcotest.test_case "online merge edge cases" `Quick test_stats_online_merge_edges;
        Alcotest.test_case "summary" `Quick test_stats_summary;
      ] );
    ( "util.combin",
      [
        Alcotest.test_case "binomial values" `Quick test_binomial_values;
        Alcotest.test_case "pascal identity" `Quick test_binomial_pascal;
        Alcotest.test_case "factorial" `Quick test_factorial;
        Alcotest.test_case "overflow detection" `Quick test_overflow_detection;
        Alcotest.test_case "choose_iter counts" `Quick test_choose_iter_counts;
        Alcotest.test_case "log binomial" `Quick test_log_binomial;
      ] );
    ( "util.floatx",
      [ Alcotest.test_case "comparisons" `Quick test_floatx ] );
    ( "util.lru",
      [
        Alcotest.test_case "basics" `Quick test_lru_basics;
        Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
        Alcotest.test_case "bound under churn" `Quick test_lru_bound_under_churn;
        Alcotest.test_case "zero capacity and clear" `Quick
          test_lru_zero_capacity_and_clear;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "contains cells" `Quick test_table_manual_contains;
        Alcotest.test_case "row mismatch" `Quick test_table_mismatch;
      ] );
    ("util.properties", qcheck_tests);
  ]
