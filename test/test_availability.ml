open Qp_quorum
module Rng = Qp_util.Rng

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Failure probability                                                 *)
(* ------------------------------------------------------------------ *)

let test_singleton_failure () =
  let s = Simple_qs.singleton 3 1 in
  (* System fails iff element 1 fails. *)
  check_float "fp = p" 0.3 (Availability.failure_probability s 0.3)

let test_triangle_failure () =
  (* 2-of-3 majority fails iff >= 2 nodes fail:
     3 p^2 (1-p) + p^3. *)
  let s = Simple_qs.triangle () in
  let p = 0.2 in
  let expected = (3. *. p *. p *. (1. -. p)) +. (p ** 3.) in
  check_float "majority formula" expected (Availability.failure_probability s p)

let test_failure_extremes () =
  let s = Simple_qs.triangle () in
  check_float "p=0" 0. (Availability.failure_probability s 0.);
  check_float "p=1" 1. (Availability.failure_probability s 1.)

let test_majority_beats_singleton_below_half () =
  (* Classic fact: for p < 1/2 the majority system is MORE available
     than a single node; at p > 1/2 it is worse. *)
  let maj = Majority_qs.make ~n:5 ~t:3 in
  let single = Simple_qs.singleton 5 0 in
  let fp s p = Availability.failure_probability s p in
  Alcotest.(check bool) "better at 0.2" true (fp maj 0.2 < fp single 0.2);
  Alcotest.(check bool) "worse at 0.8" true (fp maj 0.8 > fp single 0.8)

let test_mc_matches_exact () =
  let rng = Rng.create 3 in
  let s = Grid_qs.make 3 in
  let p = 0.3 in
  let exact = Availability.failure_probability s p in
  let mc = Availability.failure_probability_mc rng s p ~samples:40_000 in
  Alcotest.(check bool) "MC close to exact" true (Float.abs (mc -. exact) < 0.01)

let test_failure_guard () =
  let s = Quorum.make ~universe:23 [| Array.init 23 (fun u -> u) |] in
  Alcotest.check_raises "too big"
    (Invalid_argument "Availability.failure_probability: universe > 22") (fun () ->
      ignore (Availability.failure_probability s 0.1))

(* ------------------------------------------------------------------ *)
(* Resilience / transversals                                           *)
(* ------------------------------------------------------------------ *)

let test_transversal () =
  let s = Simple_qs.triangle () in
  (* Every pair of the three elements hits all three quorums, no single
     element does: the smallest transversal has size 2. *)
  Alcotest.(check int) "smallest transversal is a pair" 1 (Availability.resilience s)

let test_resilience_majority () =
  (* Majority t-of-n: killing any n-t+1 elements kills every quorum;
     any n-t failures leave one alive. Min transversal = n-t+1. *)
  let s = Majority_qs.make ~n:7 ~t:4 in
  Alcotest.(check int) "resilience n-t" 3 (Availability.resilience s)

let test_resilience_singleton_star () =
  Alcotest.(check int) "singleton resilience 0" 0
    (Availability.resilience (Simple_qs.singleton 4 2));
  (* Star: hub 0 is a transversal by itself. *)
  Alcotest.(check int) "star resilience 0" 0 (Availability.resilience (Simple_qs.star 5));
  (* Wheel: hub alone does NOT hit the rim quorum; {hub} u {rim elt}
     needed... actually {hub, any rim} hits spokes via hub and the rim
     quorum via the rim element -> min transversal 2. *)
  Alcotest.(check int) "wheel resilience 1" 1 (Availability.resilience (Simple_qs.wheel 5))

let test_resilience_grid () =
  (* Grid k: killing a full row (k elements) kills every quorum (each
     quorum contains a full row... no: quorum = row i + column j; a
     dead row r kills quorums with i = r, and every other quorum
     contains one element of row r via its column). Min transversal =
     k. *)
  let s = Grid_qs.make 3 in
  Alcotest.(check int) "grid resilience k-1" 2 (Availability.resilience s)

let test_resilience_fpp () =
  (* A line of PG(2,q) is a transversal (it meets every line), so the
     min transversal has size <= q+1; projective duality gives >= q+1
     ... for q=2: resilience 2. *)
  let s = Fpp_qs.make 2 in
  Alcotest.(check int) "fpp resilience q" 2 (Availability.resilience s)

(* ------------------------------------------------------------------ *)
(* Load lower bound                                                    *)
(* ------------------------------------------------------------------ *)

let test_naor_wool_bound () =
  (* FPP meets the sqrt bound with equality under uniform strategy. *)
  let q = 3 in
  let s = Fpp_qs.make q in
  let p = Strategy.uniform s in
  let bound = Availability.naor_wool_load_lower_bound s in
  check_float "fpp tight" bound (Strategy.system_load s p);
  (* Grid's uniform load also matches its (2k-1)/k^2 value and is
     >= the bound. *)
  let g = Grid_qs.make 4 in
  let pg = Strategy.uniform g in
  Alcotest.(check bool) "grid above bound" true
    (Strategy.system_load g pg +. 1e-12 >= Availability.naor_wool_load_lower_bound g)

let prop_load_above_naor_wool =
  QCheck.Test.make ~name:"every uniform strategy respects the Naor-Wool bound" ~count:30
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let s =
        match Rng.int rng 4 with
        | 0 -> Grid_qs.make (2 + Rng.int rng 3)
        | 1 ->
            let n = 3 + Rng.int rng 6 in
            Majority_qs.make ~n ~t:((n / 2) + 1)
        | 2 -> Simple_qs.wheel (3 + Rng.int rng 5)
        | _ -> Walls_qs.make [ 1 + Rng.int rng 2; 1 + Rng.int rng 3; 1 + Rng.int rng 3 ]
      in
      let p = Strategy.uniform s in
      Strategy.system_load s p +. 1e-9 >= Availability.naor_wool_load_lower_bound s)

(* ------------------------------------------------------------------ *)
(* Optimal-load strategies (Naor-Wool L(Q) via LP)                     *)
(* ------------------------------------------------------------------ *)

let test_strategy_lp_fpp_tight () =
  (* FPP is load-perfect: L(Q) = (q+1)/n, met by the uniform strategy
     and equal to the Naor-Wool bound. *)
  let q = 3 in
  let s = Fpp_qs.make q in
  let r = Strategy_lp.optimal s in
  check_float "L(Q) = (q+1)/n" (float_of_int (q + 1) /. float_of_int (Quorum.universe s))
    r.Strategy_lp.load;
  Alcotest.(check bool) "meets NW bound" true (Strategy_lp.meets_naor_wool_bound s)

let test_strategy_lp_grid () =
  (* Grid's uniform strategy is optimal [Naor-Wool]: L = (2k-1)/k^2. *)
  let k = 3 in
  let s = Grid_qs.make k in
  let r = Strategy_lp.optimal s in
  check_float "L(Q) = (2k-1)/k^2" (Grid_qs.element_load k) r.Strategy_lp.load

let test_strategy_lp_triangle_and_majority () =
  let r = Strategy_lp.optimal (Simple_qs.triangle ()) in
  check_float "triangle 2/3" (2. /. 3.) r.Strategy_lp.load;
  let m = Majority_qs.make ~n:5 ~t:3 in
  check_float "majority t/n" (3. /. 5.) (Strategy_lp.optimal m).Strategy_lp.load

let test_strategy_lp_dominates_uniform () =
  (* L(Q) never exceeds the uniform strategy's max load, and the
     witness strategy actually achieves the LP value. *)
  List.iter
    (fun s ->
      let r = Strategy_lp.optimal s in
      let uniform_load = Strategy.system_load s (Strategy.uniform s) in
      Alcotest.(check bool) "L <= uniform load" true
        (r.Strategy_lp.load <= uniform_load +. 1e-9);
      check_float "witness achieves L" r.Strategy_lp.load
        (Strategy.system_load s r.Strategy_lp.strategy);
      Alcotest.(check bool) "L >= NW bound" true
        (r.Strategy_lp.load +. 1e-9 >= Availability.naor_wool_load_lower_bound s))
    [
      Simple_qs.wheel 7; Walls_qs.make [ 1; 2; 3 ]; Voting_qs.make [| 3; 1; 1; 1; 1 |];
      Tree_qs.make 2;
    ]

let test_strategy_lp_star_skewed () =
  (* Star: hub is in every quorum, so L(Q) = 1 no matter the
     strategy - the classic worst case. *)
  let r = Strategy_lp.optimal (Simple_qs.star 6) in
  check_float "hub load 1" 1. r.Strategy_lp.load

(* ------------------------------------------------------------------ *)
(* Weighted voting                                                     *)
(* ------------------------------------------------------------------ *)

let test_voting_equals_majority_on_unit_votes () =
  let n = 5 in
  let v = Voting_qs.make (Array.make n 1) in
  let m = Majority_qs.make ~n ~t:3 in
  Alcotest.(check int) "same count" (Quorum.n_quorums m) (Quorum.n_quorums v);
  (* Same families as sets. *)
  let canon s =
    List.sort compare (Array.to_list (Array.map Array.to_list (Quorum.quorums s)))
  in
  Alcotest.(check bool) "same quorums" true (canon v = canon m)

let test_voting_weighted () =
  (* Votes [3;1;1;1]: total 6, need 4. Minimal quorums: {0,1}, {0,2},
     {0,3} — the light elements together only muster 3 votes. *)
  let s = Voting_qs.make [| 3; 1; 1; 1 |] in
  Alcotest.(check int) "count" 3 (Quorum.n_quorums s);
  Alcotest.(check bool) "intersecting" true (Quorum.all_intersecting s);
  Alcotest.(check bool) "coterie" true (Quorum.is_coterie s);
  Alcotest.(check int) "threshold" 4 (Voting_qs.threshold [| 3; 1; 1; 1 |])

let test_voting_dictator () =
  (* One element with a strict majority of votes is a dictator: the
     only minimal quorum is the singleton. *)
  let s = Voting_qs.make [| 5; 1; 1 |] in
  Alcotest.(check int) "one quorum" 1 (Quorum.n_quorums s);
  Alcotest.(check (array int)) "dictator" [| 0 |] (Quorum.quorum s 0)

let test_voting_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Voting_qs.make: empty vote assignment")
    (fun () -> ignore (Voting_qs.make [||]));
  Alcotest.check_raises "zero votes" (Invalid_argument "Voting_qs.make: non-positive votes")
    (fun () -> ignore (Voting_qs.make [| 1; 0 |]))

let prop_voting_intersects =
  QCheck.Test.make ~name:"weighted voting systems pairwise intersect" ~count:30
    QCheck.(list_of_size (QCheck.Gen.int_range 1 7) (int_range 1 5))
    (fun votes ->
      votes = [] || Quorum.all_intersecting (Voting_qs.make (Array.of_list votes)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_load_above_naor_wool; prop_voting_intersects ]

let suites =
  [
    ( "quorum.availability",
      [
        Alcotest.test_case "singleton" `Quick test_singleton_failure;
        Alcotest.test_case "triangle formula" `Quick test_triangle_failure;
        Alcotest.test_case "extremes" `Quick test_failure_extremes;
        Alcotest.test_case "majority vs singleton" `Quick test_majority_beats_singleton_below_half;
        Alcotest.test_case "monte carlo" `Quick test_mc_matches_exact;
        Alcotest.test_case "size guard" `Quick test_failure_guard;
      ] );
    ( "quorum.resilience",
      [
        Alcotest.test_case "transversal" `Quick test_transversal;
        Alcotest.test_case "majority" `Quick test_resilience_majority;
        Alcotest.test_case "singleton + star + wheel" `Quick test_resilience_singleton_star;
        Alcotest.test_case "grid" `Quick test_resilience_grid;
        Alcotest.test_case "fpp" `Quick test_resilience_fpp;
        Alcotest.test_case "naor-wool bound" `Quick test_naor_wool_bound;
      ] );
    ( "quorum.strategy_lp",
      [
        Alcotest.test_case "fpp tight" `Quick test_strategy_lp_fpp_tight;
        Alcotest.test_case "grid" `Quick test_strategy_lp_grid;
        Alcotest.test_case "triangle + majority" `Quick test_strategy_lp_triangle_and_majority;
        Alcotest.test_case "dominates uniform" `Quick test_strategy_lp_dominates_uniform;
        Alcotest.test_case "star skew" `Quick test_strategy_lp_star_skewed;
      ] );
    ( "quorum.voting",
      [
        Alcotest.test_case "unit votes = majority" `Quick test_voting_equals_majority_on_unit_votes;
        Alcotest.test_case "weighted" `Quick test_voting_weighted;
        Alcotest.test_case "dictator" `Quick test_voting_dictator;
        Alcotest.test_case "validation" `Quick test_voting_rejects;
      ] );
    ("quorum.availability_properties", qcheck_tests);
  ]
