open Qp_lp
module Rng = Qp_util.Rng

let solve_opt lp =
  match Simplex.solve lp with
  | Simplex.Optimal { x; objective } -> (x, objective)
  | Simplex.Infeasible -> Alcotest.fail "unexpected Infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected Unbounded"

let check_float = Alcotest.(check (float 1e-6))

(* max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18  (classic Dantzig
   example; optimum x=2, y=6, value 36). *)
let test_dantzig_example () =
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 (-3.);
  Lp.set_objective lp 1 (-5.);
  Lp.add_constraint lp [ (0, 1.) ] Lp.Le 4.;
  Lp.add_constraint lp [ (1, 2.) ] Lp.Le 12.;
  Lp.add_constraint lp [ (0, 3.); (1, 2.) ] Lp.Le 18.;
  let x, obj = solve_opt lp in
  check_float "objective" (-36.) obj;
  check_float "x" 2. x.(0);
  check_float "y" 6. x.(1)

(* min 2x + 3y s.t. x + y >= 4; x >= 1  => x=4 or boundary? Optimum at
   y=0, x=4: 8? vs x=1,y=3: 2+9=11. So x=4,y=0, value 8. *)
let test_ge_constraints () =
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 2.;
  Lp.set_objective lp 1 3.;
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Ge 4.;
  Lp.add_constraint lp [ (0, 1.) ] Lp.Ge 1.;
  let x, obj = solve_opt lp in
  check_float "objective" 8. obj;
  check_float "x" 4. x.(0);
  check_float "y" 0. x.(1)

let test_equality () =
  (* min x + 2y s.t. x + y = 3, y >= 1 (as -y <= -1). Optimum x=2,y=1,
     value 4. *)
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 1.;
  Lp.set_objective lp 1 2.;
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Eq 3.;
  Lp.add_constraint lp [ (1, 1.) ] Lp.Ge 1.;
  let x, obj = solve_opt lp in
  check_float "objective" 4. obj;
  check_float "x" 2. x.(0);
  check_float "y" 1. x.(1)

let test_infeasible () =
  let lp = Lp.create 1 in
  Lp.add_constraint lp [ (0, 1.) ] Lp.Le 1.;
  Lp.add_constraint lp [ (0, 1.) ] Lp.Ge 2.;
  Alcotest.(check bool) "infeasible" true (Simplex.solve lp = Simplex.Infeasible)

let test_infeasible_negative_rhs () =
  (* x >= 0 and x <= -1 is infeasible; exercises rhs normalization. *)
  let lp = Lp.create 1 in
  Lp.add_constraint lp [ (0, 1.) ] Lp.Le (-1.);
  Alcotest.(check bool) "infeasible" true (Simplex.solve lp = Simplex.Infeasible)

let test_unbounded () =
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 (-1.);
  Lp.add_constraint lp [ (0, 1.); (1, -1.) ] Lp.Le 1.;
  Alcotest.(check bool) "unbounded" true (Simplex.solve lp = Simplex.Unbounded)

let test_degenerate () =
  (* Degenerate vertex: three constraints through the optimum. *)
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 (-1.);
  Lp.set_objective lp 1 (-1.);
  Lp.add_constraint lp [ (0, 1.) ] Lp.Le 1.;
  Lp.add_constraint lp [ (1, 1.) ] Lp.Le 1.;
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Le 2.;
  let _, obj = solve_opt lp in
  check_float "objective" (-2.) obj

let test_redundant_equalities () =
  (* Duplicate equality rows force a redundant phase-1 row drop. *)
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 1.;
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Eq 2.;
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Eq 2.;
  Lp.add_constraint lp [ (0, 2.); (1, 2.) ] Lp.Eq 4.;
  let x, obj = solve_opt lp in
  check_float "objective" 0. obj;
  check_float "x" 0. x.(0);
  check_float "y" 2. x.(1)

let test_zero_objective_feasibility_only () =
  let lp = Lp.create 3 in
  Lp.add_constraint lp [ (0, 1.); (1, 1.); (2, 1.) ] Lp.Eq 1.;
  let x, obj = solve_opt lp in
  check_float "objective" 0. obj;
  check_float "sums to one" 1. (x.(0) +. x.(1) +. x.(2))

let test_duplicate_terms_merged () =
  let lp = Lp.create 1 in
  Lp.set_objective lp 0 1.;
  (* x + x >= 3  <=>  2x >= 3. *)
  Lp.add_constraint lp [ (0, 1.); (0, 1.) ] Lp.Ge 3.;
  let x, _ = solve_opt lp in
  check_float "x" 1.5 x.(0)

let test_builder_validation () =
  let lp = Lp.create 2 in
  Alcotest.check_raises "bad var" (Invalid_argument "Lp.add_constraint: variable out of range")
    (fun () -> Lp.add_constraint lp [ (5, 1.) ] Lp.Le 1.);
  Alcotest.check_raises "bad obj" (Invalid_argument "Lp.set_objective: variable out of range")
    (fun () -> Lp.set_objective lp 9 1.)

let test_objective_helpers () =
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 1.;
  Lp.set_objective lp 0 3.;
  let o = Lp.objective lp in
  check_float "overwritten" 3. o.(0);
  check_float "value" 6. (Lp.objective_value lp [| 2.; 0. |])

(* Transportation LP with known optimum (2 sources x 2 sinks).
   Supplies (10, 20), demands (15, 15); costs c11=1 c12=4 c21=2 c22=1.
   Optimum: x11=10, x21=5, x22=15 -> 10 + 10 + 15 = 35. *)
let test_transportation () =
  let lp = Lp.create 4 in
  (* vars: x11 x12 x21 x22 *)
  List.iteri (fun i c -> Lp.set_objective lp i c) [ 1.; 4.; 2.; 1. ];
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Eq 10.;
  Lp.add_constraint lp [ (2, 1.); (3, 1.) ] Lp.Eq 20.;
  Lp.add_constraint lp [ (0, 1.); (2, 1.) ] Lp.Eq 15.;
  Lp.add_constraint lp [ (1, 1.); (3, 1.) ] Lp.Eq 15.;
  let _, obj = solve_opt lp in
  check_float "objective" 35. obj

(* Random LPs that are feasible by construction: draw a witness point
   x* >= 0 and emit rows consistent with it. The simplex optimum must
   be feasible and no worse than the witness. *)
let random_feasible_lp seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 5 in
  let m = 2 + Rng.int rng 8 in
  let witness = Array.init n (fun _ -> Rng.float rng 5.) in
  let lp = Lp.create n in
  for v = 0 to n - 1 do
    (* Non-negative objective keeps the LP bounded below. *)
    Lp.set_objective lp v (Rng.float rng 3.)
  done;
  for _ = 1 to m do
    let terms = List.init n (fun v -> (v, Rng.float rng 4. -. 2.)) in
    let lhs = Lp.eval_terms terms witness in
    match Rng.int rng 3 with
    | 0 -> Lp.add_constraint lp terms Lp.Le (lhs +. Rng.float rng 2.)
    | 1 -> Lp.add_constraint lp terms Lp.Ge (lhs -. Rng.float rng 2.)
    | _ -> Lp.add_constraint lp terms Lp.Eq lhs
  done;
  (lp, witness)

(* The same LP made infeasible by two contradictory rows on top
   (every generated LP has at least two variables). *)
let plant_infeasible lp =
  let terms = [ (0, 1.); (1, 1.) ] in
  Lp.add_constraint lp terms Lp.Le 1.;
  Lp.add_constraint lp terms Lp.Ge 3.;
  lp

(* Two LPs with identical variable/constraint layout whose right-hand
   sides differ by a small random delta — the shape of an instance
   update reaching the solver. *)
let random_lp_pair seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 5 in
  let m = 2 + Rng.int rng 8 in
  let witness = Array.init n (fun _ -> Rng.float rng 5.) in
  let base = Lp.create n in
  let delta = Lp.create n in
  for v = 0 to n - 1 do
    let c = Rng.float rng 3. in
    Lp.set_objective base v c;
    Lp.set_objective delta v c
  done;
  for _ = 1 to m do
    let terms = List.init n (fun v -> (v, Rng.float rng 4. -. 2.)) in
    let lhs = Lp.eval_terms terms witness in
    let bump = Rng.float rng 0.3 -. 0.15 in
    match Rng.int rng 3 with
    | 0 ->
        let rhs = lhs +. Rng.float rng 2. in
        Lp.add_constraint base terms Lp.Le rhs;
        Lp.add_constraint delta terms Lp.Le (rhs +. bump)
    | 1 ->
        let rhs = lhs -. Rng.float rng 2. in
        Lp.add_constraint base terms Lp.Ge rhs;
        Lp.add_constraint delta terms Lp.Ge (rhs +. bump)
    | _ ->
        Lp.add_constraint base terms Lp.Eq lhs;
        Lp.add_constraint delta terms Lp.Eq (lhs +. bump)
  done;
  (base, delta)

(* Satellite property (b): a warm-started solve must agree with the
   cold solve on the perturbed LP — the crash basis is an accelerator,
   never an answer-changer. *)
let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm-started solve = cold solve on small deltas"
    ~count:150 QCheck.small_int (fun seed ->
      let base, delta = random_lp_pair (seed + 7000) in
      match Simplex.solve_warm base with
      | Simplex.Optimal _, Some basis -> (
          let cold = Simplex.solve delta in
          let warm, _ = Simplex.solve_warm ~warm:basis delta in
          match (cold, warm) with
          | Simplex.Optimal a, Simplex.Optimal b ->
              Float.abs (a.objective -. b.objective)
              <= 1e-6 *. Float.max 1. (Float.abs a.objective)
          | Simplex.Infeasible, Simplex.Infeasible -> true
          | Simplex.Unbounded, Simplex.Unbounded -> true
          | _ -> false)
      | _ -> true)

(* An unchanged LP re-solved from its own final basis needs no phase-1
   work at all: the crash start is already optimal, so phase 2 should
   terminate without pivoting. *)
let test_warm_identity () =
  let lp () =
    let lp = Lp.create 2 in
    Lp.set_objective lp 0 (-3.);
    Lp.set_objective lp 1 (-5.);
    Lp.add_constraint lp [ (0, 1.) ] Lp.Le 4.;
    Lp.add_constraint lp [ (1, 2.) ] Lp.Le 12.;
    Lp.add_constraint lp [ (0, 3.); (1, 2.) ] Lp.Le 18.;
    lp
  in
  match Simplex.solve_warm (lp ()) with
  | Simplex.Optimal { objective; _ }, Some basis ->
      check_float "cold objective" (-36.) objective;
      (match Simplex.solve_warm ~warm:basis (lp ()) with
      | Simplex.Optimal { objective; _ }, Some _ ->
          check_float "warm objective" (-36.) objective
      | _ -> Alcotest.fail "warm re-solve not optimal")
  | _ -> Alcotest.fail "cold solve not optimal"

(* A warm basis that no longer crashes feasibly hands over to the
   model's start, not to phase 1. min -x0 s.t. x0 + x1 = 1, x0 <= c:
   the optimal basis {x0, x1} at c = 0.5 puts x1 at -0.5 at c = 1.5,
   where the start {x1} (x1 = 1, slack 1.5) is feasible. *)
let test_warm_falls_back_to_start () =
  let lp c =
    let lp = Lp.create 2 in
    Lp.set_objective lp 0 (-1.);
    Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Eq 1.;
    Lp.add_constraint lp [ (0, 1.) ] Lp.Le c;
    lp
  in
  match Simplex.solve_warm (lp 0.5) with
  | Simplex.Optimal _, Some basis -> (
      let moved = lp 1.5 in
      Lp.set_start moved [| 1 |];
      let reg = Qp_obs.Metrics.create ~enabled:true () in
      let outcome =
        Qp_obs.Metrics.with_current reg (fun () -> Simplex.solve_warm ~warm:basis moved)
      in
      let counter ?labels name =
        Qp_obs.Metrics.counter_value (Qp_obs.Metrics.counter ?labels reg name)
      in
      let start outcome = counter ~labels:[ ("outcome", outcome) ] "qp_simplex_start_total" in
      Alcotest.(check (float 0.)) "warm tried" 1. (counter "qp_simplex_warm_attempts_total");
      Alcotest.(check (float 0.)) "warm refused" 0. (counter "qp_simplex_warm_used_total");
      Alcotest.(check (float 0.)) "start taken" 1. (start "taken");
      Alcotest.(check (float 0.)) "start not refused" 0. (start "refused");
      (* One crash pivot for x1, one phase-2 pivot for x0. *)
      Alcotest.(check (float 0.)) "pivots" 2. (counter "qp_simplex_pivots_total");
      match outcome with
      | Simplex.Optimal { objective; _ }, _ -> check_float "objective" (-1.) objective
      | _ -> Alcotest.fail "feasible and bounded")
  | _ -> Alcotest.fail "cold solve not optimal"

(* A start that is not primal-feasible is refused, and phase 1 solves
   the LP as it does without one. *)
let test_infeasible_start_refused () =
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 (-1.);
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Eq 1.;
  Lp.add_constraint lp [ (0, 1.) ] Lp.Le 0.5;
  Lp.set_start lp [| 0 |];
  let reg = Qp_obs.Metrics.create ~enabled:true () in
  let _, objective = Qp_obs.Metrics.with_current reg (fun () -> solve_opt lp) in
  check_float "objective" (-0.5) objective;
  Alcotest.(check (float 0.)) "start refused" 1.
    (Qp_obs.Metrics.counter_value
       (Qp_obs.Metrics.counter ~labels:[ ("outcome", "refused") ] reg
          "qp_simplex_start_total"));
  Alcotest.check_raises "start columns in range"
    (Invalid_argument "Lp.set_start: variable out of range") (fun () ->
      Lp.set_start lp [| 2 |])

(* A solve that runs out of pivot budget still counts the pivots it
   made and hands its buffers back to the domain. Phase 1 drives out
   the artificials of the two equality rows below, one pivot each, so a
   budget of one raises on the second. The LP has many rows but few
   variables and nonzeros, so every major-heap allocation of a solve
   stays far below the rows² floats of a new basis inverse: a later
   solve allocating fewer words than that reused the buffers. *)
let test_budget_exceeded_counts_pivots () =
  let n = 40 in
  let lp = Lp.create n in
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Eq 1.;
  Lp.add_constraint lp [ (2, 1.); (3, 1.) ] Lp.Eq 1.;
  for i = 0 to 149 do
    Lp.add_constraint lp [ (i mod n, 1.) ] Lp.Le (float_of_int (1 + (i / n)))
  done;
  for v = 0 to n - 1 do
    Lp.set_objective lp v (float_of_int ((v * 7) mod 11))
  done;
  let m = Lp.n_constraints lp in
  let reg = Qp_obs.Metrics.create ~enabled:true () in
  Alcotest.check_raises "budget exceeded"
    (Qp_util.Qp_error.Error (Internal "Simplex: pivot budget exceeded (1 pivots)"))
    (fun () ->
      Qp_obs.Metrics.with_current reg (fun () -> ignore (Simplex.solve ~max_pivots:1 lp)));
  Alcotest.(check (float 0.)) "pivots counted" 2.
    (Qp_obs.Metrics.counter_value (Qp_obs.Metrics.counter reg "qp_simplex_pivots_total"));
  let major () =
    let _, _, words = Gc.counters () in
    words
  in
  let before = major () in
  ignore (solve_opt lp);
  let words = major () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "buffers reused (%.0f major words < %d)" words (m * m))
    true
    (words < float_of_int (m * m))

(* A witness LP is feasible (the witness) and bounded (objective >= 0
   on x >= 0), so it must solve to an optimum no worse than the
   witness; its planted-infeasible copy must be classified as such. *)
let prop_simplex_beats_witness =
  QCheck.Test.make ~name:"simplex optimum feasible and <= witness" ~count:150
    QCheck.small_int (fun seed ->
      let lp, witness = random_feasible_lp seed in
      (match Simplex.solve lp with
      | Simplex.Infeasible | Simplex.Unbounded -> false
      | Simplex.Optimal { x; objective } ->
          Lp.is_feasible ~tol:1e-5 lp x
          && objective <= Lp.objective_value lp witness +. 1e-6)
      && Simplex.solve (plant_infeasible lp) = Simplex.Infeasible)

(* Brute-force cross-check on tiny 2-var LPs: sample a dense grid of
   points; every feasible grid point must be >= the simplex optimum. *)
let prop_simplex_no_better_grid_point =
  QCheck.Test.make ~name:"no grid point beats simplex optimum" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1000) in
      let lp = Lp.create 2 in
      Lp.set_objective lp 0 (Rng.float rng 4. -. 2.);
      Lp.set_objective lp 1 (Rng.float rng 4. -. 2.);
      (* Box keeps it bounded. *)
      Lp.add_constraint lp [ (0, 1.) ] Lp.Le 10.;
      Lp.add_constraint lp [ (1, 1.) ] Lp.Le 10.;
      for _ = 1 to 3 do
        let terms = [ (0, Rng.float rng 2. -. 1.); (1, Rng.float rng 2. -. 1.) ] in
        Lp.add_constraint lp terms Lp.Le (Rng.float rng 8.)
      done;
      match Simplex.solve lp with
      | Simplex.Unbounded -> false (* impossible: boxed *)
      | Simplex.Infeasible ->
          (* Confirm no grid point is feasible. *)
          let ok = ref true in
          for i = 0 to 50 do
            for j = 0 to 50 do
              let p = [| float_of_int i /. 5.; float_of_int j /. 5. |] in
              if Lp.is_feasible ~tol:1e-9 lp p then ok := false
            done
          done;
          !ok
      | Simplex.Optimal { objective; _ } ->
          let ok = ref true in
          for i = 0 to 50 do
            for j = 0 to 50 do
              let p = [| float_of_int i /. 5.; float_of_int j /. 5. |] in
              if Lp.is_feasible ~tol:1e-9 lp p && Lp.objective_value lp p < objective -. 1e-6
              then ok := false
            done
          done;
          !ok)

(* Beale's classic cycling example: Dantzig's rule cycles forever on
   this LP without an anti-cycling safeguard; our stall-triggered
   switch to Bland's rule must terminate at the optimum (-1/20). *)
let test_beale_cycling () =
  let lp = Lp.create 4 in
  List.iteri (fun i c -> Lp.set_objective lp i c) [ -0.75; 150.; -0.02; 6. ];
  Lp.add_constraint lp [ (0, 0.25); (1, -60.); (2, -0.04); (3, 9.) ] Lp.Le 0.;
  Lp.add_constraint lp [ (0, 0.5); (1, -90.); (2, -0.02); (3, 3.) ] Lp.Le 0.;
  Lp.add_constraint lp [ (2, 1.) ] Lp.Le 1.;
  let x, obj = solve_opt lp in
  check_float "objective -1/20" (-0.05) obj;
  check_float "x3 = 1" 1. x.(2)

(* ------------------------------------------------------------------ *)
(* Duality certificates                                                *)
(* ------------------------------------------------------------------ *)

let solve_cert lp =
  match Simplex.solve_certified lp with
  | Simplex.Certified c -> c
  | _ -> Alcotest.fail "expected Certified"

let test_certificate_dantzig () =
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 (-3.);
  Lp.set_objective lp 1 (-5.);
  Lp.add_constraint lp [ (0, 1.) ] Lp.Le 4.;
  Lp.add_constraint lp [ (1, 2.) ] Lp.Le 12.;
  Lp.add_constraint lp [ (0, 3.); (1, 2.) ] Lp.Le 18.;
  let c = solve_cert lp in
  check_float "objective" (-36.) c.Simplex.objective;
  Alcotest.(check bool) "certificate verifies" true (Simplex.check_certificate lp c);
  (* Known duals of this textbook LP: y = (0, -3/2, -1) in the
     min/<= sign convention. *)
  check_float "y1" 0. c.Simplex.duals.(0);
  check_float "y2" (-1.5) c.Simplex.duals.(1);
  check_float "y3" (-1.) c.Simplex.duals.(2)

let test_certificate_mixed_rows () =
  let lp = Lp.create 2 in
  Lp.set_objective lp 0 2.;
  Lp.set_objective lp 1 3.;
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Ge 4.;
  Lp.add_constraint lp [ (0, 1.) ] Lp.Ge 1.;
  Lp.add_constraint lp [ (0, 1.); (1, 1.) ] Lp.Eq 4.;
  let c = solve_cert lp in
  Alcotest.(check bool) "certificate verifies" true (Simplex.check_certificate lp c)

let test_certificate_negative_rhs () =
  (* x >= 2 written as -x <= -2: exercises the flipped-row dual sign. *)
  let lp = Lp.create 1 in
  Lp.set_objective lp 0 1.;
  Lp.add_constraint lp [ (0, -1.) ] Lp.Le (-2.);
  let c = solve_cert lp in
  check_float "x" 2. c.Simplex.x.(0);
  Alcotest.(check bool) "certificate verifies" true (Simplex.check_certificate lp c)

let test_certificate_rejects_wrong_duals () =
  let lp = Lp.create 1 in
  Lp.set_objective lp 0 1.;
  Lp.add_constraint lp [ (0, 1.) ] Lp.Ge 3.;
  let c = solve_cert lp in
  Alcotest.(check bool) "true certificate ok" true (Simplex.check_certificate lp c);
  let fake = { c with Simplex.duals = [| 0. |] } in
  Alcotest.(check bool) "zero duals break strong duality" false
    (Simplex.check_certificate lp fake)

let prop_certificates_verify =
  QCheck.Test.make ~name:"every optimal solve yields a valid certificate" ~count:200
    QCheck.small_int (fun seed ->
      let lp, witness = random_feasible_lp (seed + 4000) in
      (match Simplex.solve_certified lp with
      | Simplex.C_infeasible | Simplex.C_unbounded -> false
      | Simplex.Certified c ->
          Simplex.check_certificate lp c
          && c.Simplex.objective <= Lp.objective_value lp witness +. 1e-6)
      && Simplex.solve_certified (plant_infeasible lp) = Simplex.C_infeasible)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_simplex_beats_witness;
      prop_simplex_no_better_grid_point;
      prop_certificates_verify;
      prop_warm_equals_cold;
    ]

let suites =
  [
    ( "lp.simplex",
      [
        Alcotest.test_case "dantzig example" `Quick test_dantzig_example;
        Alcotest.test_case "ge constraints" `Quick test_ge_constraints;
        Alcotest.test_case "equality" `Quick test_equality;
        Alcotest.test_case "infeasible" `Quick test_infeasible;
        Alcotest.test_case "infeasible negative rhs" `Quick test_infeasible_negative_rhs;
        Alcotest.test_case "unbounded" `Quick test_unbounded;
        Alcotest.test_case "degenerate vertex" `Quick test_degenerate;
        Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
        Alcotest.test_case "feasibility-only" `Quick test_zero_objective_feasibility_only;
        Alcotest.test_case "duplicate terms merged" `Quick test_duplicate_terms_merged;
        Alcotest.test_case "builder validation" `Quick test_builder_validation;
        Alcotest.test_case "objective helpers" `Quick test_objective_helpers;
        Alcotest.test_case "transportation" `Quick test_transportation;
        Alcotest.test_case "beale anti-cycling" `Quick test_beale_cycling;
        Alcotest.test_case "warm re-solve of identical LP" `Quick test_warm_identity;
        Alcotest.test_case "failed warm crash takes the start" `Quick
          test_warm_falls_back_to_start;
        Alcotest.test_case "infeasible start refused" `Quick test_infeasible_start_refused;
        Alcotest.test_case "budget exceeded counts pivots" `Quick
          test_budget_exceeded_counts_pivots;
      ] );
    ( "lp.duality",
      [
        Alcotest.test_case "dantzig duals" `Quick test_certificate_dantzig;
        Alcotest.test_case "mixed rows" `Quick test_certificate_mixed_rows;
        Alcotest.test_case "negative rhs" `Quick test_certificate_negative_rhs;
        Alcotest.test_case "rejects wrong duals" `Quick test_certificate_rejects_wrong_duals;
      ] );
    ("lp.properties", qcheck_tests);
  ]
