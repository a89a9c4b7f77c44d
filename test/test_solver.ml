(* The solver engine: registry lookup, outcome invariants shared by
   every algorithm, the batch entry point, and the registry-driven
   capacity property from the acceptance criteria. *)

module Qp_error = Qp_util.Qp_error
module Spec = Qp_instance.Spec
open Qp_place

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected error: " ^ Qp_error.to_string e)

let build_spec ?(topology = "waxman") ?(nodes = 10) ?(system = "grid:2")
    ?(cap_slack = 1.3) ?(seed = 1) () =
  { Spec.default with Spec.topology; nodes; system; cap_slack; seed }

let small_problem () = ok_exn (Spec.build (build_spec ()))

let test_registry_contents () =
  let expected =
    [ "lp"; "total"; "greedy"; "random"; "exact"; "grid"; "majority"; "partial";
      "tree"; "auto" ]
  in
  Alcotest.(check (list string)) "registered names" expected (Solver.names ())

let test_find () =
  let s = ok_exn (Solver.find "lp") in
  Alcotest.(check string) "find returns the named solver" "lp" s.Solver.name;
  match Solver.find "simulated-annealing" with
  | Ok _ -> Alcotest.fail "unknown name must not resolve"
  | Error (Qp_error.Invalid_instance msg) ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "lists known algorithms" true (contains msg "known:")
  | Error e -> Alcotest.fail ("wrong error category: " ^ Qp_error.to_string e)

(* Every registered solver must produce a well-formed outcome on a
   feasible instance: valid placement, agreeing derived fields, and its
   own name stamped on the result. *)
let test_all_solvers_well_formed () =
  let generic = small_problem () in
  (* partial deployment needs |quorums| = |nodes| = |elements|: grid:2
     on 4 nodes (4 elements, 2 rows + 2 columns). *)
  let square =
    ok_exn (Spec.build (build_spec ~topology:"complete" ~nodes:4 ()))
  in
  (* the tree solver only accepts tree metrics. *)
  let on_tree = ok_exn (Spec.build (build_spec ~topology:"tree" ())) in
  List.iter
    (fun (s : Solver.t) ->
      let p =
        if s.Solver.name = "partial" then square
        else if s.Solver.name = "tree" then on_tree
        else generic
      in
      match s.Solver.solve Solver.default_params p with
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "%s on feasible instance: %s" s.Solver.name
               (Qp_error.to_string e))
      | Ok o ->
          (* The [auto] dispatcher passes the chosen specialist's
             outcome through, stamp included — that stamp is how
             callers (and CI) observe the dispatch decision. *)
          (if s.Solver.kind = Solver.Meta then
             Alcotest.(check bool)
               (s.Solver.name ^ " stamps a registered name")
               true
               (List.mem o.Outcome.solver (Solver.names ()))
           else
             Alcotest.(check string) (s.Solver.name ^ " stamps name")
               s.Solver.name o.Outcome.solver);
          Placement.validate p o.Outcome.placement;
          Alcotest.(check bool)
            (s.Solver.name ^ " objective finite")
            true
            (Float.is_finite o.Outcome.objective);
          Alcotest.(check (float 1e-12))
            (s.Solver.name ^ " load_violation consistent")
            (Placement.max_violation p o.Outcome.placement)
            o.Outcome.load_violation)
    (Solver.all ())

let test_source_out_of_range () =
  let p = small_problem () in
  let bad = { Solver.default_params with Solver.source = 99 } in
  List.iter
    (fun name ->
      let s = Solver.find_exn name in
      match s.Solver.solve bad p with
      | Error (Qp_error.Invalid_instance _) -> ()
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "%s: wrong error category: %s" name
               (Qp_error.to_string e))
      | Ok _ -> Alcotest.fail (name ^ ": accepted out-of-range source"))
    [ "greedy"; "grid"; "majority" ]

(* The Theorem 1.2 bound 5a/(a-1) needs a finite a > 1: NaN and
   infinity are bad input, not numerical trouble in the rounding. *)
let test_nonfinite_alpha_is_typed () =
  let p = small_problem () in
  let lp = Solver.find_exn "lp" in
  List.iter
    (fun alpha ->
      match lp.Solver.solve { Solver.default_params with Solver.alpha } p with
      | Error (Qp_error.Invalid_instance _) -> ()
      | _ -> Alcotest.failf "lp accepted alpha = %g" alpha)
    [ Float.nan; Float.infinity ]

let test_infeasible_is_typed () =
  (* Slack below 1 leaves no capacity-respecting placement; solvers
     with a capacity constraint must answer [Infeasible], not crash. *)
  let p = ok_exn (Spec.build (build_spec ~nodes:6 ~cap_slack:0.2 ())) in
  List.iter
    (fun name ->
      let s = Solver.find_exn name in
      match s.Solver.solve Solver.default_params p with
      | Error (Qp_error.Infeasible _) -> ()
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "%s: wrong error category: %s" name
               (Qp_error.to_string e))
      | Ok _ -> Alcotest.fail (name ^ ": solved an infeasible instance"))
    [ "greedy"; "random"; "exact" ]

let test_registry_table () =
  let table = Solver.registry_table_markdown () in
  List.iter
    (fun (s : Solver.t) ->
      let cell = Printf.sprintf "| `%s` |" s.Solver.name in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("table row for " ^ s.Solver.name) true
        (contains table cell))
    (Solver.all ())

(* README drift test: the algorithm table in README.md is generated
   from the registry; regenerate with `qplace solvers` when it drifts. *)
let readme_marker_begin = "<!-- solver-registry:begin -->"
let readme_marker_end = "<!-- solver-registry:end -->"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_readme_in_sync () =
  let readme_path =
    (* dune runs tests from the build directory; the dune rule adds
       README.md to the test deps so it is present beside the repo
       sources either way. *)
    List.find Sys.file_exists [ "../README.md"; "README.md" ]
  in
  let readme = read_file readme_path in
  let index_of hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  match (index_of readme readme_marker_begin, index_of readme readme_marker_end) with
  | Some b, Some e ->
      let start = b + String.length readme_marker_begin in
      let embedded = String.trim (String.sub readme start (e - start)) in
      Alcotest.(check string) "README algorithm table matches the registry"
        (String.trim (Solver.registry_table_markdown ()))
        embedded
  | _ -> Alcotest.fail "README.md is missing the solver-registry markers"

(* The acceptance property: every solver that declares a load bound
   keeps load_f(v) <= bound * cap(v) on random feasible instances. *)
let spec_gen =
  QCheck.Gen.(
    let* nodes = int_range 6 10 in
    let* system = oneofl [ "grid:2"; "majority:5:3"; "wheel:5"; "triangle" ] in
    let* cap_slack = float_range 1.0 1.8 in
    let* seed = int_range 1 10_000 in
    let* topology = oneofl [ "waxman"; "complete"; "cycle"; "tree" ] in
    return (build_spec ~topology ~nodes ~system ~cap_slack ~seed ()))

let spec_arbitrary =
  QCheck.make ~print:(Format.asprintf "%a" Spec.pp) spec_gen

let prop_load_bounds =
  QCheck.Test.make ~name:"registry solvers respect declared load bounds" ~count:60
    spec_arbitrary (fun spec ->
      match Spec.build spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok p ->
          List.for_all
            (fun (s : Solver.t) ->
              match s.Solver.load_bound Solver.default_params with
              | None -> true
              | Some bound -> (
                  match s.Solver.solve Solver.default_params p with
                  | Error _ -> true (* infeasible under this slack: fine *)
                  | Ok o -> o.Outcome.load_violation <= bound +. 1e-9))
            (Solver.all ()))

(* The default-seed `qplace solve` (test/golden pins its bytes) does a
   fixed amount of simplex work. Pinning the pivot total makes any
   change to the LP core show up here as a reviewed number. *)
let test_seed_solve_pivots () =
  let reg = Qp_obs.Metrics.create ~enabled:true () in
  let (_ : Outcome.t) =
    Qp_obs.Metrics.with_current reg (fun () ->
        let spec = Spec.default in
        let params =
          Qp_serve.Protocol.solver_params spec Qp_serve.Protocol.default_options
        in
        ok_exn ((ok_exn (Solver.find "lp")).Solver.solve params
                  (ok_exn (Spec.build spec))))
  in
  let counter name = Qp_obs.Metrics.counter_value (Qp_obs.Metrics.counter reg name) in
  Alcotest.(check (float 0.)) "simplex solves" 16. (counter "qp_simplex_solves_total");
  Alcotest.(check (float 0.)) "simplex pivots" 3436. (counter "qp_simplex_pivots_total");
  (* Every candidate's LP starts phase 2 from its first-fit start. *)
  List.iter
    (fun (outcome, expected) ->
      Alcotest.(check (float 0.)) ("start " ^ outcome) expected
        (Qp_obs.Metrics.counter_value
           (Qp_obs.Metrics.counter ~labels:[ ("outcome", outcome) ] reg
              "qp_simplex_start_total")))
    [ ("taken", 16.); ("refused", 0.); ("no_first_fit", 0.) ]

(* The row-generation reproducer of a simplex numeric failure: on the
   default-seed waxman n = 16 grid:4 instance, source v0 = 2, solve LP
   (9)-(13) without the prefix-domination rows (14), add every (14) row
   the optimum violates by more than 1e-9 (in [Lp_formulation.build]
   order) and re-solve cold, until no row is violated. The basis
   inverse drifts until the 4th solve (1635 rows, 512 variables) ends
   at a basis whose point violates a row; that must surface as a typed
   [Internal] error, counted in [qp_simplex_numeric_failures_total],
   not as an exception escaping the solver. Slow: the failing solve
   makes about 11k pivots on a B⁻¹ that has filled in. *)
let test_numeric_failure_is_typed () =
  let module Lp = Qp_lp.Lp in
  let module Simplex = Qp_lp.Simplex in
  let p = ok_exn (Spec.build { Spec.default with Spec.system = "grid:4" }) in
  let s = Problem.ssqpp_of_qpp p 2 in
  let full, _, _ = Lp_formulation.build s in
  let rows = Array.of_list (Lp.constraints full) in
  let n = Problem.n_nodes p in
  let n14 =
    Array.fold_left
      (fun acc q -> acc + (Array.length q * (n - 1)))
      0 (Qp_quorum.Quorum.quorums s.Problem.system)
  in
  let first14 = Array.length rows - n14 in
  let added = Array.make n14 false in
  let lp_of () =
    let lp = Lp.with_objective (Lp.create (Lp.n_vars full)) (Lp.objective full) in
    let add (r : Lp.constr) = Lp.add_constraint lp r.Lp.terms r.Lp.cmp r.Lp.rhs in
    Array.iteri (fun i r -> if i < first14 then add r) rows;
    Array.iteri (fun j a -> if a then add rows.(first14 + j)) added;
    lp
  in
  let reg = Qp_obs.Metrics.create ~enabled:true () in
  let rec round k =
    let lp = lp_of () in
    match Qp_obs.Metrics.with_current reg (fun () -> Simplex.solve lp) with
    | Simplex.Optimal { x; _ } ->
        let fresh = ref 0 in
        for j = 0 to n14 - 1 do
          let r = rows.(first14 + j) in
          if (not added.(j)) && Lp.eval_terms r.Lp.terms x -. r.Lp.rhs > 1e-9 then begin
            added.(j) <- true;
            incr fresh
          end
        done;
        if !fresh = 0 then Alcotest.failf "row generation converged after %d solves" k
        else round (k + 1)
    | _ -> Alcotest.fail "row-generated LP is feasible and bounded"
    | exception Qp_error.Error (Qp_error.Internal _) -> (k, Lp.n_constraints lp)
  in
  let k, m = round 1 in
  Alcotest.(check (pair int int)) "failing solve and its rows" (4, 1635) (k, m);
  Alcotest.(check (float 0.)) "numeric failures counted" 1.
    (Qp_obs.Metrics.counter_value
       (Qp_obs.Metrics.counter reg "qp_simplex_numeric_failures_total"))

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_load_bounds ]

let suites =
  [
    ( "place.solver",
      [
        Alcotest.test_case "registry contents" `Quick test_registry_contents;
        Alcotest.test_case "find" `Quick test_find;
        Alcotest.test_case "all solvers well-formed" `Quick
          test_all_solvers_well_formed;
        Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
        Alcotest.test_case "infeasible is typed" `Quick test_infeasible_is_typed;
        Alcotest.test_case "registry table" `Quick test_registry_table;
        Alcotest.test_case "README table in sync" `Quick test_readme_in_sync;
        Alcotest.test_case "seed solve pivot total" `Quick test_seed_solve_pivots;
        Alcotest.test_case "numeric failure is typed" `Slow
          test_numeric_failure_is_typed;
        Alcotest.test_case "non-finite alpha is typed" `Quick
          test_nonfinite_alpha_is_typed;
      ] );
    ("solver.properties", qcheck_tests);
  ]
