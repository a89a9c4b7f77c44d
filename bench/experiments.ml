(* Experiment suite regenerating every quantitative claim of the paper
   (see DESIGN.md section 4 for the experiment index and EXPERIMENTS.md
   for recorded results). Each function prints one or more tables. *)

module Rng = Qp_util.Rng
module Stats = Qp_util.Stats

(* Experiments may run concurrently under --jobs N: every print below
   goes through the domain-local sink of [Qp_par.Io], so an experiment
   running on a worker domain writes into its own buffer (flushed by
   the driver in experiment order) while a sequential run still prints
   straight to stdout — byte-identical output either way. *)
let print_endline = Qp_par.Io.print_endline
let print_newline = Qp_par.Io.print_newline

module Printf = struct
  let sprintf = Stdlib.Printf.sprintf
  let printf fmt = Qp_par.Io.printf fmt
end

module Table = struct
  include Qp_util.Table

  let print t = Qp_par.Io.print_string (Qp_util.Table.render t)
end
module Metric = Qp_graph.Metric
module Generators = Qp_graph.Generators
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Grid_qs = Qp_quorum.Grid_qs
module Majority_qs = Qp_quorum.Majority_qs
module Simple_qs = Qp_quorum.Simple_qs
module Sched = Qp_sched.Sched
module Sched_exact = Qp_sched.Sched_exact
module Sched_heuristics = Qp_sched.Sched_heuristics
module Reduction = Qp_sched.Reduction
open Qp_place

let section title =
  Printf.printf "\n=== %s ===\n\n" title

(* Structured result records (the qp-scaling/1 cells of E19) and the
   named pass/fail checks of E17-E20, destined for the experiment's
   entry in BENCH_results.json ("records" and "asserts"). Kept in
   domain-local lists so concurrent experiments under --jobs N cannot
   interleave; the bench driver drains them right after each
   experiment returns, on the same domain that ran it. *)
let records_key : Qp_obs.Json.t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let asserts_key : (string * bool) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let push key x =
  let l = Domain.DLS.get key in
  l := x :: !l

let drain key =
  let l = Domain.DLS.get key in
  let out = List.rev !l in
  l := [];
  out

let add_record r = push records_key r
let check name ok = push asserts_key (name, ok)
let take_records () = drain records_key
let take_asserts () = drain asserts_key

(* Wall budget for the E19 scaling series. CI's scaling-smoke job runs
   with a reduced budget via --scale-budget; the default is generous
   enough to reach the 10x cell on any machine that can run the suite. *)
let scale_budget = ref 60.

(* ------------------------------------------------------------------ *)
(* Shared instance builders                                            *)
(* ------------------------------------------------------------------ *)

(* Both builders delegate to the shared instance layer; the bench
   suite's geometric topologies historically use radius 0.45 (the CLI
   default is 0.4), hence the explicit radius suffix. *)
let topology name rng n =
  let name = if name = "geometric" then "geometric:0.45" else name in
  match Qp_instance.Spec.build_topology name n rng with
  | Ok g -> g
  | Error e -> failwith (Qp_util.Qp_error.to_string e)

let uniform_problem ~system ~graph ~slack =
  Qp_instance.Spec.uniform_problem ~graph ~system ~slack

(* Registry dispatch for the experiment solvers. Experiments whose rng
   is threaded through their own sampling stream (E2, E5's random
   baseline) keep direct calls: the registry's seed-based params
   cannot reproduce a mid-stream draw. *)
let solve_via name ?candidates ?(source = 0) problem =
  let solver = Solver.find_exn name in
  let params = { Solver.default_params with Solver.candidates; source } in
  match solver.Solver.solve params problem with
  | Ok o -> Some o
  | Error (Qp_util.Qp_error.Infeasible _) -> None
  | Error e -> failwith (Qp_util.Qp_error.to_string e)

let detail_or_nan o key =
  match Outcome.detail o key with Some v -> v | None -> nan

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1.2: QPP via LP rounding, alpha sweep                  *)
(* ------------------------------------------------------------------ *)

(* Efficient alpha sweep: solve the SSQPP LP once per candidate source
   and re-filter/round per alpha. *)
let qpp_sweep problem alphas =
  let n = Problem.n_nodes problem in
  let lps =
    List.filter_map
      (fun v0 ->
        let s = Problem.ssqpp_of_qpp problem v0 in
        match Lp_formulation.solve s with
        | None -> None
        | Some sol -> Some (v0, s, sol))
      (List.init n (fun v -> v))
  in
  if lps = [] then None
  else begin
    let lower_bound =
      List.fold_left
        (fun acc (v0, _, sol) ->
          Float.min acc
            ((Metric.average_distance problem.Problem.metric v0
             +. sol.Lp_formulation.z_star)
            /. Relay.bound))
        infinity lps
    in
    let per_alpha =
      List.map
        (fun alpha ->
          let best =
            List.fold_left
              (fun acc (v0, s, sol) ->
                let r = Rounding.round_filtered s (Filtering.apply ~alpha sol) in
                let obj = Delay.avg_max_delay problem r.Rounding.placement in
                match acc with
                | Some (best_obj, _, _) when best_obj <= obj -> acc
                | _ -> Some (obj, v0, r))
              None lps
          in
          match best with
          | None -> assert false
          | Some (obj, v0, r) -> (alpha, obj, v0, r))
        alphas
    in
    Some (lower_bound, per_alpha)
  end

let e1 () =
  section "E1  Theorem 1.2: average max-delay within 5a/(a-1) of OPT, load within (a+1)cap";
  let tbl =
    Table.create
      [ ("system", Table.Left); ("topology", Table.Left); ("n", Table.Right);
        ("alpha", Table.Right); ("delay", Table.Right); ("LB on OPT", Table.Right);
        ("delay/LB", Table.Right); ("bound", Table.Right); ("load/cap", Table.Right);
        ("load bound", Table.Right) ]
  in
  let alphas = [ 1.5; 2.; 3.; 4. ] in
  let first_group = ref true in
  List.iter
    (fun (sys_name, system) ->
      List.iter
        (fun topo ->
          let rng = Rng.create 11 in
          let n = 12 in
          let graph = topology topo rng n in
          let problem = uniform_problem ~system ~graph ~slack:1.0 in
          match qpp_sweep problem alphas with
          | None -> Printf.printf "(%s on %s: infeasible)\n" sys_name topo
          | Some (lb, rows) ->
              if not !first_group then Table.add_separator tbl;
              first_group := false;
              List.iter
                (fun (alpha, obj, _v0, r) ->
                  Table.add_rowf tbl "%s|%s|%d|%.1f|%.4f|%.4f|%.2f|%.2f|%.2f|%.2f"
                    sys_name topo n alpha obj lb (obj /. lb)
                    (Relay.bound *. alpha /. (alpha -. 1.))
                    (Placement.max_violation problem r.Rounding.placement)
                    (alpha +. 1.))
                rows)
        [ "waxman"; "geometric" ])
    [ ("grid 2x2", Grid_qs.make 2); ("majority 3/5", Majority_qs.make ~n:5 ~t:3) ];
  Table.print tbl;
  print_endline
    "Claim: delay/LB stays below the bound column; load/cap below its bound. The\n\
     measured ratios are far smaller than the worst-case guarantees, as expected."

(* ------------------------------------------------------------------ *)
(* E2 — Lemma 3.1: relay-via-v0 within 5x                              *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  Lemma 3.1: routing every access via the best single node costs <= 5x";
  let ratios = ref [] in
  let worst = ref (0., "") in
  let rng = Rng.create 17 in
  let systems =
    [ ("triangle", Simple_qs.triangle ()); ("grid 2x2", Grid_qs.make 2);
      ("wheel 6", Simple_qs.wheel 6); ("majority 3/5", Majority_qs.make ~n:5 ~t:3) ]
  in
  List.iter
    (fun (name, system) ->
      for _ = 1 to 60 do
        let n = 6 + Rng.int rng 10 in
        let graph = topology (if Rng.bool rng then "waxman" else "geometric") rng n in
        let problem = uniform_problem ~system ~graph ~slack:(1. +. Rng.float rng 2.) in
        match Baselines.random rng problem with
        | None -> ()
        | Some f ->
            let a = Relay.analyze problem f in
            ratios := a.Relay.ratio :: !ratios;
            if a.Relay.ratio > fst !worst then worst := (a.Relay.ratio, name)
      done)
    systems;
  let arr = Array.of_list !ratios in
  let s = Stats.summarize arr in
  let tbl =
    Table.create
      [ ("samples", Table.Right); ("mean ratio", Table.Right); ("p95", Table.Right);
        ("max", Table.Right); ("bound", Table.Right) ]
  in
  Table.add_rowf tbl "%d|%.3f|%.3f|%.3f (on %s)|%.0f" s.Stats.n s.Stats.mean s.Stats.p95
    (fst !worst) (snd !worst) Relay.bound;
  Table.print tbl;
  print_endline "Claim: the max column never exceeds 5 (it is typically below 2)."

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 3.6: scheduling <-> SSQPP reduction                    *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  Theorem 3.6: 1|prec|sum wjCj reduces to SSQPP (cost correspondence)";
  let tbl =
    Table.create
      [ ("unit-time", Table.Right); ("unit-weight", Table.Right); ("edges", Table.Right);
        ("sched OPT (DP)", Table.Right); ("SSQPP OPT -> cost", Table.Right);
        ("match", Table.Left); ("WSPT", Table.Right); ("topo", Table.Right) ]
  in
  let rng = Rng.create 23 in
  for _ = 1 to 8 do
    let nt = 3 + Rng.int rng 3 in
    let nw = 2 + Rng.int rng 3 in
    let sched = Sched.random_woeginger rng ~n_unit_time:nt ~n_unit_weight:nw ~edge_prob:0.4 in
    let opt, _ = Sched_exact.solve sched in
    let r = Reduction.make sched in
    let problem =
      Problem.make_qpp
        ~metric:(Metric.of_graph r.Reduction.graph)
        ~capacities:r.Reduction.capacities ~system:r.Reduction.system
        ~strategy:r.Reduction.strategy ()
    in
    let s = Problem.ssqpp_of_qpp problem r.Reduction.v0 in
    match Exact.ssqpp_brute_force s with
    | None -> Printf.printf "(unexpected infeasible reduction)\n"
    | Some (delay, _) ->
        let mapped = Reduction.cost_of_delay r delay in
        let edges = List.length sched.Sched.prec in
        Table.add_rowf tbl "%d|%d|%d|%.1f|%.4f|%s|%.1f|%.1f" nt nw edges opt mapped
          (if Float.abs (mapped -. opt) < 1e-6 then "yes" else "NO")
          (Sched.cost sched (Sched_heuristics.wspt sched))
          (Sched.cost sched (Sched_heuristics.topological sched))
  done;
  Table.print tbl;
  (* Companion table: the scheduling substrate's own approximation
     stack on general (positive-time) instances. *)
  let tbl2 =
    Table.create ~title:"scheduling solvers on general instances (positive times)"
      [ ("n", Table.Right); ("edges", Table.Right); ("DP OPT", Table.Right);
        ("Sidney (2-approx)", Table.Right); ("ratio", Table.Right);
        ("WSPT", Table.Right); ("topo", Table.Right) ]
  in
  for _ = 1 to 6 do
    let n = 5 + Rng.int rng 6 in
    let time = Array.init n (fun _ -> 1. +. float_of_int (Rng.int rng 4)) in
    let weight = Array.init n (fun _ -> float_of_int (Rng.int rng 6)) in
    let prec = ref [] in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if Rng.uniform rng < 0.3 then prec := (a, b) :: !prec
      done
    done;
    let t = Sched.make ~time ~weight ~prec:!prec in
    let opt, _ = Sched_exact.solve t in
    let sid = Sched.cost t (Qp_sched.Sidney.schedule t) in
    Table.add_rowf tbl2 "%d|%d|%.1f|%.1f|%.3f|%.1f|%.1f" n (List.length !prec) opt sid
      (if opt > 0. then sid /. opt else 1.)
      (Sched.cost t (Sched_heuristics.wspt t))
      (Sched.cost t (Sched_heuristics.topological t))
  done;
  Table.print tbl2;
  print_endline
    "Claim: the SSQPP optimum maps back to exactly the scheduling optimum (match =\n\
     yes), certifying the NP-hardness reduction end to end. The Sidney\n\
     decomposition stays within its proven 2x (usually much closer)."

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 3.7: SSQPP rounding, alpha sweep                       *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  Theorem 3.7: SSQPP delay <= a/(a-1) Z*, load <= (a+1)cap";
  let tbl =
    Table.create
      [ ("alpha", Table.Right); ("Z*", Table.Right); ("delay", Table.Right);
        ("delay/Z*", Table.Right); ("bound", Table.Right); ("vs exact OPT", Table.Right);
        ("load/cap", Table.Right); ("load bound", Table.Right) ]
  in
  let rng = Rng.create 29 in
  let graph = topology "geometric" rng 13 in
  let system = Grid_qs.make 3 in
  let problem = uniform_problem ~system ~graph ~slack:1.0 in
  let s = Problem.ssqpp_of_qpp problem 0 in
  (match (Lp_formulation.solve s, Exact.ssqpp_uniform_dp s) with
  | Some sol, Some (opt, _) ->
      List.iter
        (fun alpha ->
          let r = Rounding.round_filtered s (Filtering.apply ~alpha sol) in
          Table.add_rowf tbl "%.2f|%.4f|%.4f|%.3f|%.2f|%.3f|%.2f|%.2f" alpha
            sol.Lp_formulation.z_star r.Rounding.delay
            (r.Rounding.delay /. sol.Lp_formulation.z_star)
            (alpha /. (alpha -. 1.))
            (r.Rounding.delay /. opt)
            r.Rounding.load_violation (alpha +. 1.))
        [ 1.25; 1.5; 2.; 3.; 4.; 8. ];
      Table.print tbl;
      Printf.printf "Exact optimum (subset DP): %.4f\n" opt
  | _ -> print_endline "(infeasible instance)");
  print_endline
    "Claim: delay/Z* <= bound for every alpha; larger alpha trades capacity blow-up\n\
     for delay. 'vs exact OPT' shows the true ratio against the DP optimum."

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 1.3 / B.1: optimal grid layouts                        *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Theorem B.1: the concentric grid layout is optimal";
  let tbl =
    Table.create
      [ ("k", Table.Right); ("n", Table.Right); ("concentric", Table.Right);
        ("subset-DP OPT", Table.Right); ("optimal?", Table.Left);
        ("LP rounding (a=2)", Table.Right); ("greedy", Table.Right);
        ("random", Table.Right) ]
  in
  let rng = Rng.create 37 in
  List.iter
    (fun k ->
      let system = Grid_qs.make k in
      let n = (k * k) + 4 in
      let graph = topology "geometric" rng n in
      let problem = uniform_problem ~system ~graph ~slack:1.0 in
      let s = Problem.ssqpp_of_qpp problem 0 in
      let concentric =
        match Grid_layout.place s with Some l -> l.Grid_layout.delay | None -> nan
      in
      let dp =
        match Exact.ssqpp_uniform_dp s with Some (c, _) -> c | None -> nan
      in
      let lp =
        if k <= 3 then
          match Rounding.solve ~alpha:2. s with
          | Some r -> Printf.sprintf "%.4f" r.Rounding.delay
          | None -> "-"
        else "(skipped)"
      in
      let greedy =
        match solve_via "greedy" problem with
        | Some o -> Delay.ssqpp_delay s o.Outcome.placement
        | None -> nan
      in
      let random =
        match Baselines.random rng problem with
        | Some f -> Delay.ssqpp_delay s f
        | None -> nan
      in
      Table.add_rowf tbl "%d|%d|%.4f|%.4f|%s|%s|%.4f|%.4f" k n concentric dp
        (if Float.abs (concentric -. dp) < 1e-9 then "yes" else "NO")
        lp greedy random)
    [ 2; 3; 4 ];
  Table.print tbl;
  print_endline
    "Claim: concentric = subset-DP optimum at every k among capacity-respecting\n\
     placements; greedy/random are no better. The LP-rounding column may dip BELOW\n\
     the optimum because Theorem 3.7 lets it overload nodes by up to 3x."

(* ------------------------------------------------------------------ *)
(* E6 — Eq. 19: Majority closed form                                   *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Eq. (19): Majority delay is placement-invariant and in closed form";
  let tbl =
    Table.create
      [ ("n", Table.Right); ("t", Table.Right); ("closed form", Table.Right);
        ("direct eval", Table.Right); ("|diff|", Table.Right);
        ("spread over 10 shuffles", Table.Right) ]
  in
  let rng = Rng.create 41 in
  List.iter
    (fun (n, t) ->
      let system = Majority_qs.make ~n ~t in
      let nodes = n + 3 in
      let graph = topology "waxman" rng nodes in
      let problem = uniform_problem ~system ~graph ~slack:1.0 in
      let s = Problem.ssqpp_of_qpp problem 0 in
      match Majority_layout.place s with
      | None -> ()
      | Some (closed, f) ->
          let direct = Delay.ssqpp_delay s f in
          let spread = ref 0. in
          for _ = 1 to 10 do
            let perm = Rng.permutation rng n in
            let g = Array.init n (fun u -> f.(perm.(u))) in
            spread := Float.max !spread (Float.abs (Delay.ssqpp_delay s g -. direct))
          done;
          Table.add_rowf tbl "%d|%d|%.4f|%.4f|%.1e|%.1e" n t closed direct
            (Float.abs (closed -. direct))
            !spread)
    [ (5, 3); (7, 4); (9, 5); (11, 6); (13, 7) ];
  Table.print tbl;
  print_endline
    "Claim: closed form = direct evaluation, and permuting elements over the same\n\
     nodes never changes the delay (spread ~ 0)."

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 5.1: total delay via GAP                               *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  Theorem 5.1: total-delay placement, cost <= OPT with load <= 2cap";
  let tbl =
    Table.create
      [ ("system", Table.Left); ("n", Table.Right); ("GAP LP", Table.Right);
        ("rounded cost", Table.Right); ("exact OPT", Table.Right);
        ("cost <= OPT", Table.Left); ("load/cap", Table.Right); ("bound", Table.Right) ]
  in
  let rng = Rng.create 43 in
  List.iter
    (fun (name, system) ->
      let n = 11 in
      let graph = topology "geometric" rng n in
      let problem = uniform_problem ~system ~graph ~slack:1.0 in
      match solve_via "total" problem with
      | None -> Printf.printf "(%s infeasible)\n" name
      | Some o ->
          let opt =
            match Total_delay.exact_uniform problem with
            | Some (c, _) -> c
            | None -> nan
          in
          Table.add_rowf tbl "%s|%d|%.4f|%.4f|%.4f|%s|%.2f|2" name n
            (detail_or_nan o "lp_cost") o.Outcome.objective opt
            (if o.Outcome.objective <= opt +. 1e-9 then "yes" else "NO")
            o.Outcome.load_violation)
    [ ("triangle", Simple_qs.triangle ()); ("grid 2x2", Grid_qs.make 2);
      ("grid 3x3", Grid_qs.make 3); ("majority 4/7", Majority_qs.make ~n:7 ~t:4) ];
  Table.print tbl;
  print_endline
    "Claim: rounded cost never exceeds the capacity-respecting optimum, at the\n\
     price of at most doubling a node's load."

(* ------------------------------------------------------------------ *)
(* F1 — Claim A.1: integrality gaps                                    *)
(* ------------------------------------------------------------------ *)

(* Closed form of the LP optimum on single-quorum unit-capacity
   instances: each node carries exactly 1/n of every element, so
   Z* = mean distance (cross-checked against the simplex for small
   sizes). *)
let single_quorum_lp_closed_form (s : Problem.ssqpp) =
  Metric.average_distance s.Problem.metric s.Problem.v0

let f1 () =
  section "F1  Claim A.1: integrality gap of LP (9)-(14)";
  let tbl =
    Table.create ~title:"(a) general metric (star with one far node, M = 1000)"
      [ ("n", Table.Right); ("LP (simplex)", Table.Right); ("LP (closed)", Table.Right);
        ("integral OPT", Table.Right); ("gap", Table.Right); ("n (ref)", Table.Right) ]
  in
  List.iter
    (fun n ->
      let s = Integrality.path_instance ~n ~m:1000. in
      let r = Integrality.measure s in
      Table.add_rowf tbl "%d|%.2f|%.2f|%.0f|%.2f|%d" n r.Integrality.lp_value
        (single_quorum_lp_closed_form s) r.Integrality.integral_opt r.Integrality.gap n)
    [ 4; 6; 8; 10; 12 ];
  Table.print tbl;
  let tbl2 =
    Table.create ~title:"(b) Figure-1 unweighted graph (gap -> Theta(sqrt n))"
      [ ("k", Table.Right); ("n=k^2", Table.Right); ("LP", Table.Right);
        ("integral OPT", Table.Right); ("gap", Table.Right); ("gap/k", Table.Right) ]
  in
  List.iter
    (fun k ->
      let s = Integrality.figure1_instance k in
      let lp, opt =
        if k <= 5 then begin
          let r = Integrality.measure s in
          (r.Integrality.lp_value, r.Integrality.integral_opt)
        end
        else (single_quorum_lp_closed_form s, float_of_int k)
      in
      Table.add_rowf tbl2 "%d|%d|%.4f|%.0f|%.2f|%.3f" k (k * k) lp opt (opt /. lp)
        (opt /. lp /. float_of_int k))
    [ 2; 3; 4; 5; 6; 8; 10; 12 ];
  Table.print tbl2;
  print_endline
    "Claim: (a) gap approaches n as M >> n; (b) LP tends to 3/2 while the integral\n\
     optimum is k, so the gap grows as ~2k/3 = Theta(sqrt n). (k <= 5 rows also\n\
     cross-check the simplex against the closed form.)"

(* ------------------------------------------------------------------ *)
(* F2 — Figure 2: the concentric layout pattern                        *)
(* ------------------------------------------------------------------ *)

let f2 () =
  section "F2  Figure 2 view: concentric matrix of tau-ranks (Section 4.1 strategy)";
  List.iter
    (fun k ->
      Printf.printf "k = %d (cell value = rank of its tau; 1 = farthest distance):\n" k;
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          Printf.printf "%4d" (Grid_layout.rank_of_cell k i j)
        done;
        print_newline ()
      done;
      print_newline ())
    [ 3; 4; 5 ];
  print_endline
    "Reading: the top-left l x l square always holds the l^2 largest distances —\n\
     the A/B/C/D partition argument of Appendix B (Figure 2) shows any optimal\n\
     layout can be massaged into this pattern without increasing cost."

(* ------------------------------------------------------------------ *)
(* E8 — simulation vs analytic model                                   *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Discrete-event simulation vs the paper's analytic delay model";
  let tbl =
    Table.create
      [ ("system", Table.Left); ("protocol", Table.Left); ("analytic", Table.Right);
        ("simulated", Table.Right); ("rel. error", Table.Right);
        ("accesses", Table.Right) ]
  in
  let rng = Rng.create 47 in
  let graph = topology "waxman" rng 14 in
  List.iter
    (fun (name, system) ->
      let problem = uniform_problem ~system ~graph ~slack:1.3 in
      match solve_via "lp" ~candidates:[ 0; 1; 2 ] problem with
      | None -> ()
      | Some r ->
          List.iter
            (fun (pname, protocol) ->
              let cfg =
                Qp_sim.Access_sim.default_config ~problem
                  ~placement:r.Outcome.placement
              in
              let report =
                Qp_sim.Access_sim.run
                  { cfg with Qp_sim.Access_sim.protocol; accesses_per_client = 3000 }
              in
              Table.add_rowf tbl "%s|%s|%.4f|%.4f|%.3f%%|%d" name pname
                report.Qp_sim.Access_sim.analytic_delay
                report.Qp_sim.Access_sim.mean_delay
                (100. *. report.Qp_sim.Access_sim.relative_error)
                report.Qp_sim.Access_sim.n_accesses)
            [ ("parallel", Qp_sim.Access_sim.Parallel);
              ("sequential", Qp_sim.Access_sim.Sequential) ])
    [ ("grid 2x2", Grid_qs.make 2); ("majority 3/5", Majority_qs.make ~n:5 ~t:3) ];
  Table.print tbl;
  print_endline
    "Claim: with one-way measurement, zero service time and no jitter, the\n\
     simulator reproduces Avg Delta_f / Avg Gamma_f to within sampling noise,\n\
     validating the analytic model the optimization targets."

(* ------------------------------------------------------------------ *)
(* E9 — load/delay tradeoff ablation                                   *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  Ablation: the load/delay tension (Section 1.1) and Section-6 extensions";
  let rng = Rng.create 53 in
  let n = 13 in
  let graph = topology "geometric" rng n in
  let system = Grid_qs.make 3 in
  let tbl =
    Table.create ~title:"capacity slack sweep (alpha = 2, Theorem 1.2 placement)"
      [ ("cap/load", Table.Right); ("delay", Table.Right); ("nodes used", Table.Right);
        ("max load/cap", Table.Right) ]
  in
  List.iter
    (fun slack ->
      let problem = uniform_problem ~system ~graph ~slack in
      match solve_via "lp" ~candidates:[ 0; 4; 8 ] problem with
      | None -> Table.add_rowf tbl "%.1f|infeasible|-|-" slack
      | Some r ->
          Table.add_rowf tbl "%.1f|%.4f|%d|%.2f" slack r.Outcome.objective
            r.Outcome.nodes_used r.Outcome.load_violation)
    [ 1.0; 1.5; 2.; 4.; 9. ];
  Table.print tbl;
  (* Section 6 extension: non-uniform client rates. *)
  let tbl2 =
    Table.create ~title:"heterogeneous client rates (Section 6): hot client pulls quorums"
      [ ("rates", Table.Left); ("delay (weighted)", Table.Right);
        ("hot client delay", Table.Right); ("worst client delay", Table.Right) ]
  in
  let hot = 0 in
  List.iter
    (fun (label, rates) ->
      let strategy = Strategy.uniform system in
      let loads = Strategy.loads system strategy in
      let max_load = Array.fold_left Float.max 0. loads in
      let capacities = Array.make n (1.5 *. max_load) in
      let problem =
        Problem.of_graph_qpp ~graph ~capacities ~system ~strategy ?client_rates:rates ()
      in
      match solve_via "lp" ~candidates:[ 0; 4; 8 ] problem with
      | None -> ()
      | Some r ->
          let f = r.Outcome.placement in
          let worst =
            Array.fold_left Float.max 0. (Delay.all_client_max_delays problem f)
          in
          Table.add_rowf tbl2 "%s|%.4f|%.4f|%.4f" label r.Outcome.objective
            (Delay.client_max_delay problem f hot)
            worst)
    [
      ("uniform", None);
      ("client 0 does 10x", Some (Array.init n (fun v -> if v = hot then 10. else 1.)));
      ("client 0 does 100x", Some (Array.init n (fun v -> if v = hot then 100. else 1.)));
    ];
  Table.print tbl2;
  print_endline
    "Claim: more capacity headroom collapses quorums onto fewer nodes (lower delay,\n\
     higher per-node load); skewed client rates drag the placement toward the hot\n\
     client, cutting its delay sharply while the worst client's delay may grow."

(* ------------------------------------------------------------------ *)
(* E10 — construction comparison on one WAN                            *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10  Quorum constructions compared on one WAN (placement: Thm 1.2, a=2)";
  let tbl =
    Table.create
      [ ("construction", Table.Left); ("|U|", Table.Right); ("|Q|", Table.Right);
        ("quorum size", Table.Right); ("system load", Table.Right);
        ("resilience", Table.Right); ("fail pr (p=0.1)", Table.Right);
        ("avg max-delay", Table.Right); ("avg total-delay", Table.Right) ]
  in
  let rng = Rng.create 59 in
  let n = 16 in
  let graph = topology "waxman" rng n in
  List.iter
    (fun (name, system) ->
      let strategy = Strategy.uniform system in
      let problem = uniform_problem ~system ~graph ~slack:1.4 in
      match solve_via "lp" ~candidates:[ 0; 5; 10 ] problem with
      | None -> Printf.printf "(%s infeasible)\n" name
      | Some r ->
          let f = r.Outcome.placement in
          let sizes = Array.map Array.length (Quorum.quorums system) in
          let fail =
            if Quorum.universe system <= 22 then
              Printf.sprintf "%.4f" (Qp_quorum.Availability.failure_probability system 0.1)
            else "-"
          in
          Table.add_rowf tbl "%s|%d|%d|%d-%d|%.3f|%d|%s|%.4f|%.4f" name
            (Quorum.universe system) (Quorum.n_quorums system)
            (Array.fold_left min sizes.(0) sizes)
            (Array.fold_left max sizes.(0) sizes)
            (Strategy.system_load system strategy)
            (Qp_quorum.Availability.resilience system)
            fail (Delay.avg_max_delay problem f) (Delay.avg_total_delay problem f))
    [
      ("singleton", Simple_qs.singleton 1 0);
      ("star 9", Simple_qs.star 9);
      ("wheel 9", Simple_qs.wheel 9);
      ("grid 3x3", Grid_qs.make 3);
      ("majority 3/5", Majority_qs.make ~n:5 ~t:3);
      ("FPP q=2 (Maekawa)", Qp_quorum.Fpp_qs.make 2);
      ("tree depth 2", Qp_quorum.Tree_qs.make 2);
      ("walls [1;2;3]", Qp_quorum.Walls_qs.make [ 1; 2; 3 ]);
      ("voting [3;1x6]", Qp_quorum.Voting_qs.make [| 3; 1; 1; 1; 1; 1; 1 |]);
    ];
  Table.print tbl;
  print_endline
    "Reading: the classic menagerie on equal footing — low-load constructions\n\
     (grid, FPP) pay with larger quorums and higher delay; the singleton is\n\
     delay-optimal but has load 1 and resilience 0 (the paper's Section 2\n\
     critique of delay-only optimization, quantified)."

(* ------------------------------------------------------------------ *)
(* E11 — fault injection                                               *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11  Fault injection: availability under node failures, with retries";
  let module Engine = Qp_runtime.Engine in
  let module Retry = Qp_runtime.Retry in
  let module Failure = Qp_runtime.Failure in
  let rng = Rng.create 61 in
  let n = 12 in
  let graph = topology "geometric" rng n in
  let system = Majority_qs.make ~n:5 ~t:3 in
  let problem = uniform_problem ~system ~graph ~slack:1.2 in
  let placement =
    match solve_via "lp" ~candidates:[ 0; 6 ] problem with
    | Some r -> r.Outcome.placement
    | None -> failwith "infeasible"
  in
  let tbl =
    Table.create ~title:"Static (iid per attempt) failures, majority 3-of-5"
      [ ("p fail", Table.Right); ("attempts", Table.Right);
        ("availability", Table.Right); ("iid prediction", Table.Right);
        ("mean delay (ok)", Table.Right); ("mean attempts", Table.Right) ]
  in
  (* The static baseline: the engine with a fixed strategy, blind
     retries and no repair. *)
  let static_cfg failure =
    {
      (Engine.default_config ~adaptive:false ~problem ~placement ~failure ()) with
      Engine.accesses_per_client = 1500;
    }
  in
  List.iter
    (fun (p, attempts) ->
      let base = static_cfg (Failure.Static p) in
      let cfg =
        { base with Engine.retry = { base.Engine.retry with Retry.max_attempts = attempts } }
      in
      let r = Engine.run cfg in
      Table.add_rowf tbl "%.2f|%d|%.4f|%.4f|%.3f|%.2f" p attempts r.Engine.availability
        (Engine.predicted_availability cfg) r.Engine.mean_delay_success
        r.Engine.mean_attempts)
    [ (0.05, 1); (0.05, 3); (0.2, 1); (0.2, 3); (0.4, 1); (0.4, 3); (0.4, 5) ];
  Table.print tbl;
  let tbl2 =
    Table.create ~title:"Dynamic crash/repair (correlated), same steady-state availability"
      [ ("mtbf/mttr", Table.Right); ("node avail", Table.Right);
        ("availability", Table.Right); ("iid reference", Table.Right) ]
  in
  List.iter
    (fun (mtbf, mttr) ->
      let cfg = static_cfg (Failure.Dynamic { mtbf; mttr }) in
      let r = Engine.run cfg in
      Table.add_rowf tbl2 "%.0f/%.0f|%.3f|%.4f|%.4f" mtbf mttr (mtbf /. (mtbf +. mttr))
        r.Engine.availability (Engine.predicted_availability cfg))
    [ (95., 5.); (80., 20.); (60., 40.) ];
  Table.print tbl2;
  print_endline
    "Claims: static-model availability matches the iid closed form; retries push\n\
     it toward 1; the correlated crash/repair process is WORSE than the iid\n\
     reference at equal node availability (retries re-hit the same down node)."

(* ------------------------------------------------------------------ *)
(* E12 — the Related-Work design problems                              *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12  Quorum DESIGN (Related Work) vs quorum PLACEMENT (this paper)";
  let tbl =
    Table.create ~title:"design objectives on random WANs (universe = vertex set)"
      [ ("n", Table.Right); ("minmax radius (exact)", Table.Right);
        ("minmax of ball design", Table.Right); ("Lin median cost", Table.Right);
        ("minavg lower bound", Table.Right); ("2x LB", Table.Right) ]
  in
  let module Design = Qp_design.Design in
  let rng = Rng.create 67 in
  List.iter
    (fun n ->
      let graph = topology "waxman" rng n in
      let metric = Qp_graph.Metric.of_graph graph in
      let radius = Design.minmax_optimal_radius metric in
      let ball = Design.minmax_optimal_design metric in
      let _, lin = Design.lin_median_design metric in
      let lb = Design.minavg_lower_bound metric in
      Table.add_rowf tbl "%d|%.4f|%.4f|%.4f|%.4f|%.4f" n radius
        (Design.eccentricity_of_design metric ball)
        (Design.mean_delay_of_design metric lin)
        lb (2. *. lb))
    [ 8; 12; 16; 20 ];
  Table.print tbl;
  (* The paper's critique: the Lin/median design has system load 1. *)
  let rng = Rng.create 68 in
  let graph = topology "waxman" rng 12 in
  let metric = Qp_graph.Metric.of_graph graph in
  let _, lin = Design.lin_median_design metric in
  let lin_load = Strategy.system_load lin (Strategy.uniform lin) in
  let system = Grid_qs.make 3 in
  let problem = uniform_problem ~system ~graph ~slack:1.3 in
  (match solve_via "lp" ~candidates:[ 0; 6 ] problem with
  | Some r ->
      let f = r.Outcome.placement in
      let loads = Placement.node_loads problem f in
      let worst = Array.fold_left Float.max 0. loads in
      Printf.printf
        "Lin-design: system load %.2f on ONE node regardless of its capacity;\n\
         resilience 0 (single point of failure).\n\
         Placement (grid 3x3, Thm 1.2): load spread over %d nodes, max node load\n\
         %.2f = %.2fx its declared capacity (guarantee: <= 3x), delay %.4f,\n\
         resilience %d.\n"
        lin_load
        (List.length (Placement.used_nodes f))
        worst
        (Placement.max_violation problem f)
        (Delay.avg_max_delay problem f)
        (Qp_quorum.Availability.resilience system)
  | None -> ());
  print_endline
    "Reading: design-only formulations minimize delay with no handle on load -\n\
     whatever node is central absorbs everything. The placement formulation keeps\n\
     per-node load within a declared capacity (up to the proven blow-up factor)\n\
     and preserves the system's fault tolerance."

(* ------------------------------------------------------------------ *)
(* E13 — strategy re-optimization ablation                             *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13  Ablation: re-optimizing the access strategy through a placement";
  let tbl =
    Table.create
      [ ("system", Table.Left); ("topology", Table.Left);
        ("delay (uniform p)", Table.Right); ("delay (optimized p)", Table.Right);
        ("improvement", Table.Right); ("support |p>0|", Table.Right) ]
  in
  let rng = Rng.create 71 in
  List.iter
    (fun (name, system) ->
      List.iter
        (fun topo ->
          let n = 12 in
          let graph = topology topo rng n in
          let problem = uniform_problem ~system ~graph ~slack:1.2 in
          match solve_via "lp" ~candidates:[ 0; 6 ] problem with
          | None -> ()
          | Some r ->
              let f = r.Outcome.placement in
              (* Budget = what the placement already uses (cf. the
                 strategy_tuning example). *)
              let achieved = Placement.node_loads problem f in
              let caps =
                Array.mapi (fun v c -> Float.max c achieved.(v)) problem.Problem.capacities
              in
              let relaxed =
                Problem.make_qpp ~metric:problem.Problem.metric ~capacities:caps
                  ~system ~strategy:problem.Problem.strategy ()
              in
              (match Strategy_opt.optimize relaxed f with
              | None -> ()
              | Some o ->
                  let support =
                    Array.fold_left
                      (fun c x -> if x > 1e-9 then c + 1 else c)
                      0 o.Strategy_opt.strategy
                  in
                  Table.add_rowf tbl "%s|%s|%.4f|%.4f|%.1f%%|%d/%d" name topo
                    o.Strategy_opt.input_delay o.Strategy_opt.delay
                    (Float.max 0.
                       (100.
                       *. (o.Strategy_opt.input_delay -. o.Strategy_opt.delay)
                       /. o.Strategy_opt.input_delay))
                    support
                    (Quorum.n_quorums system)))
        [ "waxman"; "geometric" ])
    [ ("grid 3x3", Grid_qs.make 3); ("majority 3/5", Majority_qs.make ~n:5 ~t:3);
      ("FPP q=2", Qp_quorum.Fpp_qs.make 2) ];
  Table.print tbl;
  print_endline
    "Claim: with the placement fixed and its achieved node loads as the budget,\n\
     re-optimizing p never hurts and typically trims delay by skewing accesses\n\
     toward well-placed quorums (support shrinks below the full family)."

(* ------------------------------------------------------------------ *)
(* E14 — the price of Byzantine tolerance + probe complexity           *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14  Byzantine quorum systems: the delay price of overlap, probe complexity";
  let module B = Qp_quorum.Byzantine_qs in
  let module Probe = Qp_quorum.Probe in
  let rng = Rng.create 73 in
  let n_nodes = 14 in
  let graph = topology "waxman" rng n_nodes in
  let tbl =
    Table.create
      [ ("system", Table.Left); ("quorum size", Table.Right); ("overlap", Table.Right);
        ("masking f", Table.Right); ("load", Table.Right);
        ("avg max-delay", Table.Right); ("probes (p=0.1)", Table.Right) ]
  in
  let probe_rng = Rng.create 74 in
  let median =
    Qp_graph.Graph_props.one_median (Qp_graph.Metric.of_graph graph)
  in
  List.iter
    (fun (name, system) ->
      let strategy = Strategy.uniform system in
      let problem = uniform_problem ~system ~graph ~slack:1.3 in
      (* These majority families have up to C(9,5) = 126 quorums - far
         beyond the LP's practical size - so all systems are placed by
         the same greedy-closest heuristic for a like-for-like
         comparison. *)
      match solve_via "greedy" ~source:median problem with
      | None -> Printf.printf "(%s infeasible)\n" name
      | Some o ->
          let f = o.Outcome.placement in
          let sizes = Array.map Array.length (Quorum.quorums system) in
          let probes = Probe.estimate probe_rng system ~p:0.1 ~samples:2000 in
          Table.add_rowf tbl "%s|%d|%d|%d|%.3f|%.4f|%.2f" name
            (Array.fold_left max 0 sizes)
            (B.intersection_degree system)
            (B.max_masking_f system)
            (Strategy.system_load system strategy)
            (Delay.avg_max_delay problem f)
            probes.Probe.mean_probes)
    [
      ("crash majority 5/9", Majority_qs.make ~n:9 ~t:5);
      ("dissemination f=1 (n=9)", B.dissemination_majority ~n:9 ~f:1);
      ("dissemination f=2 (n=9)", B.dissemination_majority ~n:9 ~f:2);
      ("masking f=1 (n=9)", B.masking_majority ~n:9 ~f:1);
      ("masking f=2 (n=9)", B.masking_majority ~n:9 ~f:2);
    ];
  Table.print tbl;
  print_endline
    "Reading: tolerating f Byzantine servers forces quorum overlaps of f+1 (self-\n\
     verifying data) or 2f+1 (masking), which inflates quorum size, per-element\n\
     load, access delay AND probe complexity - the full systems cost of the\n\
     stronger failure model, measured through the same placement pipeline."

(* ------------------------------------------------------------------ *)
(* E15 — placement repair under node churn                             *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15  Node churn: minimal repair vs full re-solve";
  let rng = Rng.create 79 in
  let n = 14 in
  let graph = topology "waxman" rng n in
  let system = Grid_qs.make 3 in
  let problem = uniform_problem ~system ~graph ~slack:1.6 in
  match solve_via "lp" ~candidates:[ 0; 7 ] problem with
  | None -> print_endline "(infeasible)"
  | Some solved ->
      let f = solved.Outcome.placement in
      let tbl =
        Table.create
          [ ("dead nodes", Table.Right); ("elements moved", Table.Right);
            ("delay before", Table.Right); ("after repair", Table.Right);
            ("full re-solve", Table.Right); ("repair/re-solve", Table.Right) ]
      in
      List.iter
        (fun k ->
          (* Kill the k busiest hosts - the worst case for repair. *)
          let loads = Placement.node_loads problem f in
          let by_load =
            List.sort
              (fun a b -> compare loads.(b) loads.(a))
              (List.init n (fun v -> v))
          in
          let dead = List.filteri (fun i _ -> i < k) by_load in
          match
            (Repair.repair problem f ~dead, Repair.degradation_vs_resolve problem f ~dead)
          with
          | Some r, Some (repaired, resolved) ->
              Table.add_rowf tbl "%d|%d|%.4f|%.4f|%.4f|%.2f" k
                (List.length r.Repair.moved) r.Repair.delay_before repaired resolved
                (repaired /. resolved)
          | _ -> Table.add_rowf tbl "%d|-|-|infeasible|-|-" k)
        [ 1; 2; 3 ];
      Table.print tbl;
      print_endline
        "Reading: patching only the displaced replicas (greedy, toward client-near\n\
         survivors) stays close to a full Theorem 1.2 re-solve while moving a\n\
         fraction of the data - the operational story for churn."

(* ------------------------------------------------------------------ *)
(* E16 — closed-loop resilience engine vs static baseline              *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16  Closed-loop resilience: adaptive engine vs static strategy under churn";
  let module Engine = Qp_runtime.Engine in
  let module Retry = Qp_runtime.Retry in
  let module Failure = Qp_runtime.Failure in
  let rng = Rng.create 83 in
  let n = 14 in
  let graph = topology "waxman" rng n in
  let system = Majority_qs.make ~n:5 ~t:3 in
  let problem = uniform_problem ~system ~graph ~slack:1.5 in
  let placement =
    match solve_via "lp" ~candidates:[ 0; 7 ] problem with
    | Some r -> r.Outcome.placement
    | None -> failwith "infeasible"
  in
  let retry =
    Retry.fixed ~timeout:(4. *. Metric.diameter problem.Problem.metric) ~max_attempts:3
  in
  let accesses = 600 in
  let engine_run ?repair ~adaptive fm =
    let base = Engine.default_config ~adaptive ?repair ~problem ~placement ~failure:fm () in
    Engine.run { base with Engine.retry; accesses_per_client = accesses; seed = 5 }
  in
  (* Sanity anchor: with no failures the engine must reproduce the
     static strategy's analytic average max-delay (the adaptive layer
     falls back to the static optimum when the detector is healthy). *)
  let ff = engine_run ~adaptive:true (Failure.Static 0.) in
  Printf.printf
    "failure-free check: simulated mean delay %.4f vs analytic %.4f (error %.2f%%)\n\n"
    ff.Engine.mean_delay_success ff.Engine.analytic_delay
    (100.
    *. Float.abs (ff.Engine.mean_delay_success -. ff.Engine.analytic_delay)
    /. ff.Engine.analytic_delay);
  let tbl =
    Table.create
      ~title:
        "Dynamic mtbf/mttr sweep, equal retry budget (3 attempts, fixed timeout)"
      [ ("mtbf/mttr", Table.Right); ("node avail", Table.Right);
        ("static avail", Table.Right); ("adaptive avail", Table.Right);
        ("gain", Table.Right); ("static delay", Table.Right);
        ("adaptive delay", Table.Right) ]
  in
  List.iter
    (fun (mtbf, mttr) ->
      let fm = Failure.Dynamic { mtbf; mttr } in
      let s = engine_run ~adaptive:false fm in
      let a = engine_run ~adaptive:true fm in
      Table.add_rowf tbl "%.0f/%.0f|%.3f|%.4f|%.4f|%+.4f|%.3f|%.3f" mtbf mttr
        (Failure.node_availability fm)
        s.Engine.availability a.Engine.availability
        (a.Engine.availability -. s.Engine.availability)
        s.Engine.mean_delay_success a.Engine.mean_delay_success)
    [ (85., 15.); (80., 20.); (60., 40.); (40., 40.) ];
  Table.print tbl;
  (* The full loop: hedged retries + automatic placement repair. *)
  let tbl2 =
    Table.create ~title:"full loop under heavy churn (mtbf 60 / mttr 40)"
      [ ("configuration", Table.Left); ("avail", Table.Right); ("delay", Table.Right);
        ("hedges won", Table.Right); ("repairs", Table.Right); ("moved", Table.Right) ]
  in
  let fm = Failure.Dynamic { mtbf = 60.; mttr = 40. } in
  let hedged =
    Retry.exponential ~jitter:0.2
      ~hedge_after:(0.5 *. retry.Retry.timeout)
      ~timeout:retry.Retry.timeout ~base:(0.2 *. retry.Retry.timeout) ~max_attempts:3 ()
  in
  List.iter
    (fun (label, adaptive, rp, rt) ->
      let base = Engine.default_config ~adaptive ?repair:rp ~problem ~placement ~failure:fm () in
      let r = Engine.run { base with Engine.retry = rt; accesses_per_client = accesses; seed = 5 } in
      let moved = List.fold_left (fun acc e -> acc + e.Engine.moved) 0 r.Engine.repairs in
      Table.add_rowf tbl2 "%s|%.4f|%.3f|%d/%d|%d|%d" label r.Engine.availability
        r.Engine.mean_delay_success r.Engine.hedges_won r.Engine.hedges_launched
        (List.length r.Engine.repairs) moved)
    [
      ("static strategy", false, None, retry);
      ("adaptive", true, None, retry);
      ("adaptive + hedge", true, None, hedged);
      ("adaptive + hedge + repair", true, Some Engine.default_trigger, hedged);
    ];
  Table.print tbl2;
  print_endline
    "Claims: at equal retry budget the adaptive engine strictly beats the static\n\
     baseline on availability under correlated churn (and does not pay in delay) -\n\
     the detector steers accesses away from down replicas instead of burning\n\
     timeouts on them. Hedged retries shave the tail; automatic repair migrates\n\
     replicas off long-dead nodes. With no failures the engine reproduces the\n\
     paper's analytic delay (the static optimum is recovered exactly)."

(* ------------------------------------------------------------------ *)
(* E17 — live churn: cold vs warm re-solve vs bounded migration        *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section
    "E17  Live churn: cold re-solve vs warm re-solve vs bounded-safe migration";
  let module Spec = Qp_instance.Spec in
  let module Delta = Qp_instance.Delta in
  let module Live = Qp_instance.Live in
  let fail_err e = failwith (Qp_util.Qp_error.to_string e) in
  let spec =
    { Spec.topology = "waxman"; nodes = 14; system = "grid:3";
      cap_slack = 1.6; seed = 17; jobs = 1 }
  in
  let live = match Live.of_spec spec with Ok l -> l | Error e -> fail_err e in
  let candidates = [ 0; 7 ] in
  let bound = 3. in
  Metric.reset_apsp_cache ();
  (* Pivot counts under a scoped registry, so cold and warm runs are
     measured in isolation from each other and the suite. *)
  let pivots_of f =
    let reg = Qp_obs.Metrics.create ~enabled:true () in
    let r = Qp_obs.Metrics.with_current reg f in
    let p =
      Option.value ~default:0.
        (List.assoc_opt "qp_simplex_pivots_total"
           (Qp_obs.Metrics.scalar_series reg))
    in
    (r, int_of_float p)
  in
  let resolve = Resolve.create ~candidates () in
  (* Initial solve fills the warm bases; churn is measured from here. *)
  let initial =
    match Resolve.solve resolve (Live.problem live) with
    | Some r -> r
    | None -> failwith "e17: initial solve infeasible"
  in
  let current = ref initial.Qpp_solver.placement in
  let ratio problem f =
    let loads = Placement.node_loads problem f in
    let caps = problem.Problem.capacities in
    let r = ref 0. in
    Array.iteri
      (fun v l ->
        if l > 1e-12 then
          r := Float.max !r (if caps.(v) > 1e-12 then l /. caps.(v) else infinity))
      loads;
    !r
  in
  (* Worst load/cap ratio over the intermediates a move sequence
     creates — the transient overload a deployment would experience
     mid-transition. The (shared) starting state is excluded: it is a
     property of the churn, not of the move order. *)
  let transient problem ~current moves =
    List.fold_left
      (fun acc f -> Float.max acc (ratio problem f))
      0.
      (Migrate.intermediates ~current moves)
  in
  (* The cold baseline swap: apply the displaced elements in element
     order, no planning. *)
  let naive_moves ~current ~target =
    let ms = ref [] in
    Array.iteri
      (fun e src ->
        if src <> target.(e) then
          ms := { Migrate.elem = e; src; dst = target.(e) } :: !ms)
      current;
    List.rev !ms
  in
  let rng = Rng.create 91 in
  let step_ops s =
    let edges = Array.of_list (Qp_graph.Graph.edges (Live.graph live)) in
    let ne = Array.length edges in
    let i1 = Rng.int rng ne in
    let i2 = (i1 + 1 + Rng.int rng (ne - 1)) mod ne in
    let scale (u, v, w) =
      let f = if Rng.bool rng then 2.0 else 0.5 in
      Delta.Set_edge { u; v; length = w *. f }
    in
    let base = [ scale edges.(i1); scale edges.(i2) ] in
    if s mod 3 = 0 then begin
      (* Capacity dip on the busiest node: the step that makes move
         order matter (and exercises the planner's drains). Mild
         enough that the starting state stays under the bound. *)
      let loads = Placement.node_loads (Live.problem live) !current in
      let busiest = ref 0 in
      Array.iteri (fun v l -> if l > loads.(!busiest) then busiest := v) loads;
      let cap = (Live.capacities live).(!busiest) in
      Delta.Set_capacity { node = !busiest; cap = cap *. 0.85 } :: base
    end
    else base
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "%d churn steps on waxman n=%d grid:3 (2 edge scalings per step, \
            capacity dip every 3rd)"
           6 spec.Spec.nodes)
      [ ("step", Table.Right); ("ops", Table.Right);
        ("cold pivots", Table.Right); ("warm pivots", Table.Right);
        ("moves", Table.Right); ("drains", Table.Right);
        ("transient naive", Table.Right); ("transient planned", Table.Right);
        ("plan safe", Table.Right) ]
  in
  let tot_cold = ref 0 in
  let tot_warm = ref 0 in
  let objectives_match = ref true in
  let bounded_safe = ref true in
  let worst_naive = ref 0. in
  let worst_planned = ref 0. in
  for s = 1 to 6 do
    let ops = step_ops s in
    (match Live.apply live ops with Ok () -> () | Error e -> fail_err e);
    let problem = Live.problem live in
    let cold, pc =
      pivots_of (fun () -> Qpp_solver.solve ~alpha:2. ~candidates problem)
    in
    let warm, pw = pivots_of (fun () -> Resolve.solve resolve problem) in
    match (cold, warm) with
    | Some c, Some w ->
        tot_cold := !tot_cold + pc;
        tot_warm := !tot_warm + pw;
        if
          Float.abs (c.Qpp_solver.objective -. w.Qpp_solver.objective)
          > 1e-6 *. Float.max 1. (Float.abs c.Qpp_solver.objective)
        then objectives_match := false;
        let target = w.Qpp_solver.placement in
        let naive =
          transient problem ~current:!current
            (naive_moves ~current:!current ~target)
        in
        worst_naive := Float.max !worst_naive naive;
        (match Migrate.plan ~bound problem ~current:!current ~target with
        | Error _ ->
            bounded_safe := false;
            Table.add_rowf tbl "%d|%d|%d|%d|-|-|%.3f|-|no plan" s
              (List.length ops) pc pw naive
        | Ok plan ->
            let safe =
              match Migrate.check problem ~current:!current ~target plan with
              | Ok () -> true
              | Error _ -> false
            in
            if not safe then bounded_safe := false;
            let planned = transient problem ~current:!current plan.Migrate.moves in
            worst_planned := Float.max !worst_planned planned;
            Table.add_rowf tbl "%d|%d|%d|%d|%d|%d|%.3f|%.3f|%b" s
              (List.length ops) pc pw
              (List.length plan.Migrate.moves)
              plan.Migrate.drains naive planned safe;
            current := target)
    | _ -> failwith "e17: churn step infeasible"
  done;
  Table.print tbl;
  let _, _, partial = Metric.apsp_cache_stats () in
  Printf.printf
    "\ntotal pivots: cold %d, warm %d (%.0f%% saved); APSP partial rebuilds: %d\n"
    !tot_cold !tot_warm
    (100. *. (1. -. (float_of_int !tot_warm /. float_of_int (max 1 !tot_cold))))
    partial;
  Printf.printf "worst transient load/cap: naive swap %.3f, planned %.3f (bound %g)\n"
    !worst_naive !worst_planned bound;
  (* Machine-checkable assertions for the CI churn smoke. *)
  check "warm_lt_cold" (!tot_warm < !tot_cold);
  check "objectives_match" !objectives_match;
  check "bounded_safe" !bounded_safe;
  check "migration_beats_cold" (!worst_planned < !worst_naive -. 1e-9);
  print_endline
    "\nReading: small deltas re-solve warm in a fraction of the cold pivot count\n\
     at the identical objective (the basis survives the perturbation), the APSP\n\
     cache rebuilds only affected rows, and the planned migration keeps every\n\
     intermediate placement within the paper's load bound while the naive swap\n\
     overshoots it - the live-reconfiguration story in one table."

(* ------------------------------------------------------------------ *)
(* E18 — serve saturation: pooled dispatch scaling and the cache path  *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section
    "E18  Serve saturation: pooled solve dispatch and the placement cache";
  let module Loadgen = Qp_serve.Loadgen in
  let module Spec = Qp_instance.Spec in
  let fail_err e = failwith (Qp_util.Qp_error.to_string e) in
  (* Sized so one greedy solve costs a few milliseconds — well above
     the event loop's per-request overhead (else pooling has nothing
     to parallelize) yet cheap enough that every cell completes
     hundreds of requests. *)
  let spec =
    { Spec.topology = "waxman"; nodes = 48; system = "grid:4";
      cap_slack = 1.6; seed = 181; jobs = 1 }
  in
  let base ~duration ~unique =
    { Loadgen.default_config with
      Loadgen.duration_s = duration;
      mix = [ (Qp_serve.Protocol.Solve, 1.) ];
      spec = Some spec;
      (* greedy keeps a single solve cheap enough that every cell
         completes hundreds of requests — the sweep measures dispatch,
         not LP tail noise. *)
      options = { Qp_serve.Protocol.default_options with algorithm = "greedy" };
      seed = 18;
      timeout_ms = Some 10_000;
      unique_specs = unique
    }
  in
  let sweep_or_fail cfg =
    match Loadgen.sweep cfg with Ok cells -> cells | Error e -> fail_err e
  in
  (* Raw solve-throughput scaling: cache off and a distinct spec per
     request, so neither the placement cache nor single-flight dedup
     can coalesce work — the pool either scales or it doesn't. *)
  let scaling =
    sweep_or_fail
      { Loadgen.base = base ~duration:1.5 ~unique:true;
        server_spec = spec; server_jobs = [ 1; 4 ];
        connections_sweep = [ 2; 8 ]; cache_capacity = 0; queue_depth = 64 }
  in
  (* The hit path: every request the same spec, cache on — after the
     first miss the server should answer from the LRU. *)
  let cached =
    sweep_or_fail
      { Loadgen.base = base ~duration:1.0 ~unique:false;
        server_spec = spec; server_jobs = [ 4 ];
        connections_sweep = [ 8 ]; cache_capacity = 256; queue_depth = 64 }
  in
  let cache_int c k = Option.value ~default:0 (List.assoc_opt k c.Loadgen.sw_cache) in
  let hit_rate c =
    let h = cache_int c "hits" + cache_int c "inflight_joins" in
    let t = h + cache_int c "misses" in
    if t = 0 then 0. else float_of_int h /. float_of_int t
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "closed-loop sweep on %s n=%d %s (fresh in-process server per cell)"
           spec.Spec.topology spec.Spec.nodes spec.Spec.system)
      [ ("mode", Table.Left); ("jobs", Table.Right); ("conns", Table.Right);
        ("rps", Table.Right); ("p50 ms", Table.Right); ("p99 ms", Table.Right);
        ("ok", Table.Right); ("hit rate", Table.Right) ]
  in
  let add_cells mode cells =
    List.iter
      (fun c ->
        let r = c.Loadgen.sw_report in
        Table.add_rowf tbl "%s|%d|%d|%.0f|%.2f|%.2f|%d|%.2f" mode
          c.Loadgen.sw_jobs c.Loadgen.sw_connections r.Loadgen.throughput_rps
          (Stats.percentile r.Loadgen.latencies_ms 50.)
          (Stats.percentile r.Loadgen.latencies_ms 99.)
          r.Loadgen.ok (hit_rate c))
      cells
  in
  add_cells "unique (cache off)" scaling;
  add_cells "shared (cache on)" cached;
  Table.print tbl;
  let best jobs =
    List.fold_left
      (fun acc c ->
        if c.Loadgen.sw_jobs = jobs then
          Float.max acc c.Loadgen.sw_report.Loadgen.throughput_rps
        else acc)
      0. scaling
  in
  let clean =
    List.for_all
      (fun c ->
        let r = c.Loadgen.sw_report in
        r.Loadgen.transport_errors = 0 && r.Loadgen.ok > 0)
      (scaling @ cached)
  in
  let best_hit =
    List.fold_left (fun acc c -> Float.max acc (hit_rate c)) 0. cached
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "\nbest throughput: jobs=1 %.0f rps, jobs=4 %.0f rps (%.2fx on %d cores)\n"
    (best 1) (best 4)
    (best 4 /. Float.max 1e-9 (best 1))
    cores;
  (* Machine-checkable assertions for the CI saturation gate. The gate
     enforces [jobs4_gt_jobs1] only when [scaling_expected] — pooled
     dispatch cannot outrun the inline loop on a single core, where
     CPU-bound solves serialize no matter how they are dispatched. *)
  check "jobs4_gt_jobs1" (best 4 > best 1);
  check "scaling_expected" (cores >= 2);
  check "cache_hits_dominate" (best_hit > 0.5);
  check "all_cells_clean" clean;
  print_endline
    "\nReading: with a distinct spec per request the pooled server outscales the\n\
     inline one - the event loop stays I/O-only while worker domains run the\n\
     solves - and with a shared spec the canonical placement cache answers\n\
     nearly every request from the LRU (single-flight absorbs the stampede on\n\
     the first miss). Served bytes are identical in every cell; only the\n\
     throughput moves."

(* ------------------------------------------------------------------ *)
(* E19 — Scaling the solve core: auto dispatch and the flat metrics    *)
(* ------------------------------------------------------------------ *)

let e19 () =
  section
    "E19  Solve-core scaling: exact tree dispatch and a size-doubling series";
  let module Spec = Qp_instance.Spec in
  let module Json = Qp_obs.Json in
  let now = Qp_obs.Core.now in
  let build spec =
    match Spec.build spec with
    | Ok p -> p
    | Error e -> failwith (Qp_util.Qp_error.to_string e)
  in
  let tree_spec ~nodes ~system ~seed =
    { Spec.default with Spec.topology = "tree"; nodes; system;
      cap_slack = 1.5; seed }
  in
  (* Same spec-to-params mapping as the CLI and the server: topology
     and system hints steer [auto] toward a specialist worth trying. *)
  let params_of spec =
    let topology_hint, system_hint = Spec.solver_hints spec in
    { Solver.default_params with Solver.seed = spec.Spec.seed + 1;
      topology_hint; system_hint }
  in
  let solve_with name spec p =
    let s = Solver.find_exn name in
    match s.Solver.solve (params_of spec) p with
    | Ok o -> o
    | Error e -> failwith (name ^ ": " ^ Qp_util.Qp_error.to_string e)
  in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  (* Part 1 - exactness: on a small tree instance the dispatcher must
     pick the tree specialist and return the brute-force optimum. *)
  let spec8 = tree_spec ~nodes:8 ~system:"grid:2" ~seed:191 in
  let p8 = build spec8 in
  let auto8 = solve_with "auto" spec8 p8 in
  let exact8 = solve_with "exact" spec8 p8 in
  let auto_picked_tree = auto8.Outcome.solver = "tree" in
  let auto_is_exact =
    Float.abs (auto8.Outcome.objective -. exact8.Outcome.objective) <= 1e-9
  in
  let tbl1 =
    Table.create ~title:"auto dispatch vs exhaustive search (tree, n=8, grid:2)"
      [ ("alg", Table.Left); ("dispatched", Table.Left);
        ("objective", Table.Right); ("load viol", Table.Right) ]
  in
  Table.add_rowf tbl1 "auto|%s|%.6f|%.3f" auto8.Outcome.solver
    auto8.Outcome.objective auto8.Outcome.load_violation;
  Table.add_rowf tbl1 "exact|%s|%.6f|%.3f" exact8.Outcome.solver
    exact8.Outcome.objective exact8.Outcome.load_violation;
  Table.print tbl1;
  (* Part 2 - head-to-head at equal n: the dispatched tree solver vs
     the LP pipeline on the same instance. Best-of-3 for the fast side
     (scheduler noise dominates millisecond runs); one LP run suffices,
     it is the slow side by orders of magnitude. The CI gate compares
     deterministic work counters — simplex pivots across the LP's
     candidate sweep vs branch-and-bound nodes — because wall-clock
     ratios flake on shared runners; the wall speedup stays as an
     informational line. *)
  let spec_h2h = tree_spec ~nodes:24 ~system:"grid:2" ~seed:192 in
  let p_h2h = build spec_h2h in
  let auto_h2h, auto_wall =
    let best = ref infinity and last = ref None in
    for _ = 1 to 3 do
      let o, w = time (fun () -> solve_with "auto" spec_h2h p_h2h) in
      if w < !best then best := w;
      last := Some o
    done;
    (Option.get !last, !best)
  in
  (* Work counters under a scoped registry: pool workers merge their
     series back into it, so a sum covers the callback's work and
     nothing else (-1 when the counter was never touched). *)
  let counted f =
    let reg = Qp_obs.Metrics.create ~enabled:true () in
    let r = Qp_obs.Metrics.with_current reg f in
    let series = Qp_obs.Metrics.scalar_series reg in
    (r, fun name ->
          Option.fold ~none:(-1) ~some:int_of_float (List.assoc_opt name series))
  in
  let (lp_h2h, lp_count), lp_wall =
    time (fun () -> counted (fun () -> solve_with "lp" spec_h2h p_h2h))
  in
  let lp_pivots = lp_count "qp_simplex_pivots_total" in
  let tree_nodes =
    match Outcome.detail auto_h2h "search_nodes" with
    | Some v -> int_of_float v
    | None -> max_int (* not the tree solver: fail the work gate *)
  in
  let speedup = lp_wall /. Float.max 1e-9 auto_wall in
  let auto_work_10x = lp_pivots >= 10 * tree_nodes in
  let tbl2 =
    Table.create ~title:"auto vs lp at equal size (tree, n=24, grid:2)"
      [ ("alg", Table.Left); ("dispatched", Table.Left);
        ("objective", Table.Right); ("wall s", Table.Right);
        ("work", Table.Right) ]
  in
  Table.add_rowf tbl2 "auto|%s|%.6f|%.4f|%d nodes" auto_h2h.Outcome.solver
    auto_h2h.Outcome.objective auto_wall tree_nodes;
  Table.add_rowf tbl2 "lp|%s|%.6f|%.4f|%d pivots" lp_h2h.Outcome.solver
    lp_h2h.Outcome.objective lp_wall lp_pivots;
  Table.print tbl2;
  Printf.printf
    "\nhead-to-head: %d lp pivots vs %d tree search nodes; wall speedup \
     %.1fx (informational, auto best-of-3 vs one lp run)\n"
    lp_pivots tree_nodes speedup;
  (* Part 3 - scaling series: double n under a wall budget. The floor
     of 480 (10x the largest default-suite instance, E18's n=48) always
     runs; beyond it a cell is attempted only while its projected cost
     (4x the previous cell - the work is quadratic in n) fits the
     remaining budget. Each completed cell becomes a qp-scaling/1
     record in BENCH_results.json. *)
  let budget = !scale_budget in
  let t_series = now () in
  let tbl3 =
    Table.create
      ~title:
        (Printf.sprintf
           "scaling series on tree topology, grid:2 (budget %.0fs)" budget)
      [ ("n", Table.Right); ("solver", Table.Left); ("build s", Table.Right);
        ("solve s", Table.Right); ("objective", Table.Right);
        ("rss MB", Table.Right) ]
  in
  let last_wall = ref 0. in
  let completed = ref [] in
  let skipped = ref [] in
  let heap_free = ref true in
  List.iter
    (fun n ->
      let elapsed = now () -. t_series in
      let projected = elapsed +. Float.max 0.05 (4. *. !last_wall) in
      if n <= 480 || projected <= budget then begin
        let spec = tree_spec ~nodes:n ~system:"grid:2" ~seed:(190 + n) in
        let (p, build_count), build_wall = time (fun () -> counted (fun () -> build spec)) in
        (* A tree's APSP walks every row and pops no heap entry. *)
        if build_count "qp_apsp_heap_pops_total" <> 0
           || build_count "qp_apsp_tree_rows_total" <> n
        then heap_free := false;
        let o, solve_wall = time (fun () -> solve_with "auto" spec p) in
        let rss_kb =
          match Qp_obs.Core.max_rss_kb () with Some kb -> kb | None -> 0
        in
        last_wall := build_wall +. solve_wall;
        completed := (n, o) :: !completed;
        add_record
          (Json.Obj
             [ ("schema", Json.String "qp-scaling/1");
               ("n", Json.Int n);
               ("topology", Json.String "tree");
               ("system", Json.String "grid:2");
               ("solver", Json.String o.Outcome.solver);
               ("build_s", Json.Float build_wall);
               ("solve_s", Json.Float solve_wall);
               ("objective", Json.Float o.Outcome.objective);
               ("load_violation", Json.Float o.Outcome.load_violation);
               ("max_rss_kb", Json.Int rss_kb) ]);
        Table.add_rowf tbl3 "%d|%s|%.3f|%.3f|%.4f|%.0f" n o.Outcome.solver
          build_wall solve_wall o.Outcome.objective
          (float_of_int rss_kb /. 1024.)
      end
      else skipped := n :: !skipped)
    [ 60; 120; 240; 480; 960; 1920; 3840 ];
  Table.print tbl3;
  (match List.rev !skipped with
  | [] -> ()
  | ns ->
      Printf.printf "skipped over budget: %s\n"
        (String.concat ", " (List.map string_of_int ns)));
  let largest_n =
    List.fold_left (fun acc (n, _) -> max acc n) 0 !completed
  in
  let cells_clean =
    !completed <> []
    && List.for_all
         (fun (_, o) ->
           Float.is_finite o.Outcome.objective
           && o.Outcome.solver = "tree"
           && o.Outcome.load_violation <= 1. +. 1e-9)
         !completed
  in
  Printf.printf "largest completed cell: n=%d\n" largest_n;
  (* Machine-checkable assertions for the CI scaling-smoke gate. *)
  check "auto_picked_tree" auto_picked_tree;
  check "auto_is_exact" auto_is_exact;
  check "auto_work_10x" auto_work_10x;
  check "scaling_reached_10x" (largest_n >= 480);
  check "scaling_cells_clean" cells_clean;
  check "tree_apsp_heap_free" (!completed <> [] && !heap_free);
  print_endline
    "\nReading: on tree topologies the registry's auto entry routes the solve\n\
     to the exact tree specialist - same optimum as exhaustive search, orders\n\
     of magnitude faster than the LP pipeline at equal size - and the flat\n\
     Bigarray metric lets the series double well past 10x the largest default\n\
     experiment without touching the LP path."

(* ------------------------------------------------------------------ *)
(* E20 — Geo scenarios: read/write mixes on embedded region RTT tables *)
(* ------------------------------------------------------------------ *)

let e20 () =
  section
    "E20  Geo scenarios: read/write-aware placement on region RTT tables";
  let module Scenario = Qp_scenario.Scenario in
  let module Runner = Qp_scenario.Runner in
  let module Rw_qs = Qp_quorum.Rw_qs in
  let run spec =
    match Runner.run spec with
    | Ok r -> r
    | Error e -> failwith ("scenario: " ^ Qp_util.Qp_error.to_string e)
  in
  (* Part 1 - the headline scenario: the aws-3 region table, the grid
     read/write protocol and a 90/10 read mix. The runner solves the
     placement under the rho-weighted strategy AND under the symmetric
     (50/50) mix with identical capacities; the claim under test is
     that the read-heavy-aware placement wins on pure read latency. *)
  let base =
    { Scenario.default with
      Scenario.name = "e20-aws3-read-heavy";
      topology = "region:aws-3";
      nodes = 9;
      system = "rw-grid:3";
      read_fraction = 0.9;
      offered_loads = [| 0.5; 1.0; 2.0 |];
      accesses_per_client = 200;
      service = Qp_sim.Access_sim.Exponential 1.0;
      alg = "auto";
      seed = 1 }
  in
  let r = run base in
  Printf.printf
    "aws-3 / rw-grid:3 at read_fraction 0.9: objective %.4f, read delay \
     %.4f, write delay %.4f, symmetric-placement read delay %.4f\n\n"
    r.Runner.outcome.Outcome.objective r.Runner.read_delay
    r.Runner.write_delay r.Runner.sym_read_delay;
  let tbl1 =
    Table.create ~title:"latency-throughput curve (aws-3, rho = 0.9)"
      [ ("offered", Table.Right); ("throughput", Table.Right);
        ("accesses", Table.Right); ("mean", Table.Right);
        ("p50", Table.Right); ("p95", Table.Right) ]
  in
  Array.iter
    (fun c ->
      Table.add_rowf tbl1 "%g|%.4f|%d|%.2f|%.2f|%.2f" c.Runner.offered
        c.Runner.throughput c.Runner.accesses c.Runner.mean c.Runner.p50
        c.Runner.p95)
    r.Runner.curve;
  Table.print tbl1;
  let tbl2 =
    Table.create ~title:"per-region delay CDF (per-client means, deciles)"
      [ ("region", Table.Left); ("clients", Table.Right);
        ("p0", Table.Right); ("p50", Table.Right); ("p100", Table.Right) ]
  in
  List.iter
    (fun c ->
      let at q =
        match List.assoc_opt q c.Runner.cdf with Some v -> v | None -> nan
      in
      Table.add_rowf tbl2 "%s|%d|%.2f|%.2f|%.2f" c.Runner.region
        c.Runner.count (at 0.) (at 50.) (at 100.))
    r.Runner.region_cdfs;
  Table.print tbl2;
  (* Part 2 - the mix sweep: re-optimize the placement at each read
     fraction and evaluate its pure read and write latency. The
     symmetric column is constant by construction (rho = 0.5 placement,
     same capacities); read-heavier mixes should pull read delay at or
     below it. One offered load keeps the sweep cheap - the solves are
     the point here, not the curve. *)
  let sweep_rhos = [ 0.5; 0.75; 0.9; 1.0 ] in
  let tbl3 =
    Table.create ~title:"read-fraction sweep (aws-3, rw-grid:3)"
      [ ("rho", Table.Right); ("objective", Table.Right);
        ("read delay", Table.Right); ("write delay", Table.Right);
        ("sym read delay", Table.Right) ]
  in
  let sweep =
    List.map
      (fun rho ->
        let s =
          run
            { base with
              Scenario.name = Printf.sprintf "e20-sweep-rho-%g" rho;
              read_fraction = rho;
              offered_loads = [| 1.0 |];
              accesses_per_client = 100 }
        in
        Table.add_rowf tbl3 "%g|%.4f|%.4f|%.4f|%.4f" rho
          s.Runner.outcome.Outcome.objective s.Runner.read_delay
          s.Runner.write_delay s.Runner.sym_read_delay;
        (rho, s))
      sweep_rhos
  in
  Table.print tbl3;
  (* Part 3 - skewed clients: a zipfian population on the same table.
     Informational (the skew moves the per-region CDFs); its record
     rides along for the CI schema validation. *)
  let zipf =
    run
      { base with
        Scenario.name = "e20-aws3-zipf";
        skew = Qp_scenario.Clients.Zipf 1.2;
        offered_loads = [| 1.0 |];
        accesses_per_client = 150 }
  in
  let tbl4 =
    Table.create ~title:"zipf 1.2 population: per-region delay CDF"
      [ ("region", Table.Left); ("clients", Table.Right);
        ("p50", Table.Right); ("p100", Table.Right) ]
  in
  List.iter
    (fun c ->
      let at q =
        match List.assoc_opt q c.Runner.cdf with Some v -> v | None -> nan
      in
      Table.add_rowf tbl4 "%s|%d|%.2f|%.2f" c.Runner.region c.Runner.count
        (at 50.) (at 100.))
    zipf.Runner.region_cdfs;
  Table.print tbl4;
  List.iter (fun res -> add_record (Runner.to_json res))
    (r :: zipf :: List.map snd sweep);
  (* Machine-checkable assertions for the CI scenario-smoke gate. *)
  let monotone cdf =
    let rec ok = function
      | (q1, v1) :: ((q2, v2) :: _ as rest) ->
          q1 <= q2 && v1 <= v2 +. 1e-12 && ok rest
      | _ -> true
    in
    ok cdf
  in
  let rw_beats_symmetric_read =
    r.Runner.read_delay +. 1e-9 < r.Runner.sym_read_delay
  in
  let intersection_preserved =
    match Rw_qs.of_string_opt base.Scenario.system with
    | Some (Ok rw) -> Rw_qs.intersection_ok rw
    | _ -> false
  in
  let cdfs_monotone =
    List.for_all
      (fun res ->
        List.for_all (fun c -> monotone c.Runner.cdf) res.Runner.region_cdfs)
      (r :: zipf :: List.map snd sweep)
  in
  let curve_complete =
    Array.length r.Runner.curve = Array.length base.Scenario.offered_loads
    && Array.for_all
         (fun c ->
           c.Runner.accesses > 0
           && Float.is_finite c.Runner.throughput
           && c.Runner.throughput > 0.)
         r.Runner.curve
  in
  let regions_covered =
    List.length r.Runner.region_cdfs = Array.length r.Runner.regions
    && List.for_all (fun c -> c.Runner.count > 0) r.Runner.region_cdfs
  in
  let sweep_read_monotone =
    (* placements optimized for read-heavier mixes never lose on read
       latency relative to the symmetric baseline *)
    List.for_all
      (fun (rho, s) ->
        rho < 0.75 || s.Runner.read_delay <= s.Runner.sym_read_delay +. 1e-9)
      sweep
  in
  (* Work counter: a parallel round-trip simulation processes one event
     per access arrival and one per probe, so [qp_sim_events_total]
     under a scoped registry equals accesses + probes, exactly, and
     repeats on a rerun. *)
  let sim_events_exact =
    let spec =
      { Qp_instance.Spec.default with
        topology = "region:aws-3"; nodes = 9; system = "grid:3"; seed = 1 }
    in
    let problem =
      match Qp_instance.Spec.build spec with
      | Ok p -> p
      | Error e -> failwith (Qp_util.Qp_error.to_string e)
    in
    (* The identity holds for any placement: element u on node u. *)
    let placement = Array.init (Problem.n_elements problem) Fun.id in
    let cfg =
      { (Qp_sim.Access_sim.default_config ~problem ~placement) with
        Qp_sim.Access_sim.round_trip = true;
        service = Qp_sim.Access_sim.Exponential 1.0;
        accesses_per_client = 100 }
    in
    let events () =
      let reg = Qp_obs.Metrics.create ~enabled:true () in
      let r = Qp_obs.Metrics.with_current reg (fun () -> Qp_sim.Access_sim.run cfg) in
      let ev =
        List.assoc_opt "qp_sim_events_total" (Qp_obs.Metrics.scalar_series reg)
      in
      (r, Option.map int_of_float ev)
    in
    let r, ev = events () in
    let probes = Array.fold_left ( + ) 0 r.Qp_sim.Access_sim.node_probes in
    ev = Some (r.Qp_sim.Access_sim.n_accesses + probes) && snd (events ()) = ev
  in
  check "rw_beats_symmetric_read" rw_beats_symmetric_read;
  check "intersection_preserved" intersection_preserved;
  check "cdfs_monotone" cdfs_monotone;
  check "curve_complete" curve_complete;
  check "regions_covered" regions_covered;
  check "sweep_read_monotone" sweep_read_monotone;
  check "sim_events_exact" sim_events_exact;
  print_endline
    "\nReading: on a real 3-region RTT table, optimizing the placement for\n\
     the measured 90/10 read mix buys a strictly lower read latency than\n\
     the mix-blind symmetric placement under identical capacities, while\n\
     the per-region CDFs expose exactly which geography pays for a write\n\
     quorum that must span rows and columns."

(* ------------------------------------------------------------------ *)

(* Execution order of [all] — F1/F2 sit between E7 and E8 to match the
   historical report layout. *)
let registry =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("f1", f1); ("f2", f2); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
    ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20) ]

(* Small, fast subset exercised by the CI bench smoke job. E18 is
   excluded deliberately: its throughput numbers are nondeterministic
   and the smoke artifact is byte-diffed across runs. *)
let smoke = [ "e1"; "f1"; "f2" ]

let by_name name =
  match List.assoc_opt name registry with
  | Some f -> f ()
  | None -> failwith ("unknown experiment " ^ name)
