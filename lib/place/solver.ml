module Qp_error = Qp_util.Qp_error
module Rng = Qp_util.Rng

type kind = Approximation | Exact | Closed_form | Heuristic | Meta

let kind_name = function
  | Approximation -> "approximation"
  | Exact -> "exact"
  | Closed_form -> "closed form"
  | Heuristic -> "heuristic"
  | Meta -> "dispatcher"

type topology_hint = Tree_metric | General_metric

type params = {
  alpha : float;
  source : int;
  seed : int;
  candidates : int list option;
  pivot_budget : int option;
  topology_hint : topology_hint option;
  system_hint : string option;
}

let default_params =
  { alpha = 2.; source = 0; seed = 2; candidates = None; pivot_budget = None;
    topology_hint = None; system_hint = None }

type t = {
  name : string;
  kind : kind;
  theorem : string;
  guarantees : string;
  label : string;
  load_bound : params -> float option;
  headline : Outcome.t -> string list;
  solve : params -> Problem.qpp -> (Outcome.t, Qp_error.t) result;
}

let registry : t list ref = ref []

let register s =
  if List.exists (fun s' -> String.equal s'.name s.name) !registry then
    invalid_arg (Printf.sprintf "Solver.register: duplicate name %S" s.name);
  registry := !registry @ [ s ]

let all () = !registry

let names () = List.map (fun s -> s.name) !registry

let find name =
  match List.find_opt (fun s -> String.equal s.name name) !registry with
  | Some s -> Ok s
  | None ->
      Qp_error.invalid_instancef "unknown algorithm %S (known: %s)" name
        (String.concat "|" (names ()))

let find_exn name = List.find (fun s -> String.equal s.name name) !registry

(* ------------------------------------------------------------------ *)
(* Built-in solvers                                                    *)
(* ------------------------------------------------------------------ *)

(* All built-ins run under [Qp_error.guard]: stray [Invalid_argument]s
   from validation become [Invalid_instance], stage-level
   [Qp_error.Error] raises (simplex pivot budget, matching extraction)
   surface as their payload, and any residual [Failure] is an
   [Internal]. *)
let guarded f params p = Qp_error.guard (fun () -> f params p)

let detail_or_nan o key =
  match Outcome.detail o key with Some v -> v | None -> Float.nan

let check_source params p =
  let n = Problem.n_nodes p in
  if params.source < 0 || params.source >= n then
    Qp_error.invalid_instancef "source node %d out of range [0, %d)"
      params.source n
  else Ok params.source

let lp_solve params p =
  match
    Qpp_solver.solve ~alpha:params.alpha ?max_pivots:params.pivot_budget
      ?candidates:params.candidates p
  with
  | None -> Error (Qp_error.Infeasible "LP has no solution under these capacities")
  | Some (r : Qpp_solver.result) ->
      Ok
        (Outcome.make ~solver:"lp" ~problem:p ~placement:r.placement
           ~objective:r.objective ~avg_max_delay:r.objective
           ?lower_bound:r.lower_bound
           ~load_bound:(params.alpha +. 1.)
           ~approx_bound:r.approx_bound
           ~detail:
             [ ("v0", float_of_int r.v0);
               ("alpha", r.alpha);
               ("z_star", r.ssqpp.Rounding.z_star);
               ("relayed_objective", r.relayed_objective);
             ]
           ())

let lp =
  {
    name = "lp";
    kind = Approximation;
    theorem = "Thm 1.2 (via Thm 3.3 + Thm 3.7)";
    guarantees = "delay <= 5a/(a-1) OPT; load <= (a+1) cap";
    label = "LP rounding result";
    load_bound = (fun params -> Some (params.alpha +. 1.));
    headline =
      (fun o ->
        Printf.sprintf "Theorem 1.2 placement via source v0 = %d (alpha = %.2f)"
          (int_of_float (detail_or_nan o "v0"))
          (detail_or_nan o "alpha")
        ::
        (match o.Outcome.lower_bound with
        | Some lb -> [ Printf.sprintf "certified lower bound on OPT: %.4f" lb ]
        | None -> []));
    solve = guarded lp_solve;
  }

let total_solve _params p =
  match Total_delay.solve p with
  | None ->
      Error
        (Qp_error.Infeasible "GAP relaxation has no solution under these capacities")
  | Some (r : Total_delay.result) ->
      Ok
        (Outcome.make ~solver:"total" ~problem:p ~placement:r.placement
           ~objective:r.cost ~avg_total_delay:r.cost ~lower_bound:r.lp_cost
           ~load_bound:2.
           ~detail:[ ("lp_cost", r.lp_cost) ]
           ())

let total =
  {
    name = "total";
    kind = Approximation;
    theorem = "Thm 5.1";
    guarantees = "total delay <= OPT; load <= 2 cap";
    label = "total-delay result";
    load_bound = (fun _ -> Some 2.);
    headline =
      (fun o ->
        [ Printf.sprintf "Theorem 5.1 total-delay placement (GAP LP %.4f)"
            (detail_or_nan o "lp_cost") ]);
    solve = guarded total_solve;
  }

let greedy_solve params p =
  match check_source params p with
  | Error _ as e -> e
  | Ok source -> (
      match Baselines.greedy_closest p source with
      | None ->
          Error (Qp_error.Infeasible "greedy placement failed to fit every element")
      | Some f ->
          let obj = Delay.avg_max_delay p f in
          Ok
            (Outcome.make ~solver:"greedy" ~problem:p ~placement:f ~objective:obj
               ~avg_max_delay:obj ~load_bound:1.
               ~detail:[ ("source", float_of_int source) ]
               ()))

let greedy =
  {
    name = "greedy";
    kind = Heuristic;
    theorem = "-";
    guarantees = "no delay guarantee; load <= cap";
    label = "greedy-closest result";
    load_bound = (fun _ -> Some 1.);
    headline = (fun _ -> []);
    solve = guarded greedy_solve;
  }

let random_solve params p =
  match Baselines.random (Rng.create params.seed) p with
  | None ->
      Error
        (Qp_error.Infeasible
           "no capacity-respecting random placement found after 100 restarts")
  | Some f ->
      let obj = Delay.avg_max_delay p f in
      Ok
        (Outcome.make ~solver:"random" ~problem:p ~placement:f ~objective:obj
           ~avg_max_delay:obj ~load_bound:1.
           ~detail:[ ("seed", float_of_int params.seed) ]
           ())

let random =
  {
    name = "random";
    kind = Heuristic;
    theorem = "-";
    guarantees = "no delay guarantee; load <= cap";
    label = "random feasible result";
    load_bound = (fun _ -> Some 1.);
    headline = (fun _ -> []);
    solve = guarded random_solve;
  }

let exact_solve _params p =
  match Exact.qpp_brute_force p with
  | None ->
      Error (Qp_error.Infeasible "no capacity-respecting placement exists")
  | Some (cost, f) ->
      Ok
        (Outcome.make ~solver:"exact" ~problem:p ~placement:f ~objective:cost
           ~avg_max_delay:cost ~lower_bound:cost ~load_bound:1. ())

let exact =
  {
    name = "exact";
    kind = Exact;
    theorem = "-";
    guarantees = "exact optimum (guarded to tiny instances); load <= cap";
    label = "exact optimum result";
    load_bound = (fun _ -> Some 1.);
    headline = (fun _ -> [ "exhaustive optimum over all placements" ]);
    solve = guarded exact_solve;
  }

let grid_solve params p =
  match check_source params p with
  | Error _ as e -> e
  | Ok source -> (
      let s = Problem.ssqpp_of_qpp p source in
      match Grid_layout.place_with_expansion s with
      | None ->
          Error (Qp_error.Infeasible "fewer usable nodes than grid cells")
      | Some (layout, f) ->
          Ok
            (Outcome.make ~solver:"grid" ~problem:p ~placement:f
               ~objective:layout.Grid_layout.delay ~load_bound:1.
               ~detail:[ ("v0", float_of_int source) ]
               ()))

let grid =
  {
    name = "grid";
    kind = Closed_form;
    theorem = "Thm B.1 / Sec. 4.1";
    guarantees = "optimal single-source delay on Grid systems; load <= cap";
    label = "grid layout result";
    load_bound = (fun _ -> Some 1.);
    headline =
      (fun o ->
        [ Printf.sprintf "Theorem B.1 concentric grid layout via source v0 = %d"
            (int_of_float (detail_or_nan o "v0")) ]);
    solve = guarded grid_solve;
  }

let majority_solve params p =
  match check_source params p with
  | Error _ as e -> e
  | Ok source -> (
      let s = Problem.ssqpp_of_qpp p source in
      match Majority_layout.place s with
      | None ->
          Error
            (Qp_error.Infeasible "fewer usable nodes than majority elements")
      | Some (closed, f) ->
          Ok
            (Outcome.make ~solver:"majority" ~problem:p ~placement:f
               ~objective:closed ~load_bound:1.
               ~detail:
                 [ ("v0", float_of_int source); ("closed_form", closed) ]
               ()))

let majority =
  {
    name = "majority";
    kind = Closed_form;
    theorem = "Eq. (19) / Sec. 4.2";
    guarantees = "optimal single-source delay on threshold systems; load <= cap";
    label = "majority layout result";
    load_bound = (fun _ -> Some 1.);
    headline =
      (fun o ->
        [ Printf.sprintf "Eq. (19) majority layout via source v0 = %d"
            (int_of_float (detail_or_nan o "v0")) ]);
    solve = guarded majority_solve;
  }

let partial_solve _params p =
  let (d : Partial_deploy.deployment) = Partial_deploy.solve p in
  Ok
    (Outcome.make ~solver:"partial" ~problem:p ~placement:d.placement
       ~objective:d.cost
       ~detail:[ ("rounds", float_of_int d.rounds) ]
       ())

let partial =
  {
    name = "partial";
    kind = Heuristic;
    theorem = "Gilbert-Malewicz OPODIS'04 (Related Work)";
    guarantees = "joint local optimum of (f, q); bijection in lieu of capacities";
    label = "partial deployment result";
    load_bound = (fun _ -> None);
    headline =
      (fun o ->
        [ Printf.sprintf "Gilbert-Malewicz partial deployment: %d alternation rounds"
            (int_of_float (detail_or_nan o "rounds")) ]);
    solve = guarded partial_solve;
  }

let tree_solve params p =
  match Tree_place.solve ?node_budget:params.pivot_budget p with
  | None -> Error (Qp_error.Infeasible "no capacity-respecting placement exists")
  | Some (r : Tree_place.result) ->
      Ok
        (Outcome.make ~solver:"tree" ~problem:p ~placement:r.placement
           ~objective:r.objective ~avg_max_delay:r.objective
           ~lower_bound:r.objective ~load_bound:1.
           ~detail:
             [ ("search_nodes", float_of_int r.search_nodes);
               ("m_pairs", float_of_int r.m_pairs);
             ]
           ())

let tree =
  {
    name = "tree";
    kind = Exact;
    theorem = "diametral-pair reduction (cf. Benoit et al., Related Work)";
    guarantees = "exact optimum on tree metrics (verified); load <= cap";
    label = "tree-exact result";
    load_bound = (fun _ -> Some 1.);
    headline =
      (fun o ->
        [ Printf.sprintf
            "exact tree-metric optimum (%d search nodes, %d two-center costs)"
            (int_of_float (detail_or_nan o "search_nodes"))
            (int_of_float (detail_or_nan o "m_pairs")) ]);
    solve = guarded tree_solve;
  }

(* Dispatch spec -> specialist. Hints come from the front ends (the
   one spec->params mapping in [Qp_serve.Protocol.solver_params]); a
   wrong or stale hint costs a failed specialist attempt, never a
   wrong answer, because each specialist validates its own
   applicability (the tree solver verifies the metric). Any specialist
   error falls back to the general LP route — useful even on genuine
   capacity infeasibility, since the LP's (alpha+1) load blow-up
   admits placements the load <= cap solvers reject. *)
let auto_specialist params =
  match params.topology_hint with
  | Some Tree_metric -> Some "tree"
  | _ -> (
      match params.system_hint with
      | Some "grid" -> Some "grid"
      | Some "majority" -> Some "majority"
      | _ -> None)

let auto_solve params p =
  match auto_specialist params with
  | None -> (find_exn "lp").solve params p
  | Some name -> (
      match (find_exn name).solve params p with
      | Ok o -> Ok o
      | Error _ -> (find_exn "lp").solve params p)

let auto =
  {
    name = "auto";
    kind = Meta;
    theorem = "-";
    guarantees = "dispatches spec -> specialist (tree/grid/majority), LP fallback; inherits the chosen solver's guarantees";
    label = "auto-dispatch result";
    load_bound = (fun _ -> None);
    headline =
      (fun o -> [ Printf.sprintf "auto-dispatch selected %S" o.Outcome.solver ]);
    solve = (fun params p -> auto_solve params p);
  }

let () =
  List.iter register
    [ lp; total; greedy; random; exact; grid; majority; partial; tree; auto ]

let registry_table_markdown () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "| algorithm | kind | paper result | guarantees |\n";
  Buffer.add_string buf "|---|---|---|---|\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "| `%s` | %s | %s | %s |\n" s.name (kind_name s.kind)
           s.theorem s.guarantees))
    !registry;
  Buffer.contents buf
