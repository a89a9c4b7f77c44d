module Obs = Qp_obs

let log_src = Logs.Src.create "qp_place.qpp_solver" ~doc:"Theorem 1.2 solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  placement : Placement.t;
  v0 : int;
  alpha : float;
  objective : float;
  relayed_objective : float;
  ssqpp : Rounding.result;
  lower_bound : float option;
  load_violation : float;
  approx_bound : float;
}

(* Core driver shared by [solve_with] and [solve_warm]: [round_of]
   receives the candidate list inside the solve span, before the
   fan-out, and returns the Theorem 3.7 stage for one candidate source,
   which may thread a simplex basis through (warm re-solve); everything
   else — the parallel candidate fan-out, the sequential
   winner/lower-bound folds, the quality gauges — is byte-identical
   between the cold and warm paths, so both choose the same placement
   given the same roundings. Also returns the per-candidate bases for
   the caller to stash. *)
let run ~alpha ?candidates ~round_of (p : Problem.qpp) =
  if not (alpha > 1. && Float.is_finite alpha) then
    invalid_arg "Qpp_solver.solve: finite alpha > 1 required";
  let n = Problem.n_nodes p in
  let candidates, complete =
    match candidates with
    | None -> (List.init n (fun v -> v), true)
    | Some c ->
        List.iter
          (fun v -> if v < 0 || v >= n then invalid_arg "Qpp_solver.solve: bad candidate")
          c;
        (c, List.sort_uniq compare c = List.init n (fun v -> v))
  in
  Obs.Span.with_ "qpp_solve"
    ~attrs:
      [ ("alpha", Obs.Json.Float alpha); ("n", Obs.Json.Int n);
        ("candidates", Obs.Json.Int (List.length candidates)) ]
  @@ fun () ->
  let round = round_of candidates in
  (* Candidate sources are independent: fan the LP + rounding + delay
     evaluation of each out over the default domain pool. The
     winner/lower-bound folds below run sequentially in candidate
     order with exactly the sequential path's comparisons, so the
     chosen placement and certified bound are identical for any worker
     count (simplex pivot counters recorded inside a candidate are
     merged back in candidate order by the pool). *)
  let evaluations =
    Qp_par.Pool.parallel_map (Qp_par.Pool.default ())
      (fun v0 ->
        Obs.Span.with_ "candidate" ~attrs:[ ("v0", Obs.Json.Int v0) ] @@ fun () ->
        match round ~v0 (Problem.ssqpp_of_qpp p v0) with
        | None ->
            Log.debug (fun m -> m "candidate v0=%d: LP infeasible" v0);
            (v0, None, None)
        | Some ((r : Rounding.result), basis) ->
            let objective = Delay.avg_max_delay p r.Rounding.placement in
            Log.debug (fun m ->
                m "candidate v0=%d: Z*=%.4f delay=%.4f objective=%.4f" v0
                  r.Rounding.z_star r.Rounding.delay objective);
            (* Lower-bound term uses Z*, not the rounded placement. *)
            let term = (Problem.avg_dist p v0 +. r.Rounding.z_star) /. Relay.bound in
            (v0, Some (objective, term, r), basis))
      (Array.of_list candidates)
  in
  let bases =
    Array.to_list evaluations
    |> List.filter_map (fun (v0, _, basis) ->
           Option.map (fun b -> (v0, b)) basis)
  in
  let best = ref None in
  let bound_acc = ref infinity in
  Array.iter
    (fun (v0, eval, _) ->
      match eval with
      | None -> ()
      | Some (objective, term, r) ->
          if term < !bound_acc then bound_acc := term;
          (match !best with
          | Some (best_obj, _, _) when best_obj <= objective -> ()
          | _ -> best := Some (objective, v0, r)))
    evaluations;
  match !best with
  | None -> (None, bases)
  | Some (objective, v0, r) ->
      let relayed_objective =
        Obs.Span.with_ "relay" ~attrs:[ ("v0", Obs.Json.Int v0) ] @@ fun () ->
        Relay.relay_delay_via p r.Rounding.placement v0
      in
      let result =
        {
          placement = r.Rounding.placement;
          v0;
          alpha;
          objective;
          relayed_objective;
          ssqpp = r;
          lower_bound = (if complete then Some !bound_acc else None);
          load_violation = Placement.max_violation p r.Rounding.placement;
          approx_bound = Relay.bound *. alpha /. (alpha -. 1.);
        }
      in
      (* Quality gauges: the same numbers the CLI prints, exported so a
         metrics dump can be checked against the human output. *)
      let g name help = Obs.Metrics.gauge ~help (Obs.Metrics.current ()) name in
      Obs.Metrics.set (g "qp_solver_objective" "Avg max-delay of the chosen placement")
        result.objective;
      Obs.Metrics.set (g "qp_solver_z_star" "LP optimum Z* of the winning source")
        r.Rounding.z_star;
      Obs.Metrics.set
        (g "qp_solver_delay_bound" "Theorem 3.7 delay bound a/(a-1) * Z*")
        r.Rounding.delay_bound;
      Obs.Metrics.set
        (g "qp_solver_load_violation" "Max load/capacity ratio of the placement")
        result.load_violation;
      Obs.Metrics.set (g "qp_solver_load_bound" "Load bound alpha + 1")
        r.Rounding.load_bound;
      Obs.Metrics.set (g "qp_solver_approx_bound" "QPP bound 5a/(a-1)")
        result.approx_bound;
      (match result.lower_bound with
      | Some lb -> Obs.Metrics.set (g "qp_solver_lower_bound" "Certified lower bound on OPT") lb
      | None -> ());
      Obs.Span.add_attr "v0" (Obs.Json.Int v0);
      Obs.Span.add_attr "objective" (Obs.Json.Float result.objective);
      (Some result, bases)

let solve_with ~alpha ?candidates ~round p =
  run ~alpha ?candidates ~round_of:(fun _ -> round) p

(* The rows (10)-(14) shared by several candidate LPs are built, and
   their simplex start prepared, before the fan-out, once per
   capacity-by-rank vector, and dropped with the solve. *)
let solve_warm ~alpha ?max_pivots ?candidates ~warm p =
  run ~alpha ?candidates p ~round_of:(fun candidates ->
      let blocks = Lp_formulation.blocks p candidates in
      Obs.Span.add_attr "lp_blocks" (Obs.Json.Int (Lp_formulation.n_blocks blocks));
      fun ~v0 s -> Rounding.solve_warm ~alpha ?max_pivots ?warm:(warm v0) ~blocks s)

let solve ?(alpha = 2.) ?max_pivots ?candidates (p : Problem.qpp) =
  fst (solve_warm ~alpha ?max_pivots ?candidates ~warm:(fun _ -> None) p)
