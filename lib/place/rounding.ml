module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Gap = Qp_assign.Gap
module St = Qp_assign.Shmoys_tardos
module Obs = Qp_obs

type result = {
  placement : Placement.t;
  alpha : float;
  z_star : float;
  delay : float;
  delay_bound : float;
  load_violation : float;
  load_bound : float;
}

let round_filtered (s : Problem.ssqpp) (flt : Filtering.filtered) =
  Obs.Span.with_ "rounding"
    ~attrs:[ ("alpha", Obs.Json.Float flt.Filtering.alpha) ]
  @@ fun () ->
  let sol = flt.Filtering.sol in
  let n = Array.length sol.Lp_formulation.dist in
  let nu = Quorum.universe s.Problem.system in
  let loads = Strategy.loads s.Problem.system s.Problem.strategy in
  (* GAP view (machines = ranks, jobs = elements): cost of placing u at
     rank t is d_t; load is load(u); budgets are the alpha-inflated
     capacities; only supported (t, u) pairs are allowed. *)
  let allowed =
    Array.init n (fun t -> Array.init nu (fun u -> flt.Filtering.x_hat_elem.(t).(u) > 1e-12))
  in
  let cost = Array.init n (fun t -> Array.make nu sol.Lp_formulation.dist.(t)) in
  let load = Array.init n (fun _ -> Array.copy loads) in
  let budget =
    Array.init n (fun t ->
        flt.Filtering.alpha *. s.Problem.capacities.(sol.Lp_formulation.node_of_rank.(t)))
  in
  let gap = Gap.make ~cost ~load ~budget ~allowed () in
  let rounded = St.round gap flt.Filtering.x_hat_elem in
  let placement =
    Array.map (fun rank -> sol.Lp_formulation.node_of_rank.(rank)) rounded.St.assignment
  in
  let qpp = Problem.qpp_of_ssqpp s in
  let delay = Delay.ssqpp_delay s placement in
  let alpha = flt.Filtering.alpha in
  let result =
    {
      placement;
      alpha;
      z_star = sol.Lp_formulation.z_star;
      delay;
      delay_bound = alpha /. (alpha -. 1.) *. sol.Lp_formulation.z_star;
      load_violation = Placement.max_violation qpp placement;
      load_bound = alpha +. 1.;
    }
  in
  Obs.Span.add_attr "delay" (Obs.Json.Float result.delay);
  Obs.Span.add_attr "delay_bound" (Obs.Json.Float result.delay_bound);
  Obs.Span.add_attr "load_violation" (Obs.Json.Float result.load_violation);
  result

let solve_warm ?(alpha = 2.) ?max_pivots ?warm ?blocks (s : Problem.ssqpp) =
  if not (alpha > 1. && Float.is_finite alpha) then
    invalid_arg "Rounding.solve: finite alpha > 1 required";
  match Lp_formulation.solve_warm ?max_pivots ?warm ?blocks s with
  | None, _ -> None
  | Some sol, basis -> Some (round_filtered s (Filtering.apply ~alpha sol), basis)

let solve ?alpha ?max_pivots (s : Problem.ssqpp) =
  Option.map fst (solve_warm ?alpha ?max_pivots s)
