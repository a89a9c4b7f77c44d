module Gap = Qp_assign.Gap
module St = Qp_assign.Shmoys_tardos

type result = {
  placement : Placement.t;
  cost : float;
  lp_cost : float;
  load_violation : float;
}

let to_gap (p : Problem.qpp) =
  let n = Problem.n_nodes p in
  let nu = Problem.n_elements p in
  let loads = Problem.element_loads p in
  let avg = Array.init n (fun v -> Problem.avg_dist p v) in
  let cost = Array.init n (fun v -> Array.init nu (fun u -> loads.(u) *. avg.(v))) in
  let load = Array.init n (fun _ -> Array.copy loads) in
  Gap.make ~cost ~load ~budget:(Array.copy p.Problem.capacities) ()

let solve (p : Problem.qpp) =
  let gap = to_gap p in
  match Qp_assign.Gap_lp.solve gap with
  | None -> None
  | Some { Qp_assign.Gap_lp.y; lp_cost } ->
      let rounded = St.round gap y in
      let placement = rounded.St.assignment in
      Some
        {
          placement;
          cost = Delay.avg_total_delay p placement;
          lp_cost;
          load_violation = Placement.max_violation p placement;
        }

let exact_uniform (p : Problem.qpp) =
  let loads = Problem.element_loads p in
  let load = loads.(0) in
  if not (Array.for_all (fun l -> Qp_util.Floatx.approx l load) loads) then
    invalid_arg "Total_delay.exact_uniform: element loads are not uniform";
  if load <= 0. then invalid_arg "Total_delay.exact_uniform: zero element load";
  let n = Problem.n_nodes p in
  let nu = Problem.n_elements p in
  (* Node v holds at most floor(cap/load) elements; fill cheapest
     AvgDist nodes first. *)
  let slots =
    Array.init n (fun v ->
        (Problem.avg_dist p v, v, int_of_float (Float.floor ((p.Problem.capacities.(v) +. 1e-12) /. load))))
  in
  Array.sort compare slots;
  let placement = Array.make nu (-1) in
  let u = ref 0 in
  Array.iter
    (fun (_, v, k) ->
      let take = Stdlib.min k (nu - !u) in
      for _ = 1 to take do
        placement.(!u) <- v;
        incr u
      done)
    slots;
  if !u < nu then None else Some (Delay.avg_total_delay p placement, placement)
