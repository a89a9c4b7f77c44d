type repair = {
  placement : Placement.t;
  moved : int list;
  delay_before : float;
  delay_after : float;
}

(* The post-churn view of a problem: dead nodes cannot host (capacity
   0) and are no longer clients (rate 0). *)
let survivors_problem (p : Problem.qpp) dead_set =
  let n = Problem.n_nodes p in
  let capacities =
    Array.mapi (fun v c -> if dead_set.(v) then 0. else c) p.Problem.capacities
  in
  let base_rates =
    match p.Problem.client_rates with Some r -> r | None -> Array.make n 1.
  in
  let client_rates = Array.mapi (fun v r -> if dead_set.(v) then 0. else r) base_rates in
  Problem.make_qpp ~metric:p.Problem.metric ~capacities ~system:p.Problem.system
    ~strategy:p.Problem.strategy ~client_rates ()

let dead_array (p : Problem.qpp) dead =
  let n = Problem.n_nodes p in
  let a = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Repair: dead node out of range";
      a.(v) <- true)
    dead;
  if Array.for_all (fun d -> d) a then invalid_arg "Repair: no surviving node";
  a

let repair (p : Problem.qpp) f ~dead =
  Placement.validate p f;
  let dead_set = dead_array p dead in
  let p' = survivors_problem p dead_set in
  let loads = Problem.element_loads p in
  let n = Problem.n_nodes p in
  (* Residual capacity of survivors after the elements that stay. *)
  let residual = Array.copy p'.Problem.capacities in
  let displaced = ref [] in
  Array.iteri
    (fun u v ->
      if dead_set.(v) then displaced := u :: !displaced
      else residual.(v) <- residual.(v) -. loads.(u))
    f;
  let displaced = List.sort (fun a b -> compare loads.(b) loads.(a)) !displaced in
  (* Surviving nodes ordered by (rate-weighted) closeness to clients. *)
  let hosts =
    List.sort
      (fun a b -> compare (Problem.avg_dist p' a) (Problem.avg_dist p' b))
      (List.filter (fun v -> not dead_set.(v)) (List.init n (fun v -> v)))
  in
  let patched = Array.copy f in
  let ok = ref true in
  List.iter
    (fun u ->
      if !ok then
        match List.find_opt (fun v -> residual.(v) +. 1e-12 >= loads.(u)) hosts with
        | Some v ->
            patched.(u) <- v;
            residual.(v) <- residual.(v) -. loads.(u)
        | None -> ok := false)
    displaced;
  if not !ok then None
  else
    Some
      {
        placement = patched;
        moved = displaced;
        delay_before = Delay.avg_max_delay p' f;
        delay_after = Delay.avg_max_delay p' patched;
      }

let degradation_vs_resolve (p : Problem.qpp) f ~dead =
  let dead_set = dead_array p dead in
  match repair p f ~dead with
  | None -> None
  | Some r -> (
      let p' = survivors_problem p dead_set in
      let survivors =
        List.filter
          (fun v -> not dead_set.(v))
          (List.init (Problem.n_nodes p) (fun v -> v))
      in
      match Qpp_solver.solve ~alpha:2. ~candidates:survivors p' with
      | None -> None
      | Some solved -> Some (r.delay_after, solved.Qpp_solver.objective))
