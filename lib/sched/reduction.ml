module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Graph = Qp_graph.Graph

type t = {
  sched : Sched.t;
  system : Quorum.system;
  strategy : Strategy.t;
  graph : Graph.t;
  capacities : float array;
  v0 : int;
  epsilon : float;
  n_unit_time : int;
  n_unit_weight : int;
  element_of_job : int array;
}

let make (sched : Sched.t) =
  if not (Sched.is_woeginger_form sched) then
    invalid_arg "Reduction.make: instance not in Woeginger form";
  let n = sched.Sched.n in
  let n_unit_time =
    Array.fold_left (fun acc t -> if t = 1. then acc + 1 else acc) 0 sched.Sched.time
  in
  let n_unit_weight = n - n_unit_time in
  for j = 0 to n - 1 do
    let is_unit_time = sched.Sched.time.(j) = 1. in
    if is_unit_time <> (j < n_unit_time) then
      invalid_arg "Reduction.make: unit-time jobs must precede unit-weight jobs"
  done;
  if n_unit_time = 0 || n_unit_weight = 0 then
    invalid_arg "Reduction.make: need jobs of both types";
  (* Elements: e_0 = 0; unit-time job a -> element a + 1. *)
  let element_of_job =
    Array.init n (fun j -> if j < n_unit_time then j + 1 else -1)
  in
  let universe = n_unit_time + 1 in
  (* Type-1 quorums: one per unit-weight job b. *)
  let type1 =
    Array.init n_unit_weight (fun k ->
        let b = n_unit_time + k in
        let preds = Sched.predecessors sched b in
        Array.of_list (0 :: List.map (fun a -> element_of_job.(a)) preds))
  in
  (* Type-2 quorums: {u, e_0} for each non-hub element. *)
  let type2 = Array.init n_unit_time (fun i -> [| 0; i + 1 |]) in
  let system = Quorum.make ~universe (Array.append type1 type2) in
  (* epsilon below both feasibility thresholds of the proof:
     eps < (1-eps)/(n-m) and the capacity inequality
     eps + (1-eps)/(n-m) <= 2(1-eps)/(n-m) - eps. *)
  let nm = float_of_int n_unit_time in
  let epsilon = 1. /. ((2. *. nm) +. 2.) in
  let m = float_of_int n_unit_weight in
  let strategy =
    Array.init (n_unit_weight + n_unit_time) (fun i ->
        if i < n_unit_weight then epsilon /. m else (1. -. epsilon) /. nm)
  in
  Strategy.validate system strategy;
  let graph = Qp_graph.Generators.path (n_unit_time + 1) in
  let capacities =
    Array.init (n_unit_time + 1) (fun v ->
        if v = 0 then 1. else (2. *. (1. -. epsilon) /. nm) -. epsilon)
  in
  {
    sched;
    system;
    strategy;
    graph;
    capacities;
    v0 = 0;
    epsilon;
    n_unit_time;
    n_unit_weight;
    element_of_job;
  }

let series_sum k = float_of_int (k * (k + 1)) /. 2.

let delay_of_cost r cost =
  let m = float_of_int r.n_unit_weight in
  let nm = float_of_int r.n_unit_time in
  (r.epsilon /. m *. cost) +. ((1. -. r.epsilon) /. nm *. series_sum r.n_unit_time)

let cost_of_delay r delay =
  let m = float_of_int r.n_unit_weight in
  let nm = float_of_int r.n_unit_time in
  (delay -. ((1. -. r.epsilon) /. nm *. series_sum r.n_unit_time)) *. m /. r.epsilon

let check_placement r f =
  let universe = r.n_unit_time + 1 in
  if Array.length f <> universe then invalid_arg "Reduction: placement length mismatch";
  if f.(0) <> 0 then invalid_arg "Reduction: e_0 must sit on v_0";
  let seen = Array.make universe false in
  for u = 1 to universe - 1 do
    let v = f.(u) in
    if v < 1 || v > r.n_unit_time then invalid_arg "Reduction: placement out of range";
    if seen.(v) then invalid_arg "Reduction: placement not injective";
    seen.(v) <- true
  done

let schedule_of_placement r f =
  check_placement r f;
  let n = r.sched.Sched.n in
  (* Position (1-based) of each unit-time job on the path. *)
  let pos = Array.make n 0 in
  for a = 0 to r.n_unit_time - 1 do
    pos.(a) <- f.(r.element_of_job.(a))
  done;
  (* Unit-time jobs sorted by position; unit-weight jobs inserted as
     soon as their predecessors are done. *)
  let unit_time_by_pos =
    List.sort
      (fun a b -> compare pos.(a) pos.(b))
      (List.init r.n_unit_time (fun a -> a))
  in
  let ready_at b =
    List.fold_left (fun acc a -> Stdlib.max acc pos.(a)) 0 (Sched.predecessors r.sched b)
  in
  let weight_jobs =
    List.sort
      (fun b b' -> compare (ready_at b) (ready_at b'))
      (List.init r.n_unit_weight (fun k -> r.n_unit_time + k))
  in
  (* Merge: after the unit-time job at position t, emit all weight jobs
     with ready_at <= t (ready_at 0 jobs come first). *)
  let order = ref [] in
  let remaining = ref weight_jobs in
  let emit_ready threshold =
    let rec go () =
      match !remaining with
      | b :: rest when ready_at b <= threshold ->
          order := b :: !order;
          remaining := rest;
          go ()
      | _ -> ()
    in
    go ()
  in
  emit_ready 0;
  List.iter
    (fun a ->
      order := a :: !order;
      emit_ready pos.(a))
    unit_time_by_pos;
  assert (!remaining = []);
  Array.of_list (List.rev !order)

let delay_of_placement r f =
  check_placement r f;
  let qs = Quorum.quorums r.system in
  let delay = ref 0. in
  Array.iteri
    (fun i q ->
      let d = Array.fold_left (fun acc u -> Stdlib.max acc (float_of_int f.(u))) 0. q in
      delay := !delay +. (r.strategy.(i) *. d))
    qs;
  !delay
