module Qp_error = Qp_util.Qp_error
module Quorum = Qp_quorum.Quorum
module Obs = Qp_obs

type move = { elem : int; src : int; dst : int }

type plan = {
  moves : move list;
  bound : float;
  max_ratio : float;
  drains : int;
}

let eps = 1e-9

let apply_move f { elem; src; dst } =
  if elem < 0 || elem >= Array.length f then
    invalid_arg "Migrate.apply_move: element out of range";
  if f.(elem) <> src then invalid_arg "Migrate.apply_move: source mismatch";
  let f' = Array.copy f in
  f'.(elem) <- dst;
  f'

let intermediates ~current moves =
  let f = ref current in
  List.map
    (fun mv ->
      let f' = apply_move !f mv in
      f := f';
      f')
    moves

(* Per-node load allowance: the safety bound is [bound * cap(v)], but
   a node that already exceeds it in the starting placement (capacity
   shrank under churn) is grandfathered at its starting load — it may
   never grow, only shrink toward the bound. *)
let allowance (p : Problem.qpp) ~bound ~current =
  let start = Placement.node_loads p current in
  Array.mapi
    (fun v cap -> Float.max (bound *. cap) start.(v))
    p.Problem.capacities

let quorum_intersection_ok system f =
  let node_sets =
    Array.map
      (fun q ->
        List.sort_uniq compare (Array.to_list (Array.map (fun u -> f.(u)) q)))
      (Quorum.quorums system)
  in
  let intersects a b = List.exists (fun v -> List.mem v b) a in
  let m = Array.length node_sets in
  let ok = ref true in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      if not (intersects node_sets.(i) node_sets.(j)) then ok := false
    done
  done;
  !ok

let max_ratio_of_loads (p : Problem.qpp) loads =
  let worst = ref 0. in
  Array.iteri
    (fun v load ->
      if load > eps then begin
        let cap = p.Problem.capacities.(v) in
        let r = if cap > 0. then load /. cap else infinity in
        if r > !worst then worst := r
      end)
    loads;
  !worst

let plan ?(bound = 3.) ?budget (p : Problem.qpp) ~current ~target =
  Obs.Span.with_ "migrate_plan" @@ fun () ->
  Qp_error.guard @@ fun () ->
  Placement.validate p current;
  Placement.validate p target;
  if bound <= 0. then invalid_arg "Migrate.plan: bound must be positive";
  let loads_u = Problem.element_loads p in
  let n = Problem.n_nodes p in
  let allow = allowance p ~bound ~current in
  let target_loads = Placement.node_loads p target in
  let bad = ref (-1) in
  Array.iteri
    (fun v load -> if load > allow.(v) +. eps && !bad < 0 then bad := v)
    target_loads;
  if !bad >= 0 then
    Qp_error.infeasiblef
      "Migrate.plan: target load %.3f exceeds %.2fx capacity at node %d"
      target_loads.(!bad) bound !bad
  else begin
    let f = Array.copy current in
    let node_load = Placement.node_loads p current in
    let pending =
      ref
        (List.filter
           (fun u -> current.(u) <> target.(u))
           (List.init (Array.length current) (fun u -> u)))
    in
    let budget =
      match budget with Some b -> b | None -> (2 * List.length !pending) + 2
    in
    let moves = ref [] in
    let moves_used = ref 0 in
    let drains = ref 0 in
    let worst = ref (max_ratio_of_loads p node_load) in
    let do_move u dst =
      let src = f.(u) in
      f.(u) <- dst;
      node_load.(src) <- node_load.(src) -. loads_u.(u);
      if node_load.(src) < 0. then node_load.(src) <- 0.;
      node_load.(dst) <- node_load.(dst) +. loads_u.(u);
      moves := { elem = u; src; dst } :: !moves;
      incr moves_used;
      let r = max_ratio_of_loads p node_load in
      if r > !worst then worst := r
    in
    let result = ref None in
    while !result = None && !pending <> [] do
      if !moves_used >= budget then
        result :=
          Some
            (Qp_error.infeasiblef
               "Migrate.plan: no safe move order within budget %d (%d \
                elements still displaced)"
               budget (List.length !pending))
      else begin
        (* Direct step: largest-load displaced element whose final
           destination has headroom now. Freeing big loads first opens
           the most room for the rest. *)
        let best = ref (-1) in
        List.iter
          (fun u ->
            let dst = target.(u) in
            if node_load.(dst) +. loads_u.(u) <= allow.(dst) +. eps then
              if
                !best < 0
                || loads_u.(u) > loads_u.(!best) +. eps
                || (Float.abs (loads_u.(u) -. loads_u.(!best)) <= eps
                   && u < !best)
              then best := u)
          !pending;
        if !best >= 0 then begin
          let u = !best in
          do_move u target.(u);
          pending := List.filter (fun v -> v <> u) !pending
        end
        else begin
          (* Deadlock: every displaced element's destination is full.
             Staged drain — park the smallest displaced load on a relay
             node with headroom; it stays pending and completes its
             journey once the cycle is broken. *)
          let pick = ref None in
          List.iter
            (fun u ->
              let better_elem =
                match !pick with
                | None -> true
                | Some (u', _) ->
                    loads_u.(u) < loads_u.(u') -. eps
                    || (Float.abs (loads_u.(u) -. loads_u.(u')) <= eps
                       && u < u')
              in
              if better_elem then begin
                (* Relay with maximum headroom; never the element's own
                   node, never its (full) destination. *)
                let relay = ref (-1) in
                let headroom = ref eps in
                for w = 0 to n - 1 do
                  if w <> f.(u) && w <> target.(u) then begin
                    let h = allow.(w) -. node_load.(w) -. loads_u.(u) in
                    if h > !headroom then begin
                      headroom := h;
                      relay := w
                    end
                  end
                done;
                if !relay >= 0 then pick := Some (u, !relay)
              end)
            !pending;
          match !pick with
          | Some (u, w) ->
              do_move u w;
              incr drains
          | None ->
              result :=
                Some
                  (Qp_error.infeasiblef
                     "Migrate.plan: deadlocked with no relay headroom (%d \
                      elements displaced, bound %.2f)"
                     (List.length !pending) bound)
        end
      end
    done;
    match !result with
    | Some err -> err
    | None ->
        let plan =
          {
            moves = List.rev !moves;
            bound;
            max_ratio = !worst;
            drains = !drains;
          }
        in
        Obs.Span.add_attr "moves" (Obs.Json.Int (List.length plan.moves));
        Obs.Span.add_attr "drains" (Obs.Json.Int plan.drains);
        Obs.Span.add_attr "max_ratio" (Obs.Json.Float plan.max_ratio);
        Ok plan
  end

let check (p : Problem.qpp) ~current ~target t =
  Qp_error.guard @@ fun () ->
  Placement.validate p current;
  Placement.validate p target;
  let allow = allowance p ~bound:t.bound ~current in
  let check_placement f =
    let loads = Placement.node_loads p f in
    let bad = ref (-1) in
    Array.iteri
      (fun v load -> if load > allow.(v) +. eps && !bad < 0 then bad := v)
      loads;
    if !bad >= 0 then
      Error
        (Qp_error.Capacity_violation
           {
             node = !bad;
             load = loads.(!bad);
             cap = p.Problem.capacities.(!bad);
           })
    else if not (quorum_intersection_ok p.Problem.system f) then
      Qp_error.internalf "Migrate.check: quorum intersection broken"
    else Ok ()
  in
  let open Qp_error in
  let* () = check_placement current in
  let rec walk f = function
    | [] ->
        if f = target then Ok ()
        else Qp_error.internalf "Migrate.check: plan does not reach target"
    | mv :: rest ->
        let f' = apply_move f mv in
        let* () = check_placement f' in
        walk f' rest
  in
  walk current t.moves

let pp ppf t =
  Format.fprintf ppf "plan(%d moves, %d drains, bound %.2f, peak %.2f)"
    (List.length t.moves) t.drains t.bound t.max_ratio
