module Metric = Qp_graph.Metric
module Rng = Qp_util.Rng

let residual_fit (p : Problem.qpp) order node_choice =
  let loads = Problem.element_loads p in
  let residual = Array.copy p.Problem.capacities in
  let placement = Array.make (Problem.n_elements p) (-1) in
  let ok = ref true in
  List.iter
    (fun u ->
      if !ok then
        match node_choice ~residual ~load:loads.(u) with
        | Some v ->
            placement.(u) <- v;
            residual.(v) <- residual.(v) -. loads.(u)
        | None -> ok := false)
    order;
  if !ok then Some placement else None

let random rng (p : Problem.qpp) =
  let nu = Problem.n_elements p in
  let n = Problem.n_nodes p in
  let attempt () =
    let order = Array.to_list (Rng.permutation rng nu) in
    residual_fit p order (fun ~residual ~load ->
        let feasible = ref [] in
        for v = 0 to n - 1 do
          if residual.(v) +. 1e-12 >= load then feasible := v :: !feasible
        done;
        match !feasible with
        | [] -> None
        | vs -> Some (List.nth vs (Rng.int rng (List.length vs))))
  in
  let rec go tries = if tries = 0 then None else
      match attempt () with Some f -> Some f | None -> go (tries - 1)
  in
  go 100

let greedy_closest (p : Problem.qpp) v0 =
  let loads = Problem.element_loads p in
  let order =
    List.sort
      (fun a b -> compare loads.(b) loads.(a))
      (List.init (Problem.n_elements p) (fun u -> u))
  in
  let by_distance = Metric.nodes_by_distance p.Problem.metric v0 in
  residual_fit p order (fun ~residual ~load ->
      Array.find_opt (fun v -> residual.(v) +. 1e-12 >= load) by_distance)

let lin_single_node (p : Problem.qpp) =
  let hub = Qp_graph.Graph_props.one_median p.Problem.metric in
  (hub, Array.make (Problem.n_elements p) hub)

let local_search ?(max_steps = 1000) ~objective (p : Problem.qpp) start =
  Placement.validate p start;
  let nu = Problem.n_elements p in
  let n = Problem.n_nodes p in
  let loads = Problem.element_loads p in
  let f = Array.copy start in
  let node_load = Placement.node_loads p f in
  let current = ref (objective f) in
  let caps = p.Problem.capacities in
  let fits v extra = node_load.(v) +. extra <= caps.(v) +. 1e-9 in
  let improved = ref true in
  let steps = ref 0 in
  while !improved && !steps < max_steps do
    improved := false;
    incr steps;
    (* Single-element moves. *)
    for u = 0 to nu - 1 do
      if not !improved then
        for v = 0 to n - 1 do
          if (not !improved) && v <> f.(u) && fits v loads.(u) then begin
            let old = f.(u) in
            f.(u) <- v;
            let c = objective f in
            if c < !current -. 1e-12 then begin
              current := c;
              node_load.(old) <- node_load.(old) -. loads.(u);
              node_load.(v) <- node_load.(v) +. loads.(u);
              improved := true
            end
            else f.(u) <- old
          end
        done
    done;
    (* Pairwise swaps. *)
    for u = 0 to nu - 1 do
      if not !improved then
        for u' = u + 1 to nu - 1 do
          if (not !improved) && f.(u) <> f.(u') then begin
            let vu = f.(u) and vu' = f.(u') in
            let load_u_after = node_load.(vu) -. loads.(u) +. loads.(u') in
            let load_u'_after = node_load.(vu') -. loads.(u') +. loads.(u) in
            if load_u_after <= caps.(vu) +. 1e-9 && load_u'_after <= caps.(vu') +. 1e-9
            then begin
              f.(u) <- vu';
              f.(u') <- vu;
              let c = objective f in
              if c < !current -. 1e-12 then begin
                current := c;
                node_load.(vu) <- load_u_after;
                node_load.(vu') <- load_u'_after;
                improved := true
              end
              else begin
                f.(u) <- vu;
                f.(u') <- vu'
              end
            end
          end
        done
    done
  done;
  f
