module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy

let ssqpp_uniform_dp (s : Problem.ssqpp) =
  let nu = Quorum.universe s.Problem.system in
  if nu > 20 then invalid_arg "Exact.ssqpp_uniform_dp: |U| <= 20 required";
  let loads = Strategy.loads s.Problem.system s.Problem.strategy in
  let load = loads.(0) in
  if not (Array.for_all (fun l -> Qp_util.Floatx.approx l load) loads) then
    invalid_arg "Exact.ssqpp_uniform_dp: element loads are not uniform";
  if load <= 0. then invalid_arg "Exact.ssqpp_uniform_dp: zero element load";
  (* Eligible nodes hold exactly one element each. *)
  let order = Metric.nodes_by_distance s.Problem.metric s.Problem.v0 in
  let eligible =
    Array.of_list
      (List.filter
         (fun v ->
           let cap = s.Problem.capacities.(v) in
           if cap >= (2. *. load) -. 1e-12 then
             invalid_arg
               "Exact.ssqpp_uniform_dp: capacity admits two elements (expand first)";
           cap +. 1e-12 >= load)
         (Array.to_list order))
  in
  if Array.length eligible < nu then None
  else begin
    (* Only the nu closest eligible nodes matter. *)
    let nodes = Array.sub eligible 0 nu in
    let dist = Array.map (fun v -> Metric.dist s.Problem.metric s.Problem.v0 v) nodes in
    (* For each element, quorums containing it as (index, mask of other
       elements). *)
    let quorums = Quorum.quorums s.Problem.system in
    let per_elem = Array.make nu [] in
    Array.iteri
      (fun qi q ->
        let mask = Array.fold_left (fun m u -> m lor (1 lsl u)) 0 q in
        Array.iter (fun u -> per_elem.(u) <- (qi, mask lxor (1 lsl u)) :: per_elem.(u)) q)
      quorums;
    let size = 1 lsl nu in
    let dp = Array.make size infinity in
    let choice = Array.make size (-1) in
    dp.(0) <- 0.;
    let popcount m =
      let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
      go m 0
    in
    for mask = 0 to size - 1 do
      if dp.(mask) < infinity then begin
        let pos = popcount mask in
        (* Element placed next sits at distance dist.(pos). *)
        for u = 0 to nu - 1 do
          let bit = 1 lsl u in
          if mask land bit = 0 then begin
            let mask' = mask lor bit in
            (* Quorums completing now: contain u, others within mask. *)
            let finishing = ref 0. in
            List.iter
              (fun (qi, others) ->
                if others land mask = others then
                  finishing := !finishing +. s.Problem.strategy.(qi))
              per_elem.(u);
            let cost = dp.(mask) +. (!finishing *. dist.(pos)) in
            if cost < dp.(mask') -. 1e-15 then begin
              dp.(mask') <- cost;
              choice.(mask') <- u
            end
          end
        done
      end
    done;
    (* Reconstruct: elements in placement order onto nodes 0..nu-1. *)
    let placement = Array.make nu (-1) in
    let mask = ref (size - 1) in
    for pos = nu - 1 downto 0 do
      let u = choice.(!mask) in
      assert (u >= 0);
      placement.(u) <- nodes.(pos);
      mask := !mask lxor (1 lsl u)
    done;
    Some (dp.(size - 1), placement)
  end

let enumerate_placements (p : Problem.qpp) objective =
  let n = Problem.n_nodes p in
  let nu = Problem.n_elements p in
  let count = (float_of_int n) ** (float_of_int nu) in
  if count > 2_000_000. then
    invalid_arg "Exact: instance too large for brute force";
  let loads = Problem.element_loads p in
  let best = ref infinity in
  let best_f = ref None in
  let f = Array.make nu 0 in
  let node_load = Array.make n 0. in
  let leaves = ref 0 in
  (* Depth-first over assignments with incremental load pruning. Up to
     two million leaves, each costing a full objective evaluation, run
     for seconds: poll the domain-local deadline every 1024 leaves so a
     served solve stays cancellable, as the tree branch-and-bound
     does. *)
  let rec go u =
    if u = nu then begin
      incr leaves;
      if !leaves land 1023 = 0 then Qp_lp.Cancel.check_deadline ();
      let obj = objective f in
      if obj < !best then begin
        best := obj;
        best_f := Some (Array.copy f)
      end
    end
    else
      for v = 0 to n - 1 do
        if node_load.(v) +. loads.(u) <= p.Problem.capacities.(v) +. 1e-9 then begin
          node_load.(v) <- node_load.(v) +. loads.(u);
          f.(u) <- v;
          go (u + 1);
          node_load.(v) <- node_load.(v) -. loads.(u)
        end
      done
  in
  go 0;
  match !best_f with None -> None | Some f -> Some (!best, f)

let ssqpp_brute_force (s : Problem.ssqpp) =
  let p = Problem.qpp_of_ssqpp s in
  enumerate_placements p (fun f -> Delay.client_max_delay p f s.Problem.v0)

let qpp_brute_force (p : Problem.qpp) =
  enumerate_placements p (fun f -> Delay.avg_max_delay p f)

let total_delay_brute_force (p : Problem.qpp) =
  enumerate_placements p (fun f -> Delay.avg_total_delay p f)
