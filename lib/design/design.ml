module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum

let delta metric v q =
  Array.fold_left (fun acc u -> Float.max acc (Metric.dist metric v u)) 0. q

let closest_quorum_delay metric system v =
  Array.fold_left
    (fun acc q -> Float.min acc (delta metric v q))
    infinity (Quorum.quorums system)

let eccentricity_of_design metric system =
  if Quorum.universe system <> Metric.size metric then
    invalid_arg "Design: system universe must be the vertex set";
  let worst = ref 0. in
  for v = 0 to Metric.size metric - 1 do
    worst := Float.max !worst (closest_quorum_delay metric system v)
  done;
  !worst

let mean_delay_of_design metric system =
  if Quorum.universe system <> Metric.size metric then
    invalid_arg "Design: system universe must be the vertex set";
  let n = Metric.size metric in
  let acc = ref 0. in
  for v = 0 to n - 1 do
    acc := !acc +. closest_quorum_delay metric system v
  done;
  !acc /. float_of_int n

(* Balls B_r(v) pairwise intersect iff for every pair (v, v') some
   node w has max(d(v,w), d(v',w)) <= r; the smallest such r over the
   worst pair is the min-max optimum. *)
let minmax_optimal_radius metric =
  let n = Metric.size metric in
  let worst = ref 0. in
  for v = 0 to n - 1 do
    for v' = v + 1 to n - 1 do
      let best_meeting = ref infinity in
      for w = 0 to n - 1 do
        let need = Float.max (Metric.dist metric v w) (Metric.dist metric v' w) in
        if need < !best_meeting then best_meeting := need
      done;
      if !best_meeting > !worst then worst := !best_meeting
    done
  done;
  !worst

let minmax_optimal_design metric =
  let n = Metric.size metric in
  let r = minmax_optimal_radius metric in
  let ball v =
    let members = ref [] in
    for w = n - 1 downto 0 do
      if Metric.dist metric v w <= r +. 1e-12 then members := w :: !members
    done;
    Array.of_list !members
  in
  Quorum.make ~universe:n (Array.init n ball)

let lin_median_design metric =
  let m = Qp_graph.Graph_props.one_median metric in
  (m, Quorum.make ~universe:(Metric.size metric) [| [| m |] |])

let minavg_lower_bound metric =
  let n = Metric.size metric in
  let acc = ref 0. in
  for v = 0 to n - 1 do
    for v' = 0 to n - 1 do
      acc := !acc +. Metric.dist metric v v'
    done
  done;
  !acc /. float_of_int (n * n) /. 2.

let minavg_exhaustive metric =
  let n = Metric.size metric in
  if n > 4 then invalid_arg "Design.minavg_exhaustive: n <= 4 required";
  let n_subsets = (1 lsl n) - 1 in
  (* subset masks 1..n_subsets; precompute pairwise intersection and
     per-client delta for each subset. *)
  let deltas = Array.make_matrix (n_subsets + 1) n 0. in
  for mask = 1 to n_subsets do
    for v = 0 to n - 1 do
      let d = ref 0. in
      for u = 0 to n - 1 do
        if mask land (1 lsl u) <> 0 then d := Float.max !d (Metric.dist metric v u)
      done;
      deltas.(mask).(v) <- !d
    done
  done;
  let best = ref infinity in
  (* A family is a set of subset-masks; encode as a bitmask over
     1..n_subsets. Intersecting check: all pairs overlap. *)
  for family = 1 to (1 lsl n_subsets) - 1 do
    let members = ref [] in
    for s = 1 to n_subsets do
      if family land (1 lsl (s - 1)) <> 0 then members := s :: !members
    done;
    let intersecting =
      let rec pairs = function
        | [] -> true
        | s :: rest -> List.for_all (fun s' -> s land s' <> 0) rest && pairs rest
      in
      pairs !members
    in
    if intersecting then begin
      let total = ref 0. in
      for v = 0 to n - 1 do
        total :=
          !total +. List.fold_left (fun acc s -> Float.min acc deltas.(s).(v)) infinity !members
      done;
      let avg = !total /. float_of_int n in
      if avg < !best then best := avg
    end
  done;
  !best
