module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum

(* One [Metric] row loop per quorum, in the order of the folds it
   replaces (left to right, starting from 0.), so every sum and max is
   bit-identical. *)
let quorum_max_delay (p : Problem.qpp) f v qi =
  Metric.quorum_delay p.Problem.metric ~total:false v f
    (Quorum.quorum p.Problem.system qi)

let quorum_total_delay (p : Problem.qpp) f v qi =
  Metric.quorum_delay p.Problem.metric ~total:true v f
    (Quorum.quorum p.Problem.system qi)

(* Sum over quorums of p(Q) times the per-quorum delay, skipping
   zero-probability quorums. [total] picks gamma over delta. *)
let expected_over_quorums (p : Problem.qpp) ~total f v =
  let strategy = p.Problem.strategy in
  let acc = ref 0. in
  for qi = 0 to Array.length strategy - 1 do
    let pq = strategy.(qi) in
    if pq > 0. then
      acc :=
        !acc
        +. (pq *. if total then quorum_total_delay p f v qi else quorum_max_delay p f v qi)
  done;
  !acc

let client_max_delay p f v = expected_over_quorums p ~total:false f v

let client_total_delay p f v = expected_over_quorums p ~total:true f v

(* Per-client delays evaluated over the default domain pool. The
   reduction below always runs sequentially in client order, so the
   result is bit-identical to a single-core run for any worker
   count. *)
let per_client_values n per_client =
  Qp_par.Pool.parallel_init (Qp_par.Pool.default ()) n per_client

let weighted_avg (p : Problem.qpp) per_client =
  let n = Problem.n_nodes p in
  match p.Problem.client_rates with
  | None ->
      let values = per_client_values n per_client in
      let acc = ref 0. in
      for v = 0 to n - 1 do
        acc := !acc +. values.(v)
      done;
      !acc /. float_of_int n
  | Some rates ->
      let total = Array.fold_left ( +. ) 0. rates in
      (* Rate-zero clients are skipped, not just weighted out, to keep
         the float-operation sequence of the sequential path. *)
      let values =
        per_client_values n (fun v -> if rates.(v) > 0. then per_client v else 0.)
      in
      let acc = ref 0. in
      for v = 0 to n - 1 do
        if rates.(v) > 0. then acc := !acc +. (rates.(v) *. values.(v))
      done;
      !acc /. total

let avg_max_delay p f =
  Placement.validate p f;
  weighted_avg p (client_max_delay p f)

let avg_total_delay p f =
  Placement.validate p f;
  weighted_avg p (client_total_delay p f)

let ssqpp_delay (s : Problem.ssqpp) f =
  let p = Problem.qpp_of_ssqpp s in
  Placement.validate p f;
  client_max_delay p f s.Problem.v0

let all_client_max_delays p f =
  Placement.validate p f;
  per_client_values (Problem.n_nodes p) (fun v -> client_max_delay p f v)
