module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Qp_error = Qp_util.Qp_error
module Obs = Qp_obs

(* Exact placement on tree metrics.

   On a tree, the farthest point of a finite set S from ANY vertex is
   one of the two endpoints of S's diametral pair (the classic
   double-BFS fact). So for a placed quorum q the per-client cost
   max_{u in q} d(v, f(u)) collapses to max(d(v, a), d(v, b)) where
   (a, b) is the diametral pair of {f(u) : u in q}, and the QPP
   objective becomes

     objective(f) = sum_q p(q) * M(a_q, b_q),
     M(a, b)      = (1/R) sum_v r_v * max(d(v, a), d(v, b)),

   a sum over one weighted two-center cost per quorum. M costs O(n)
   per node pair ({!Metric.weighted_max_sum}); the n one-center costs
   M(v, v) are computed up front in one pass over the matrix rows
   ({!Metric.one_center_sums}), the other pairs lazily and memoized,
   and the diametral pair of a quorum updates in O(1) per added
   element (the new pair is the farthest of the three candidate
   pairs).

   The search is a depth-first branch-and-bound over element
   assignments, exact because the bound is admissible: M is monotone
   in the placed set (a larger set has a no-smaller farthest point),
   so the current sum_q p(q) * M(pair so far) never overestimates any
   completion. Nodes are tried in increasing order of the one-center
   cost A(v) = M(v, v); since M(a, b) >= max(A(a), A(b)), placing an
   element at v forces every quorum containing it to cost at least
   max(current M, A(v)) — a quantity monotone in A(v) — so once that
   optimistic value reaches the incumbent the whole remaining node
   loop is pruned, not just v.

   Everything here trusts only the tree-metric property, which is
   verified up front (MST reconstruction + O(n^2) distance check over
   the MST's preorder) —
   dispatch hints choose to TRY this solver, they are never trusted
   for correctness. *)

(* ------------------------------------------------------------------ *)
(* Tree-metric verification                                            *)
(* ------------------------------------------------------------------ *)

let verify_tol = 1e-6

(* The minimum spanning tree of the complete distance graph (Prim,
   O(n^2), {!Metric.mst_parent}) is, on a genuine tree metric, the
   underlying tree. Check that summing its edges along tree paths
   reproduces the whole matrix: the APSP's tree kernel over the MST's
   preorder, each entry compared as it is produced, rows in chunks
   over the pool (deterministic: each row is an independent boolean). *)
let is_tree_metric ?pool metric =
  Metric.size metric <= 2
  || Metric.agrees_with_tree ?pool metric (Metric.mst_parent metric) ~tol:verify_tol

(* ------------------------------------------------------------------ *)
(* Exact branch-and-bound                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  placement : int array;
  objective : float; (* canonical Delay.avg_max_delay of [placement] *)
  search_nodes : int; (* DFS nodes expanded *)
  m_pairs : int; (* distinct two-center costs evaluated *)
}

(* How often the exponential search polls the cooperative deadline: a
   power of two so the test is one mask. 1024 nodes is well under a
   millisecond of work, so a served request overshoots its deadline by
   a negligible slice instead of arbitrarily. *)
let deadline_poll_mask = 1024 - 1

(* The branch-and-bound over a verified tree metric: the best
   placement, the search nodes expanded and the two-center costs
   evaluated. *)
let search ?node_budget (p : Problem.qpp) =
  let metric = p.Problem.metric in
  let n = Metric.size metric in
  let nu = Quorum.universe p.Problem.system in
  let quorums = Quorum.quorums p.Problem.system in
  let nq = Array.length quorums in
  let weights = p.Problem.strategy in
  let rates, total_rate =
    match p.Problem.client_rates with
    | Some r -> (r, Array.fold_left ( +. ) 0. r)
    | None -> (Array.make n 1., float_of_int n)
  in
  (* Weighted two-center costs M(a,b): the one-center costs A(v) =
     M(v,v) up front in one pass over the rows, the others lazily,
     keyed min*n+max. *)
  let cost a b = Metric.weighted_max_sum metric rates a b /. total_rate in
  let one_center =
    Array.map (fun s -> s /. total_rate) (Metric.one_center_sums metric rates)
  in
  let m_memo : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let two_center a b =
    if a = b then one_center.(a)
    else begin
      let key = if a < b then (a * n) + b else (b * n) + a in
      match Hashtbl.find_opt m_memo key with
      | Some v -> v
      | None ->
          let m = cost a b in
          Hashtbl.add m_memo key m;
          m
    end
  in
  (* Nodes in increasing one-center cost: good solutions appear early
     and the A-monotone loop break applies. Deterministic tie-break on
     id. *)
  let node_order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare one_center.(a) one_center.(b) in
      if c <> 0 then c else compare a b)
    node_order;
  (* Elements by decreasing total quorum probability: the heaviest
     contributors bind the bound earliest. *)
  let elem_weight = Array.make nu 0. in
  Array.iteri
    (fun qi q -> Array.iter (fun u -> elem_weight.(u) <- elem_weight.(u) +. weights.(qi)) q)
    quorums;
  let elem_order = Array.init nu (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare elem_weight.(b) elem_weight.(a) in
      if c <> 0 then c else compare a b)
    elem_order;
  let quorums_of = Array.make nu [] in
  Array.iteri
    (fun qi q -> Array.iter (fun u -> quorums_of.(u) <- qi :: quorums_of.(u)) q)
    quorums;
  let loads = Problem.element_loads p in
  let node_load = Array.make n 0. in
  (* Per-quorum diametral pair of placed elements ((-1,-1) = none) and
     its two-center cost. *)
  let pa = Array.make nq (-1) in
  let pb = Array.make nq (-1) in
  let pm = Array.make nq 0. in
  let lb = ref 0. in
  let f = Array.make nu (-1) in
  let best_val = ref infinity in
  let best_f = ref None in
  let search_nodes = ref 0 in
  (* The branch-and-bound is exponential in the worst case, so — like
     the simplex pivot loops — it must stay cancellable while running
     on a server pool domain: poll the domain-local deadline
     periodically and honour the caller's search-node budget. Both
     raise the same [Internal] error shape as the simplex paths, so
     the server's deadline mapping in [run_solve] applies unchanged. *)
  let check_limits () =
    if !search_nodes land deadline_poll_mask = 0 then
      Qp_lp.Cancel.check_deadline ();
    match node_budget with
    | Some b when !search_nodes > b ->
        raise
          (Qp_error.Error
             (Qp_error.Internal
                (Printf.sprintf
                   "Tree solver: search-node budget exceeded (%d nodes)" b)))
    | _ -> ()
  in
  let rec go depth =
    incr search_nodes;
    check_limits ();
    if depth = nu then begin
      if !lb < !best_val -. 1e-15 then begin
        best_val := !lb;
        best_f := Some (Array.copy f)
      end
    end
    else begin
      let u = elem_order.(depth) in
      let qs = quorums_of.(u) in
      (* Optimistic cost of placing u at a node with one-center cost
         [a]: every quorum containing u rises to at least max(pm, a). *)
      let optimistic a =
        List.fold_left
          (fun acc qi ->
            let w = weights.(qi) in
            if w > 0. && a > pm.(qi) then acc +. (w *. (a -. pm.(qi))) else acc)
          !lb qs
      in
      (try
         Array.iter
           (fun v ->
             if elem_weight.(u) > 0. && optimistic one_center.(v) >= !best_val
             then raise Exit (* A-monotone: every later node is no better *)
             else if node_load.(v) +. loads.(u) <= p.Problem.capacities.(v) +. 1e-9
             then begin
               node_load.(v) <- node_load.(v) +. loads.(u);
               f.(u) <- v;
               (* Update diametral pairs; keep undo records. *)
               let undo =
                 List.filter_map
                   (fun qi ->
                     let a = pa.(qi) and b = pb.(qi) and m = pm.(qi) in
                     let a', b' =
                       if a < 0 then (v, v)
                       else begin
                         let dav = Metric.unsafe_dist metric a v
                         and dbv = Metric.unsafe_dist metric b v
                         and dab = Metric.unsafe_dist metric a b in
                         if dav >= dbv && dav >= dab then (a, v)
                         else if dbv >= dav && dbv >= dab then (b, v)
                         else (a, b)
                       end
                     in
                     if a' = a && b' = b then None
                     else begin
                       let m' = two_center a' b' in
                       pa.(qi) <- a';
                       pb.(qi) <- b';
                       pm.(qi) <- m';
                       lb := !lb +. (weights.(qi) *. (m' -. m));
                       Some (qi, a, b, m)
                     end)
                   qs
               in
               if !lb < !best_val -. 1e-15 then go (depth + 1);
               List.iter
                 (fun (qi, a, b, m) ->
                   lb := !lb -. (weights.(qi) *. (pm.(qi) -. m));
                   pa.(qi) <- a;
                   pb.(qi) <- b;
                   pm.(qi) <- m)
                 undo;
               f.(u) <- -1;
               node_load.(v) <- node_load.(v) -. loads.(u)
             end)
           node_order
       with Exit -> ())
    end
  in
  go 0;
  let m_pairs = n + Hashtbl.length m_memo in
  Obs.Span.add_attr "search_nodes" (Obs.Json.Int !search_nodes);
  Obs.Span.add_attr "m_pairs" (Obs.Json.Int m_pairs);
  (!best_f, !search_nodes, m_pairs)

let solve ?pool ?node_budget (p : Problem.qpp) =
  Qp_lp.Cancel.check_deadline ();
  if not (Obs.Span.with_ "tree_check" (fun () -> is_tree_metric ?pool p.Problem.metric))
  then
    raise
      (Qp_error.Error
         (Qp_error.Invalid_instance
            "tree solver: the instance metric is not a tree metric"));
  let best_f, search_nodes, m_pairs =
    Obs.Span.with_ "tree_search" (fun () -> search ?node_budget p)
  in
  Option.map
    (fun placement ->
      { placement; objective = Delay.avg_max_delay p placement; search_nodes; m_pairs })
    best_f
