module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Lp = Qp_lp.Lp
module Simplex = Qp_lp.Simplex
module Obs = Qp_obs

type fractional = {
  rank_of_node : int array;
  node_of_rank : int array;
  dist : float array;
  x_elem : float array array;
  x_quorum : float array array;
  z_star : float;
}

let ordering (s : Problem.ssqpp) =
  let node_of_rank = Metric.nodes_by_distance s.Problem.metric s.Problem.v0 in
  let n = Array.length node_of_rank in
  let rank_of_node = Array.make n 0 in
  Array.iteri (fun t v -> rank_of_node.(v) <- t) node_of_rank;
  let dist = Array.map (fun v -> Metric.dist s.Problem.metric s.Problem.v0 v) node_of_rank in
  (rank_of_node, node_of_rank, dist)

(* The variable numbering, for [n] ranks over [nu] elements and [nq]
   quorums. *)
let var_elem ~nu t u = (t * nu) + u
let var_quorum ~n ~nu ~nq t q = (n * nu) + (t * nq) + q

(* The nearest-first assignment: elements by decreasing load (ties by
   index), each on the lowest rank with room left, under the 1e-12
   tolerance that decides the pinning rows (13). [None] when an element
   fits nowhere: that is bin packing, and the LP may still be
   fractionally feasible. *)
let first_fit caps loads =
  let n = Array.length caps in
  let used = Array.make n 0. in
  let rank = Array.make (Array.length loads) 0 in
  let place u =
    let t = ref 0 in
    while !t < n && used.(!t) +. loads.(u) > caps.(!t) +. 1e-12 do
      incr t
    done;
    !t < n
    && begin
         used.(!t) <- used.(!t) +. loads.(u);
         rank.(u) <- !t;
         true
       end
  in
  let order =
    List.stable_sort
      (fun a b -> Float.compare loads.(b) loads.(a))
      (List.init (Array.length loads) Fun.id)
  in
  if List.for_all place order then Some rank else None

(* Rows (10)-(14) with a zero objective. They depend on the source
   only through [caps], the capacity of the node of each rank. The
   block carries the start of its first-fit assignment f, if there is
   one: x_{f(u),u} for each element and x_{t_Q,Q} with
   t_Q = max_{u in Q} f(u) for each quorum. With the slacks of rows
   (12)-(14) that is a primal-feasible basis, so the simplex skips
   phase 1. *)
let constraint_block system strategy caps =
  let n = Array.length caps in
  let nu = Quorum.universe system in
  let nq = Quorum.n_quorums system in
  let loads = Strategy.loads system strategy in
  let var_elem = var_elem ~nu and var_quorum = var_quorum ~n ~nu ~nq in
  let lp = Lp.create ((n * nu) + (n * nq)) in
  (* Each unit term is made once and shared by the rows that use it
     ([Lp.add_constraint] keeps a pair mentioned once), so a kept block
     holds one list cell per term. *)
  let elem_pos = Array.init n (fun t -> Array.init nu (fun u -> (var_elem t u, 1.))) in
  let elem_neg = Array.init n (fun t -> Array.init nu (fun u -> (var_elem t u, -1.))) in
  let quorum_pos = Array.init n (fun t -> Array.init nq (fun q -> (var_quorum t q, 1.))) in
  (* (10) each element placed once. *)
  for u = 0 to nu - 1 do
    Lp.add_constraint lp (List.init n (fun t -> elem_pos.(t).(u))) Lp.Eq 1.
  done;
  (* (11) each quorum completes once. *)
  for q = 0 to nq - 1 do
    Lp.add_constraint lp (List.init n (fun t -> quorum_pos.(t).(q))) Lp.Eq 1.
  done;
  (* (12) capacity per node and (13) oversize pinning. *)
  for t = 0 to n - 1 do
    let cap = caps.(t) in
    let terms = ref [] in
    for u = 0 to nu - 1 do
      if loads.(u) > cap +. 1e-12 then
        Lp.add_constraint lp [ elem_pos.(t).(u) ] Lp.Le 0.
      else if loads.(u) > 0. then terms := (var_elem t u, loads.(u)) :: !terms
    done;
    if !terms <> [] then Lp.add_constraint lp !terms Lp.Le cap
  done;
  (* (14) prefix-domination: a quorum cannot complete before each of
     its elements has been placed. The t = n-1 row is implied by (10)
     and (11) and is omitted. *)
  Array.iteri
    (fun q quorum ->
      Array.iter
        (fun u ->
          for t = 0 to n - 2 do
            let terms =
              List.init (t + 1) (fun st -> quorum_pos.(st).(q))
              @ List.init (t + 1) (fun st -> elem_neg.(st).(u))
            in
            Lp.add_constraint lp terms Lp.Le 0.
          done)
        quorum)
    (Quorum.quorums system);
  Option.iter
    (fun rank ->
      Lp.set_start lp
        (Array.append
           (Array.init nu (fun u -> var_elem rank.(u) u))
           (Array.mapi
              (fun q quorum ->
                var_quorum (Array.fold_left (fun t u -> max t rank.(u)) 0 quorum) q)
              (Quorum.quorums system))))
    (first_fit caps loads);
  lp

let caps_by_rank capacities node_of_rank = Array.map (fun v -> capacities.(v)) node_of_rank

(* Shared blocks are kept across solves, keyed by everything
   [constraint_block] reads, in a bounded LRU map: instances of one
   shape, and re-solves of one live instance, read the same block.
   Blocks above [max_cached_rows] rows are not kept, as the simplex
   does not keep its scratch above that size. The prepared starts are
   read-only, so the solves of several domains share them; the lock
   guards only the map and its counts. *)
let block_cache_capacity = 4
let max_cached_rows = 512
let cache = Qp_util.Lru.create ~capacity:block_cache_capacity
let cache_lock = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0

(* The universe, the quorums, the strategy and [caps], marshalled
   without sharing: equal strings for equal values, floats by their
   bits, and the key owns its copy of the caller's arrays. *)
let block_key system strategy caps =
  Marshal.to_string
    (Quorum.universe system, Quorum.quorums system, strategy, caps)
    [ Marshal.No_sharing ]

(* The block of [caps] with its prepared start, from the cache or built
   and prepared here. Its crash pivots count in the current registry
   either way ([Simplex.prepare] counts them on a miss), so a solve's
   counters do not depend on what earlier solves left cached. *)
let shared_block system strategy caps =
  let key = block_key system strategy caps in
  let cached =
    Mutex.protect cache_lock (fun () ->
        let found = Qp_util.Lru.find cache key in
        incr (if Option.is_some found then cache_hits else cache_misses);
        found)
  in
  match cached with
  | Some ((_, prepared) as block) ->
      Simplex.count_crash prepared;
      block
  | None ->
      let rows = constraint_block system strategy caps in
      let block = (rows, Simplex.prepare rows) in
      if Lp.n_constraints rows <= max_cached_rows then
        Mutex.protect cache_lock (fun () -> Qp_util.Lru.put cache key block);
      block

let block_cache_stats () = Mutex.protect cache_lock (fun () -> (!cache_hits, !cache_misses))

let reset_block_cache () =
  Mutex.protect cache_lock (fun () ->
      Qp_util.Lru.clear cache;
      cache_hits := 0;
      cache_misses := 0)

(* Constraint blocks keyed by their capacity-by-rank vector, each with
   its prepared simplex start. Only read once built, so pool workers
   share the table. *)
type blocks = (float array, Lp.t * Simplex.prepared) Hashtbl.t

(* A vector used by one candidate only gets no block: that candidate
   builds and prepares its rows itself, on its pool worker, as without
   blocks. The shared blocks are taken here, serially, so their crash
   pivots count in the caller's registry whatever the worker count. *)
let blocks (p : Problem.qpp) candidates =
  let uses = Hashtbl.create 16 in
  List.iter
    (fun v0 ->
      let caps =
        caps_by_rank p.Problem.capacities (Metric.nodes_by_distance p.Problem.metric v0)
      in
      Hashtbl.replace uses caps (1 + Option.value ~default:0 (Hashtbl.find_opt uses caps)))
    candidates;
  let blocks = Hashtbl.create 4 in
  Hashtbl.iter
    (fun caps k ->
      if k > 1 then
        Hashtbl.replace blocks caps
          (shared_block p.Problem.system p.Problem.strategy caps))
    uses;
  blocks

let n_blocks = Hashtbl.length

(* The full LP (9)-(14) of [s]: its objective (9) over the constraint
   block of its capacity-by-rank vector, with that block's prepared
   start when [blocks] has it. *)
let lp_of ?blocks (s : Problem.ssqpp) ~node_of_rank ~dist =
  let n = Array.length node_of_rank in
  let nu = Quorum.universe s.Problem.system in
  let nq = Quorum.n_quorums s.Problem.system in
  let caps = caps_by_rank s.Problem.capacities node_of_rank in
  let rows, prepared =
    match Option.bind blocks (fun b -> Hashtbl.find_opt b caps) with
    | Some (rows, prepared) -> (rows, Some prepared)
    | None -> (constraint_block s.Problem.system s.Problem.strategy caps, None)
  in
  (* Objective (9). *)
  let obj = Array.make (Lp.n_vars rows) 0. in
  for t = 0 to n - 1 do
    for q = 0 to nq - 1 do
      obj.(var_quorum ~n ~nu ~nq t q) <- s.Problem.strategy.(q) *. dist.(t)
    done
  done;
  (Lp.with_objective rows obj, prepared, var_elem ~nu, var_quorum ~n ~nu ~nq)

let build (s : Problem.ssqpp) =
  let _, node_of_rank, dist = ordering s in
  let lp, _, var_elem, var_quorum = lp_of s ~node_of_rank ~dist in
  (lp, var_elem, var_quorum)

let solve_warm ?max_pivots ?warm ?blocks (s : Problem.ssqpp) =
  let rank_of_node, node_of_rank, dist = ordering s in
  let n = Array.length node_of_rank in
  let nu = Quorum.universe s.Problem.system in
  let nq = Quorum.n_quorums s.Problem.system in
  Obs.Span.with_ "lp_solve"
    ~attrs:
      [ ("v0", Obs.Json.Int s.Problem.v0); ("n", Obs.Json.Int n);
        ("universe", Obs.Json.Int nu); ("quorums", Obs.Json.Int nq) ]
  @@ fun () ->
  let lp, prepared, var_elem, var_quorum = lp_of ?blocks s ~node_of_rank ~dist in
  if Lp.start lp = None then
    Obs.Metrics.inc
      (Obs.Metrics.counter
         ~help:"LP starts by outcome: taken, refused, or no_first_fit (none built)"
         ~labels:[ ("outcome", "no_first_fit") ] (Obs.Metrics.current ())
         "qp_simplex_start_total");
  match Simplex.solve_warm ?max_pivots ?warm ?prepared lp with
  | Simplex.Infeasible, _ ->
      Obs.Span.add_attr "infeasible" (Obs.Json.Bool true);
      (None, None)
  | Simplex.Unbounded, _ -> assert false (* objective is non-negative *)
  | Simplex.Optimal { x; objective }, basis ->
      Obs.Span.add_attr "z_star" (Obs.Json.Float objective);
      let clip v = if v < 1e-11 then 0. else if v > 1. then 1. else v in
      let x_elem =
        Array.init n (fun t -> Array.init nu (fun u -> clip x.(var_elem t u)))
      in
      let x_quorum =
        Array.init n (fun t -> Array.init nq (fun q -> clip x.(var_quorum t q)))
      in
      ( Some { rank_of_node; node_of_rank; dist; x_elem; x_quorum; z_star = objective },
        basis )

let solve ?max_pivots (s : Problem.ssqpp) = fst (solve_warm ?max_pivots s)

let quorum_frontier sol q =
  let acc = ref 0. in
  Array.iteri (fun t row -> acc := !acc +. (sol.dist.(t) *. row.(q))) sol.x_quorum;
  !acc
