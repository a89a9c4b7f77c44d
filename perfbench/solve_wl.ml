(* solve-lp and solve-tree: one caller builds each instance of a seeded
   stream from its spec and solves it through the solver registry.

   The traced variant calls the same public functions one layer at a
   time, so each layer's share of an operation is measured from here
   rather than from instrumentation inside the library. *)

module Rng = Qp_util.Rng
module Qp_error = Qp_util.Qp_error
module Metrics = Qp_obs.Metrics
module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Simplex = Qp_lp.Simplex
module Spec = Qp_instance.Spec
module Problem = Qp_place.Problem
module Outcome = Qp_place.Outcome
module Solver = Qp_place.Solver
module Delay = Qp_place.Delay
module Lp_formulation = Qp_place.Lp_formulation
module Filtering = Qp_place.Filtering
module Rounding = Qp_place.Rounding
module Qpp_solver = Qp_place.Qpp_solver
module Tree_place = Qp_place.Tree_place
module Protocol = Qp_serve.Protocol
module Layers = Meter.Layers

let params spec = Protocol.solver_params spec Protocol.default_options

(* Instance specs of a seeded stream, each with a spec seed not drawn
   before in this stream; [make i] shapes the [i]-th. *)
let spec_stream ~seed make =
  let rng = Rng.create seed in
  let seen = Hashtbl.create 256 in
  let i = ref 0 in
  fun () ->
    incr i;
    let rec fresh () =
      let s = 1 + Rng.int rng 1_000_000_000 in
      if Hashtbl.mem seen s then fresh ()
      else begin
        Hashtbl.add seen s ();
        s
      end
    in
    let s = fresh () in
    make !i { Spec.default with seed = s; jobs = 1 }

(* Two LP shapes of similar cost (~15-20 ms), alternating: grid:2 on 12
   nodes and majority:5:3 on 6. *)
let lp_spec i (base : Spec.t) =
  let system, nodes = if i land 1 = 0 then ("grid:2", 12) else ("majority:5:3", 6) in
  { base with topology = "waxman"; nodes; system }

let tree_spec _ (base : Spec.t) =
  { base with topology = "tree"; nodes = 256; system = "grid:2" }

let pivots_of reg =
  int_of_float
    (Metrics.counter_value (Metrics.counter reg "qp_simplex_pivots_total"))

let verdict ?counters ?(solver = "") spec = function
  | Error e ->
      Meter.fail
        (Printf.sprintf "seed %d: %s" spec.Spec.seed (Qp_error.to_string e))
  | Ok (p, (o : Outcome.t)) ->
      if solver <> "" && o.Outcome.solver <> solver then
        Meter.fail
          (Printf.sprintf "seed %d: auto dispatched to %s, not %s"
             spec.Spec.seed o.Outcome.solver solver)
      else Checks.outcome ?counters p o

(* Spec.build, one layer at a time: topology and system generation,
   then the all-pairs shortest paths (a cache miss for a fresh
   instance), then the problem, whose metric lookup now hits the cache. *)
let traced_build layers (spec : Spec.t) =
  let ( let* ) = Result.bind in
  let* graph, system =
    Layers.time layers "instance.build" (fun () ->
        let rng = Rng.create spec.seed in
        let* graph = Spec.build_topology spec.topology spec.nodes rng in
        let* system = Spec.build_system spec.system in
        Ok (graph, system))
  in
  ignore (Layers.time layers "graph.apsp" (fun () -> Metric.of_graph graph));
  Ok
    (Layers.time layers "instance.build" (fun () ->
         Spec.uniform_problem ~graph ~system ~slack:spec.cap_slack))

(* The Theorem 3.7 stage of one candidate source, as
   Rounding.solve_warm runs it, with each layer timed. The candidate
   loop evaluates the delay of the rounded placement right after this
   returns; the traced run evaluates it here once more to time it. *)
let traced_round layers (p : Problem.qpp) ~alpha ~v0:_ (s : Problem.ssqpp) =
  let lp, var_elem, var_quorum =
    Layers.time layers "place.lp_build" (fun () -> Lp_formulation.build s)
  in
  let reg = Metrics.create () in
  let result, basis =
    Layers.time layers "lp.simplex" (fun () ->
        Metrics.with_current reg (fun () -> Simplex.solve_warm lp))
  in
  Layers.add layers "lp.pivots" (float_of_int (pivots_of reg));
  match result with
  | Simplex.Infeasible | Simplex.Unbounded -> None
  | Simplex.Optimal { x; objective } ->
      let r =
        Layers.time layers "place.round" (fun () ->
            let node_of_rank = Metric.nodes_by_distance s.Problem.metric s.Problem.v0 in
            let n = Array.length node_of_rank in
            let rank_of_node = Array.make n 0 in
            Array.iteri (fun t v -> rank_of_node.(v) <- t) node_of_rank;
            let dist = Array.map (Metric.dist s.Problem.metric s.Problem.v0) node_of_rank in
            let nu = Quorum.universe s.Problem.system in
            let nq = Quorum.n_quorums s.Problem.system in
            let clip v = if v < 1e-11 then 0. else if v > 1. then 1. else v in
            let sol =
              { Lp_formulation.rank_of_node; node_of_rank; dist;
                x_elem = Array.init n (fun t -> Array.init nu (fun u -> clip x.(var_elem t u)));
                x_quorum = Array.init n (fun t -> Array.init nq (fun q -> clip x.(var_quorum t q)));
                z_star = objective }
            in
            Rounding.round_filtered s (Filtering.apply ~alpha sol))
      in
      ignore
        (Layers.time layers "place.delay_eval" (fun () ->
             Delay.avg_max_delay p r.Rounding.placement));
      Some (r, basis)

(* The registry's "lp" route (Solver.lp_solve) with the traced stage. *)
let traced_lp layers spec =
  let ( let* ) = Result.bind in
  let* p = traced_build layers spec in
  let params = params spec in
  let alpha = params.Solver.alpha in
  let pivots0 = Layers.get layers "lp.pivots" in
  let r, _ = Qpp_solver.solve_with ~alpha ~round:(traced_round layers p ~alpha) p in
  let pivots = int_of_float (Layers.get layers "lp.pivots" -. pivots0) in
  match r with
  | None -> Error (Qp_error.Infeasible "LP has no solution under these capacities")
  | Some (r : Qpp_solver.result) ->
      Ok
        ( p,
          Outcome.make ~solver:"lp" ~problem:p ~placement:r.placement
            ~objective:r.objective ~avg_max_delay:r.objective
            ?lower_bound:r.lower_bound ~load_bound:(alpha +. 1.)
            ~approx_bound:r.approx_bound
            ~detail:
              [ ("v0", float_of_int r.v0); ("alpha", r.alpha);
                ("z_star", r.ssqpp.Rounding.z_star);
                ("relayed_objective", r.relayed_objective) ]
            (),
          [ ("lp.pivots", pivots) ] )

(* The registry's "tree" route (Solver.tree_solve), which "auto"
   selects on tree topologies. Tree_place.solve verifies the tree
   metric itself, so the branch-and-bound time is its time minus the
   separately timed check. *)
let traced_tree layers spec =
  let ( let* ) = Result.bind in
  let* p = traced_build layers spec in
  let is_tree =
    Layers.time layers "place.tree_check" (fun () ->
        Tree_place.is_tree_metric p.Problem.metric)
  in
  if not is_tree then Error (Qp_error.Internal "tree instance is not a tree metric")
  else
    let r, dt = Meter.timed (fun () -> Tree_place.solve p) in
    Layers.add layers "place.tree_solve" dt;
    match r with
    | None -> Error (Qp_error.Infeasible "no capacity-respecting placement exists")
    | Some (r : Tree_place.result) ->
        Layers.add layers "place.tree_search_nodes" (float_of_int r.search_nodes);
        Ok
          ( p,
            Outcome.make ~solver:"tree" ~problem:p ~placement:r.placement
              ~objective:r.objective ~avg_max_delay:r.objective
              ~lower_bound:r.objective ~load_bound:1.
              ~detail:
                [ ("search_nodes", float_of_int r.search_nodes);
                  ("m_pairs", float_of_int r.m_pairs) ]
              (),
            [ ("place.tree_search_nodes", r.search_nodes); ("place.tree_pairs", r.m_pairs) ] )

let registry_solve alg spec =
  let ( let* ) = Result.bind in
  let* p = Spec.build spec in
  let* o = (Solver.find_exn alg).Solver.solve (params spec) p in
  Ok (p, o)

let op ~alg ~dispatch ~traced spec =
  {
    Meter.run =
      (fun () ->
        let r = registry_solve alg spec in
        fun () -> verdict ~solver:dispatch spec r);
    traced =
      (fun layers ->
        let r = traced layers spec in
        fun () ->
          match r with
          | Error e -> verdict spec (Error e)
          | Ok (p, o, counters) -> verdict ~counters spec (Ok (p, o)));
  }

let lp ~seed =
  let next = spec_stream ~seed lp_spec in
  fun () -> op ~alg:"lp" ~dispatch:"" ~traced:traced_lp (next ())

let tree ~seed =
  let next = spec_stream ~seed tree_spec in
  fun () ->
    op ~alg:"auto" ~dispatch:"tree" ~traced:traced_tree (next ())

(* The traced pipelines must produce the registry's outcome exactly;
   checked once per traced run on the first instance of the stream. *)
let faithful ~traced ~alg spec =
  match (registry_solve alg spec, traced (Layers.create ()) spec) with
  | Ok (_, a), Ok (_, b, _) -> Outcome.equal a b
  | Error _, Error _ -> true
  | _ -> false

let lp_faithful ~seed = faithful ~traced:traced_lp ~alg:"lp" (spec_stream ~seed lp_spec ())

let tree_faithful ~seed =
  faithful ~traced:traced_tree ~alg:"auto" (spec_stream ~seed tree_spec ())
