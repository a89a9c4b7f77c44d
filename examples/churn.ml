(* Operating a placed quorum system through node churn.

   Day-2 operations: a deployed placement faces a node loss. This
   example (1) measures availability before the repair with the
   fault-injection simulator, (2) patches the placement minimally
   (Repair), (3) compares against a full re-solve, and (4) re-checks
   availability after the patch.

   Run with: dune exec examples/churn.exe *)

module Rng = Qp_util.Rng
module Table = Qp_util.Table
module Generators = Qp_graph.Generators
module Majority_qs = Qp_quorum.Majority_qs
module Strategy = Qp_quorum.Strategy
module Failure = Qp_runtime.Failure
module Engine = Qp_runtime.Engine
open Qp_place

(* The static fault-injection baseline: fixed strategy, blind retries. *)
let availability problem placement =
  let cfg =
    Engine.default_config ~adaptive:false ~problem ~placement ~failure:(Failure.Static 0.1) ()
  in
  (Engine.run { cfg with Engine.accesses_per_client = 600 }).Engine.availability

let () =
  let rng = Rng.create 99 in
  let n = 14 in
  let graph, _ = Generators.waxman rng n () in
  let system = Majority_qs.make ~n:5 ~t:3 in
  let strategy = Strategy.uniform system in
  let load = 3. /. 5. in
  let problem =
    Problem.of_graph_qpp ~graph ~capacities:(Array.make n (1.5 *. load)) ~system
      ~strategy ()
  in
  let solved =
    match Qpp_solver.solve ~alpha:2. problem with
    | Some r -> r
    | None -> failwith "infeasible"
  in
  let f = solved.Qpp_solver.placement in
  Printf.printf "Deployed: majority 3-of-5 on a %d-node WAN, delay %.4f\n" n
    solved.Qpp_solver.objective;
  Printf.printf "Availability under 10%% node failures (3 retries): %.4f\n\n"
    (availability problem f);

  (* The busiest host dies. *)
  let loads = Placement.node_loads problem f in
  let dead = ref 0 in
  Array.iteri (fun v l -> if l > loads.(!dead) then dead := v) loads;
  Printf.printf "Node %d (the busiest host) leaves the network.\n\n" !dead;

  match Repair.repair problem f ~dead:[ !dead ] with
  | None -> print_endline "no surviving capacity - operator must add nodes"
  | Some r ->
      let tbl =
        Table.create
          [ ("configuration", Table.Left); ("avg max-delay", Table.Right);
            ("replicas moved", Table.Right) ]
      in
      Table.add_rowf tbl "before churn|%.4f|-" r.Repair.delay_before;
      Table.add_rowf tbl "after greedy repair|%.4f|%d" r.Repair.delay_after
        (List.length r.Repair.moved);
      (match Repair.degradation_vs_resolve problem f ~dead:[ !dead ] with
      | Some (_, resolved) ->
          Table.add_rowf tbl "full re-solve (moves anything)|%.4f|up to %d" resolved
            (Problem.n_elements problem)
      | None -> ());
      Table.print tbl;
      (* Availability after the patch, on the survivors-only problem. *)
      let caps' = Array.copy problem.Problem.capacities in
      caps'.(!dead) <- 0.;
      let rates = Array.make n 1. in
      rates.(!dead) <- 0.;
      let problem' =
        Problem.make_qpp ~metric:problem.Problem.metric ~capacities:caps'
          ~system ~strategy ~client_rates:rates ()
      in
      Printf.printf "\nAvailability after repair: %.4f (replicas again fully placed)\n"
        (availability problem' r.Repair.placement)
