(* Surviving sustained churn with the closed-loop resilience engine.

   The static placement of the paper is optimal when every node
   answers; under crash/repair churn a fixed strategy burns its retry
   budget on down replicas. This example deploys the same placement
   twice against the bit-identical failure trajectory (the churn
   process draws from its own seeded stream):

   1. static baseline: fixed strategy + blind retries (the engine
      with adaptation and repair off);
   2. closed-loop engine: heartbeat failure detection, adaptive
      strategy reweighting, hedged retries with exponential backoff,
      and automatic placement repair when too much suspected capacity
      accumulates.

   Both are configurations of Qp_runtime.Engine.

   It then shows what each control-loop stage buys, and that with the
   failures turned off the engine reproduces the paper's analytic
   average max-delay - the adaptive layer costs nothing when healthy.

   Run with: dune exec examples/resilience_loop.exe *)

module Rng = Qp_util.Rng
module Table = Qp_util.Table
module Generators = Qp_graph.Generators
module Metric = Qp_graph.Metric
module Majority_qs = Qp_quorum.Majority_qs
module Strategy = Qp_quorum.Strategy
module Failure = Qp_runtime.Failure
module Retry = Qp_runtime.Retry
module Engine = Qp_runtime.Engine
open Qp_place

let () =
  let rng = Rng.create 42 in
  let n = 14 in
  let graph, _ = Generators.waxman rng n () in
  let system = Majority_qs.make ~n:5 ~t:3 in
  let strategy = Strategy.uniform system in
  let load = 3. /. 5. in
  let problem =
    Problem.of_graph_qpp ~graph ~capacities:(Array.make n (1.5 *. load)) ~system
      ~strategy ()
  in
  let placement =
    match Qpp_solver.solve ~alpha:2. problem with
    | Some r -> r.Qpp_solver.placement
    | None -> failwith "infeasible"
  in
  let timeout = 4. *. Metric.diameter problem.Problem.metric in
  let attempts = 3 in
  let fixed = Retry.fixed ~timeout ~max_attempts:attempts in
  let hedged =
    Retry.exponential ~jitter:0.2 ~hedge_after:(0.5 *. timeout) ~timeout
      ~base:(0.2 *. timeout) ~max_attempts:attempts ()
  in
  (* Heavy churn: each node is down 40% of the time, in long bursts -
     the regime where memoryless retries keep hitting the same dead
     replica. *)
  let failure = Failure.Dynamic { mtbf = 60.; mttr = 40. } in
  let accesses = 500 in
  let seed = 7 in

  Printf.printf "Majority 3-of-5 on a %d-node WAN; churn mtbf 60 / mttr 40\n" n;
  Printf.printf "(steady-state node availability %.2f), %d attempts per access.\n\n"
    (Failure.node_availability failure)
    attempts;

  let engine ?repair ~adaptive retry =
    Engine.run
      { (Engine.default_config ~adaptive ?repair ~problem ~placement ~failure ()) with
        Engine.retry; accesses_per_client = accesses; seed }
  in
  (* Static baseline: same placement, same retry budget, no feedback. *)
  let static = engine ~adaptive:false fixed in
  (* The control loop, one stage at a time. *)
  let engine = engine ~adaptive:true in
  let adaptive = engine fixed in
  let hedging = engine hedged in
  let full = engine ~repair:Engine.default_trigger hedged in

  let tbl =
    Table.create ~title:"the control loop, stage by stage"
      [ ("configuration", Table.Left); ("availability", Table.Right);
        ("delay (ok)", Table.Right); ("attempts", Table.Right) ]
  in
  Table.add_rowf tbl "static strategy, blind retries|%.4f|%.3f|%.2f"
    static.Engine.availability static.Engine.mean_delay_success static.Engine.mean_attempts;
  Table.add_rowf tbl "+ detector & adaptive strategy|%.4f|%.3f|%.2f"
    adaptive.Engine.availability adaptive.Engine.mean_delay_success
    adaptive.Engine.mean_attempts;
  Table.add_rowf tbl "+ hedged retries, backoff|%.4f|%.3f|%.2f"
    hedging.Engine.availability hedging.Engine.mean_delay_success
    hedging.Engine.mean_attempts;
  Table.add_rowf tbl "+ automatic repair|%.4f|%.3f|%.2f" full.Engine.availability
    full.Engine.mean_delay_success full.Engine.mean_attempts;
  Table.print tbl;

  Printf.printf "\nhedges: %d launched, %d won the race to a quorum\n"
    full.Engine.hedges_launched full.Engine.hedges_won;
  Printf.printf "repairs: %d triggered, %d replicas moved in total\n"
    (List.length full.Engine.repairs)
    (List.fold_left (fun a (r : Engine.repair_event) -> a + r.Engine.moved) 0
       full.Engine.repairs);
  (match full.Engine.repairs with
  | first :: _ ->
      Printf.printf "first repair at t=%.1f: dead {%s}, %d moved, delay %.3f -> %.3f\n"
        first.Engine.time
        (String.concat ", " (List.map string_of_int first.Engine.dead))
        first.Engine.moved first.Engine.delay_before first.Engine.delay_after
  | [] -> ());

  (* Failure-free sanity check: the adaptive layer vanishes when the
     detector is quiet, recovering the paper's analytic delay. *)
  let calm =
    Engine.run
      { (Engine.default_config ~adaptive:true ~problem ~placement
           ~failure:(Failure.Static 0.) ()) with
        Engine.retry = fixed; accesses_per_client = accesses; seed }
  in
  Printf.printf
    "\nNo failures: engine delay %.4f vs analytic avg max-delay %.4f (err %.2f%%)\n"
    calm.Engine.mean_delay_success calm.Engine.analytic_delay
    (100.
    *. Float.abs (calm.Engine.mean_delay_success -. calm.Engine.analytic_delay)
    /. calm.Engine.analytic_delay)
