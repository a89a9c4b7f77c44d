(* Domain-pool layer: scheduling correctness, determinism of results
   and telemetry, nesting fallback, and the APSP cache that rides on
   it. *)

module Pool = Qp_par.Pool
module Io = Qp_par.Io
module Metrics = Qp_obs.Metrics
module Rng = Qp_util.Rng
module Graph = Qp_graph.Graph
module Generators = Qp_graph.Generators
module Apsp = Qp_graph.Apsp
module Metric = Qp_graph.Metric

let with_pool jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Same helper as test_graph: random weights on a connected skeleton. *)
let random_connected_graph seed n =
  let rng = Rng.create seed in
  let g = Generators.erdos_renyi rng n 0.2 in
  let g' = Graph.create n in
  Graph.iter_edges g (fun u v _ -> Graph.add_edge g' u v (0.1 +. Rng.uniform rng));
  g'

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_create_invalid () =
  Alcotest.check_raises "jobs = 0" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0))

let test_init_matches_array_init () =
  with_pool 3 @@ fun pool ->
  for n = 0 to 17 do
    let expected = Array.init n (fun i -> (i * i) - (3 * i)) in
    let got = Pool.parallel_init pool n (fun i -> (i * i) - (3 * i)) in
    Alcotest.(check (array int)) (Printf.sprintf "n = %d" n) expected got
  done

let test_pool_reuse () =
  with_pool 4 @@ fun pool ->
  Alcotest.(check int) "jobs" 4 (Pool.jobs pool);
  for round = 1 to 5 do
    let got = Pool.parallel_init pool 100 (fun i -> i + round) in
    Alcotest.(check (array int)) "round result" (Array.init 100 (fun i -> i + round)) got
  done

let test_map_empty_and_small () =
  with_pool 4 @@ fun pool ->
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map pool (fun x -> x + 1) [||]);
  (* Fewer elements than workers. *)
  Alcotest.(check (array int)) "n < jobs" [| 10; 11 |]
    (Pool.parallel_map pool (fun x -> x + 10) [| 0; 1 |])

let test_chunk_edge_cases () =
  with_pool 3 @@ fun pool ->
  let expected = Array.init 11 (fun i -> 2 * i) in
  Alcotest.(check (array int)) "chunk = 1" expected
    (Pool.parallel_init ~chunk:1 pool 11 (fun i -> 2 * i));
  Alcotest.(check (array int)) "chunk > n" expected
    (Pool.parallel_init ~chunk:100 pool 11 (fun i -> 2 * i));
  Alcotest.check_raises "chunk = 0" (Invalid_argument "Pool: chunk must be >= 1")
    (fun () -> ignore (Pool.parallel_init ~chunk:0 pool 4 (fun i -> i)));
  Alcotest.check_raises "n < 0" (Invalid_argument "Pool.parallel_init: negative size")
    (fun () -> ignore (Pool.parallel_init pool (-1) (fun i -> i)))

let test_iter_runs_each_once () =
  with_pool 3 @@ fun pool ->
  let n = 50 in
  let hits = Array.make n 0 in
  (* Elements of one chunk run on one domain; counting into distinct
     slots is race-free because indices are disjoint. *)
  ignore (Pool.parallel_map pool (fun i -> hits.(i) <- hits.(i) + 1) (Array.init n (fun i -> i)));
  Alcotest.(check (array int)) "each exactly once" (Array.make n 1) hits

exception Boom of int

let test_exception_propagation () =
  with_pool 3 @@ fun pool ->
  let ran = Array.make 10 false in
  (try
     ignore
       (Pool.parallel_init ~chunk:1 pool 10 (fun i ->
            ran.(i) <- true;
            if i = 7 || i = 3 then raise (Boom i);
            i))
   with Boom i -> Alcotest.(check int) "lowest failing index wins" 3 i);
  Alcotest.(check (array bool)) "all elements still ran" (Array.make 10 true) ran;
  (* The pool survives a failed batch. *)
  Alcotest.(check (array int)) "pool usable after exception"
    (Array.init 6 (fun i -> i)) (Pool.parallel_init pool 6 (fun i -> i))

let test_nested_calls_fall_back () =
  with_pool 3 @@ fun pool ->
  Alcotest.(check bool) "not in worker outside" false (Pool.in_worker ());
  let nested =
    Pool.parallel_init ~chunk:1 pool 6 (fun i ->
        (* A nested parallel section must not deadlock on the shared
           queue: it runs inline on this domain. Results are checked
           back on the calling domain: Alcotest's reporter is not
           domain-safe. *)
        let inner = Pool.parallel_init pool 4 (fun j -> (10 * i) + j) in
        (inner, Pool.in_worker ()))
  in
  Array.iteri
    (fun i (inner, _) ->
      Alcotest.(check (array int)) "nested result" (Array.init 4 (fun j -> (10 * i) + j))
        inner)
    nested;
  Alcotest.(check (array bool)) "in_worker inside tasks" (Array.make 6 true)
    (Array.map snd nested);
  Alcotest.(check bool) "flag restored" false (Pool.in_worker ())

let test_shutdown_semantics () =
  let pool = Pool.create ~jobs:3 in
  ignore (Pool.parallel_init pool 5 (fun i -> i));
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool: submit on a shut-down pool") (fun () ->
      ignore (Pool.parallel_init pool 64 (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Fire-and-forget submission and context propagation                  *)
(* ------------------------------------------------------------------ *)

let test_async_runs_tasks () =
  with_pool 3 @@ fun pool ->
  let n = 50 in
  let hits = Atomic.make 0 in
  let done_m = Mutex.create () and done_c = Condition.create () in
  for _ = 1 to n do
    Pool.async pool (fun () ->
        if Atomic.fetch_and_add hits 1 = n - 1 then begin
          Mutex.lock done_m;
          Condition.signal done_c;
          Mutex.unlock done_m
        end)
  done;
  let deadline = Unix.gettimeofday () +. 10. in
  Mutex.lock done_m;
  while Atomic.get hits < n && Unix.gettimeofday () < deadline do
    Mutex.unlock done_m;
    Thread.delay 0.002;
    Mutex.lock done_m
  done;
  Mutex.unlock done_m;
  Alcotest.(check int) "every task ran exactly once" n (Atomic.get hits)

let test_async_inline_on_single_job_pool () =
  with_pool 1 @@ fun pool ->
  (* jobs = 1 has no workers: async must degrade to a synchronous call
     on the submitting thread, not deadlock *)
  let ran = ref false in
  Pool.async pool (fun () -> ran := true);
  Alcotest.(check bool) "ran synchronously" true !ran

let test_async_after_shutdown () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Alcotest.check_raises "async on a shut-down pool"
    (Invalid_argument "Pool: submit on a shut-down pool") (fun () ->
      Pool.async pool (fun () -> ()))

let test_simplex_deadline_context_propagates () =
  (* The simplex deadline is domain-local state; its registered context
     hook must carry the submitting thread's deadline onto the worker
     domain that executes the task — and restore the worker's own state
     afterwards. *)
  let module Simplex = Qp_lp.Simplex in
  with_pool 2 @@ fun pool ->
  Fun.protect ~finally:(fun () -> Simplex.set_deadline None) @@ fun () ->
  Simplex.set_deadline (Some 123.5);
  let observed = Atomic.make [] in
  let record d = Atomic.set observed (d :: Atomic.get observed) in
  let done_f = Atomic.make 0 in
  Pool.async pool (fun () ->
      record (Simplex.get_deadline ());
      ignore (Atomic.fetch_and_add done_f 1));
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get done_f < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  Alcotest.(check bool) "worker saw the submitter's deadline" true
    (Atomic.get observed = [ Some 123.5 ]);
  (* after clearing, a new task must NOT inherit the stale value *)
  Simplex.set_deadline None;
  Atomic.set observed [];
  Pool.async pool (fun () ->
      record (Simplex.get_deadline ());
      ignore (Atomic.fetch_and_add done_f 1));
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get done_f < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  Alcotest.(check bool) "cleared deadline does not leak to workers" true
    (Atomic.get observed = [ None ])

let test_default_pool () =
  Alcotest.(check int) "default is sequential" 1 (Pool.default_jobs ());
  Pool.set_default_jobs 3;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) @@ fun () ->
  Alcotest.(check int) "raised" 3 (Pool.default_jobs ());
  Alcotest.(check int) "pool matches" 3 (Pool.jobs (Pool.default ()));
  Alcotest.(check (array int)) "default pool works" (Array.init 9 (fun i -> i * 7))
    (Pool.parallel_init (Pool.default ()) 9 (fun i -> i * 7))

(* ------------------------------------------------------------------ *)
(* Telemetry determinism                                               *)
(* ------------------------------------------------------------------ *)

(* Record the same counter/histogram traffic from every element and
   compare the merged registry against a sequential run: totals must be
   bit-identical. *)
let record_run jobs n =
  let reg = Metrics.create ~enabled:true () in
  Metrics.with_current reg (fun () ->
      with_pool jobs @@ fun pool ->
      ignore
        (Pool.parallel_init ~chunk:2 pool n (fun i ->
             let c =
               Metrics.counter ~help:"test" (Metrics.current ()) "par_test_total"
             in
             Metrics.add c (float_of_int (i + 1));
             let h = Metrics.histogram ~help:"test" (Metrics.current ()) "par_test_hist" in
             Metrics.observe h (float_of_int i);
             i)));
  Metrics.scalar_series reg

let test_metrics_merge_matches_sequential () =
  let seq = record_run 1 23 in
  let par = record_run 4 23 in
  Alcotest.(check (list (pair string (float 0.)))) "series identical" seq par;
  (* Sanity: the totals are what 23 elements should have produced. *)
  Alcotest.(check (float 1e-9)) "counter total" 276. (List.assoc "par_test_total" seq);
  Alcotest.(check (float 1e-9)) "hist count" 23. (List.assoc "par_test_hist_count" seq)

let test_disabled_parent_stays_silent () =
  let reg = Metrics.create ~enabled:false () in
  Metrics.with_current reg (fun () ->
      with_pool 3 @@ fun pool ->
      ignore
        (Pool.parallel_init pool 10 (fun i ->
             Metrics.inc (Metrics.counter (Metrics.current ()) "par_disabled_total");
             i)));
  Alcotest.(check (list (pair string (float 0.)))) "nothing recorded" []
    (Metrics.scalar_series reg)

(* ------------------------------------------------------------------ *)
(* Output sink                                                         *)
(* ------------------------------------------------------------------ *)

let test_io_buffer_capture () =
  let b = Buffer.create 64 in
  Io.with_buffer b (fun () ->
      Io.print_string "a";
      Io.printf "%d-%s" 42 "x";
      Io.print_endline "!";
      Io.print_newline ());
  Alcotest.(check string) "captured" "a42-x!\n\n" (Buffer.contents b);
  (* The sink is restored: nothing further lands in the buffer. *)
  Alcotest.(check string) "restored" "a42-x!\n\n" (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Parallel APSP and the metric cache                                  *)
(* ------------------------------------------------------------------ *)

let test_apsp_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel APSP = sequential APSP" ~count:20
    QCheck.(pair (int_range 1 1000) (int_range 2 18))
    (fun (seed, n) ->
      let g = random_connected_graph seed n in
      let apsp jobs =
        let d = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (n * n) in
        with_pool jobs (fun pool -> Apsp.repeated_dijkstra_into ~pool g d);
        d
      in
      apsp 1 = apsp 3)

let stats = Alcotest.(triple int int int)

let test_apsp_cache () =
  Metric.reset_apsp_cache ();
  Alcotest.check stats "fresh stats" (0, 0, 0) (Metric.apsp_cache_stats ());
  let g = random_connected_graph 5 12 in
  let m1 = Metric.of_graph g in
  Alcotest.check stats "first is a miss" (0, 1, 0) (Metric.apsp_cache_stats ());
  (* A structurally identical graph built separately must hit. *)
  let m2 = Metric.of_graph (random_connected_graph 5 12) in
  Alcotest.check stats "second hits" (1, 1, 0) (Metric.apsp_cache_stats ());
  for u = 0 to 11 do
    for v = 0 to 11 do
      Alcotest.(check (float 0.)) "same distances" (Metric.dist m1 u v) (Metric.dist m2 u v)
    done
  done;
  ignore (Metric.of_graph ~cache:false g);
  Alcotest.check stats "cache:false bypasses" (1, 1, 0)
    (Metric.apsp_cache_stats ());
  ignore (Metric.of_graph (random_connected_graph 6 12));
  Alcotest.check stats "different graph misses" (1, 2, 0)
    (Metric.apsp_cache_stats ());
  Metric.reset_apsp_cache ();
  Alcotest.check stats "reset" (0, 0, 0) (Metric.apsp_cache_stats ());
  ignore (Metric.of_graph g);
  Alcotest.check stats "re-computed after reset" (0, 1, 0)
    (Metric.apsp_cache_stats ())

(* Incremental APSP after a small edge delta must agree with a fresh
   computation and count as a partial invalidation. *)
let test_apsp_delta () =
  Metric.reset_apsp_cache ();
  let g = random_connected_graph 7 14 in
  let base = Metric.of_graph g in
  (* Perturb one edge (longer) and add one shortcut. *)
  let edges = Graph.edges g in
  let u0, v0, w0 = List.hd edges in
  let edges' =
    (u0, v0, w0 *. 3.) :: List.filter (fun (a, b, _) -> (a, b) <> (u0, v0)) edges
  in
  let g' = Graph.of_edges 14 edges' in
  let inc = Metric.of_graph_delta ~base ~base_graph:g g' in
  let fresh = Metric.of_graph ~cache:false g' in
  for i = 0 to 13 do
    for j = 0 to 13 do
      Alcotest.(check (float 1e-9)) "delta = fresh" (Metric.dist fresh i j)
        (Metric.dist inc i j)
    done
  done;
  let _, _, partial = Metric.apsp_cache_stats () in
  Alcotest.(check bool) "counted partial" true (partial >= 1)

(* ------------------------------------------------------------------ *)
(* End to end: the solver is worker-count invariant                    *)
(* ------------------------------------------------------------------ *)

let test_solver_jobs_invariant () =
  let open Qp_place in
  let module Strategy = Qp_quorum.Strategy in
  let graph = random_connected_graph 42 10 in
  let system = Qp_quorum.Grid_qs.make 2 in
  let strategy = Strategy.uniform system in
  let loads = Strategy.loads system strategy in
  let max_load = Array.fold_left Float.max 0. loads in
  let problem =
    Problem.of_graph_qpp ~graph
      ~capacities:(Array.make 10 (1.2 *. max_load))
      ~system ~strategy ()
  in
  let solve_with jobs =
    Pool.set_default_jobs jobs;
    Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) (fun () ->
        Qpp_solver.solve ~alpha:2. problem)
  in
  match (solve_with 1, solve_with 3) with
  | Some a, Some b ->
      Alcotest.(check int) "same v0" a.Qpp_solver.v0 b.Qpp_solver.v0;
      Alcotest.(check (float 0.)) "same objective" a.Qpp_solver.objective
        b.Qpp_solver.objective;
      Alcotest.(check (array int)) "same placement" a.Qpp_solver.placement
        b.Qpp_solver.placement;
      Alcotest.(check (option (float 0.))) "same lower bound" a.Qpp_solver.lower_bound
        b.Qpp_solver.lower_bound
  | _ -> Alcotest.fail "solver unexpectedly infeasible"

(* The pool's span-context hook: candidate spans opened on worker
   domains keep their parent and land in the same wide phases, so the
   span tree and the phase keys are the same at pool widths 1 and 3. *)
let test_span_context_propagates () =
  let module Obs = Qp_obs in
  let module Json = Obs.Json in
  let open Qp_place in
  let graph = random_connected_graph 7 8 in
  let system = Qp_quorum.Grid_qs.make 2 in
  let strategy = Qp_quorum.Strategy.uniform system in
  let max_load = Array.fold_left Float.max 0. (Qp_quorum.Strategy.loads system strategy) in
  let problem =
    Problem.of_graph_qpp ~graph ~capacities:(Array.make 8 (1.2 *. max_load))
      ~system ~strategy ()
  in
  let str k j = Option.bind (Json.member k j) Json.to_str in
  let traced jobs =
    let spans_sink, spans = Obs.Trace.memory () in
    let wide_sink, wide = Obs.Trace.memory () in
    Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.uninstall Obs.Trace.spans;
        Obs.Trace.uninstall Obs.Trace.wide;
        Pool.set_default_jobs 1)
      (fun () ->
        Obs.Trace.install Obs.Trace.spans spans_sink;
        Obs.Trace.install Obs.Trace.wide wide_sink;
        let ev = Obs.Wide.start ~kind:"solve" () in
        ignore (Obs.Wide.within ev (fun () -> Qpp_solver.solve ~alpha:2. problem));
        Obs.Wide.finish ev);
    let records = spans () in
    let name_of = Hashtbl.create 64 in
    List.iter
      (fun j ->
        match (Option.bind (Json.member "id" j) Json.to_int, str "name" j) with
        | Some id, Some n -> Hashtbl.replace name_of id n
        | _ -> ())
      records;
    let edges =
      List.map
        (fun j ->
          let parent =
            match Json.member "parent" j with
            | Some (Json.Int p) -> (
                match Hashtbl.find_opt name_of p with
                | Some n -> n
                | None -> Alcotest.failf "dangling parent %d" p)
            | _ -> "-"
          in
          (Option.get (str "name" j), parent))
        records
      |> List.sort compare
    in
    let keys =
      match wide () with
      | [ r ] -> (
          match Json.member "phases" r with
          | Some (Json.Obj ps) -> List.map fst ps
          | _ -> Alcotest.fail "no phases")
      | l -> Alcotest.failf "expected one wide record, got %d" (List.length l)
    in
    (edges, keys)
  in
  let edges1, keys1 = traced 1 and edges3, keys3 = traced 3 in
  Alcotest.(check bool) "candidates traced" true
    (List.mem ("candidate", "qpp_solve") edges1);
  Alcotest.(check (list (pair string string))) "same span tree" edges1 edges3;
  Alcotest.(check bool) "solver phases" true
    (List.mem "qpp_solve.candidate.lp_solve.simplex" keys1);
  Alcotest.(check (list string)) "same phase keys" keys1 keys3

let suites =
  [
    ( "par.pool",
      [
        Alcotest.test_case "create rejects jobs = 0" `Quick test_create_invalid;
        Alcotest.test_case "parallel_init = Array.init" `Quick test_init_matches_array_init;
        Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
        Alcotest.test_case "empty and tiny inputs" `Quick test_map_empty_and_small;
        Alcotest.test_case "chunk edge cases" `Quick test_chunk_edge_cases;
        Alcotest.test_case "iter runs each element once" `Quick test_iter_runs_each_once;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "nested calls run inline" `Quick test_nested_calls_fall_back;
        Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
        Alcotest.test_case "process-default pool" `Quick test_default_pool;
        Alcotest.test_case "async runs every task" `Quick test_async_runs_tasks;
        Alcotest.test_case "async inline at jobs=1" `Quick
          test_async_inline_on_single_job_pool;
        Alcotest.test_case "async after shutdown" `Quick test_async_after_shutdown;
        Alcotest.test_case "deadline context propagates" `Quick
          test_simplex_deadline_context_propagates;
        Alcotest.test_case "span context propagates" `Quick
          test_span_context_propagates;
      ] );
    ( "par.telemetry",
      [
        Alcotest.test_case "merged metrics = sequential" `Quick
          test_metrics_merge_matches_sequential;
        Alcotest.test_case "disabled registry records nothing" `Quick
          test_disabled_parent_stays_silent;
        Alcotest.test_case "io buffer capture" `Quick test_io_buffer_capture;
      ] );
    ( "par.apsp",
      [
        QCheck_alcotest.to_alcotest test_apsp_parallel_equals_sequential;
        Alcotest.test_case "metric cache hits and bypass" `Quick test_apsp_cache;
        Alcotest.test_case "incremental APSP after delta" `Quick test_apsp_delta;
        Alcotest.test_case "solver invariant under jobs" `Quick test_solver_jobs_invariant;
      ] );
  ]
