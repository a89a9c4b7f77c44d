(* Benchmark & experiment driver.

   Usage:
     dune exec bench/main.exe                 # all experiments (E1-E20, F1-F2)
     dune exec bench/main.exe -- e5 f1        # selected experiments
     dune exec bench/main.exe -- --smoke      # fast subset for CI
     dune exec bench/main.exe -- --jobs N     # worker domains (0 = all cores)
     dune exec bench/main.exe -- --out FILE   # results file (default BENCH_results.json)
     dune exec bench/main.exe -- --wide-events FILE  # one wide event per experiment (JSONL)
     dune exec bench/main.exe -- --scale-budget S    # E19 scaling-series wall budget (s)

   Every experiment run also writes a machine-readable summary: per
   experiment the wall-clock time plus every telemetry series (solver
   pivots, simulated accesses, ...) recorded while it ran, and the
   named pass/fail checks it asserted (E17-E20, read by the CI gates).

   Experiments are independent, so with --jobs N > 1 they run
   concurrently on the default domain pool. Each experiment gets its
   own metrics registry and (when parallel) its own output buffer;
   buffers are flushed and results emitted in experiment order, so
   stdout and the JSON payload are byte-identical for every worker
   count — only the wall_s fields move. *)

module Obs = Qp_obs

(* One experiment: fresh enabled registry and APSP cache scoped over
   the run, so the recorded series are exactly the experiment's own, no
   matter which domain executes it or what ran before or beside it (a
   shared cache would turn its APSP work counters into a record of the
   cache's history). The LP block cache needs no scope for its counters
   (a hit counts the crash it skips), but it is emptied first, so that
   blocks earlier experiments left do not raise this one's peak RSS.
   Its wide event is the span root of the run, so the record breaks its
   time down by the solver spans it passed through. *)
let run_one ~buffer name =
  let reg = Obs.Metrics.create ~enabled:true () in
  let ev = Obs.Wide.start ~kind:"bench_experiment" () in
  Obs.Wide.set_str ev "experiment" name;
  let run () =
    Qp_place.Lp_formulation.reset_block_cache ();
    Obs.Metrics.with_current reg (fun () ->
        Qp_graph.Metric.with_private_apsp_cache (fun () ->
            Obs.Wide.within ev (fun () -> Experiments.by_name name)))
  in
  let t0 = Obs.Core.now () in
  (try match buffer with Some b -> Qp_par.Io.with_buffer b run | None -> run ()
   with e ->
     Obs.Wide.finish ~outcome:"raised" ev;
     raise e);
  let wall = Obs.Core.now () -. t0 in
  Obs.Wide.set ev "wall_s" (Obs.Json.Float wall);
  Obs.Wide.finish ev;
  let series =
    List.filter_map
      (fun (k, v) ->
        (* qp_apsp_cache_bytes tracks a process-wide cache: its value at
           publish time depends on which experiments ran concurrently,
           so like wall_s it cannot appear in byte-compared payloads. *)
        if v <> 0. && k <> "qp_apsp_cache_bytes" then
          Some (k, Obs.Json.Float v)
        else None)
      (Obs.Metrics.scalar_series reg)
  in
  (* Structured records (qp-scaling/1 cells) are drained here, on the
     domain that ran the experiment; peak RSS is process-wide telemetry
     (the kernel high-water mark), best-effort and absent off Linux.
     Both are excluded — like wall_s — from cross-run byte comparisons. *)
  let records = Experiments.take_records () in
  let asserts = Experiments.take_asserts () in
  Obs.Json.Obj
    ([ ("experiment", Obs.Json.String name);
       ("wall_s", Obs.Json.Float wall) ]
    @ (match Obs.Core.max_rss_kb () with
      | Some kb -> [ ("max_rss_kb", Obs.Json.Int kb) ]
      | None -> [])
    @ [ ("metrics", Obs.Json.Obj series) ]
    @ (match records with
      | [] -> []
      | rs -> [ ("records", Obs.Json.List rs) ])
    @
    match asserts with
    | [] -> []
    | cs ->
        [ ("asserts", Obs.Json.Obj (List.map (fun (k, ok) -> (k, Obs.Json.Bool ok)) cs)) ])

let write_results path ~jobs results =
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.String "qp-bench/2");
        ("version", Obs.Json.String Obs.Build_info.version);
        ("jobs", Obs.Json.Int jobs);
        ("experiments", Obs.Json.List results) ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" path

(* Bad command lines are user errors, not crashes: one-line diagnostic
   on stderr and the invalid-instance exit code (2), no backtrace. *)
let usage_fail msg =
  prerr_endline ("bench: " ^ msg);
  exit 2

let () =
  print_endline "Quorum Placement in Networks to Minimize Access Delays (PODC'05)";
  print_endline "Experiment reproduction suite - see DESIGN.md / EXPERIMENTS.md";
  let out = ref "BENCH_results.json" in
  let wide = ref None in
  let names = ref [] in
  let jobs = ref 0 in
  let add ns = names := !names @ ns in
  let rec parse = function
    | [] -> ()
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | "--out" :: [] -> usage_fail "--out requires a FILE argument"
    | "--wide-events" :: path :: rest ->
        wide := Some path;
        parse rest
    | "--wide-events" :: [] -> usage_fail "--wide-events requires a FILE argument"
    | "--jobs" :: n :: rest | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 0 -> jobs := j
        | _ -> usage_fail "--jobs requires a non-negative integer");
        parse rest
    | "--jobs" :: [] -> usage_fail "--jobs requires an integer argument"
    | "--scale-budget" :: s :: rest ->
        (match float_of_string_opt s with
        | Some b when b > 0. -> Experiments.scale_budget := b
        | _ -> usage_fail "--scale-budget requires a positive number of seconds");
        parse rest
    | "--scale-budget" :: [] ->
        usage_fail "--scale-budget requires a SECONDS argument"
    | "--smoke" :: rest ->
        add Experiments.smoke;
        parse rest
    | "all" :: rest ->
        add (List.map fst Experiments.registry);
        parse rest
    | name :: rest ->
        if not (List.mem_assoc name Experiments.registry) then
          usage_fail ("unknown experiment " ^ name);
        add [ name ];
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let names = if !names = [] then List.map fst Experiments.registry else !names in
  let jobs = if !jobs = 0 then Domain.recommended_domain_count () else !jobs in
  Qp_par.Pool.set_default_jobs jobs;
  (match !wide with
  | None -> ()
  | Some path ->
      Obs.Trace.install Obs.Trace.wide (Obs.Trace.to_file path);
      Obs.Trace.header Obs.Trace.wide
        [ ("tool", Obs.Json.String "bench"); ("jobs", Obs.Json.Int jobs) ]);
  let results =
    if jobs = 1 then List.map (fun n -> run_one ~buffer:None n) names
    else begin
      (* Concurrent experiments print into per-experiment buffers,
         flushed in order below — same bytes as the sequential path. *)
      let runs =
        Qp_par.Pool.parallel_map (Qp_par.Pool.default ())
          (fun name ->
            let b = Buffer.create 4096 in
            let json = run_one ~buffer:(Some b) name in
            (json, b))
          (Array.of_list names)
      in
      Array.iter (fun (_, b) -> print_string (Buffer.contents b)) runs;
      Array.to_list (Array.map fst runs)
    end
  in
  write_results !out ~jobs results;
  Obs.Trace.uninstall Obs.Trace.wide
