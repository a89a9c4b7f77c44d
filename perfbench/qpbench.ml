(* The benchmark driver: one workload, one seed, one run.

     qpbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 --qplace PATH --scratch DIR

   Untraced (--trace 0): measure the set-up in seven fresh driver
   processes (the median is setup_s), then set up once more, run the
   workload's closed loop for S seconds with every operation checked,
   and report the end-to-end metrics.

   Traced (--trace 1): run the counter self-test (a fixed prefix of
   operations at the seed, at seed+1, and at the seed again: exact work
   counters must repeat at one seed and change with it), then alternate
   untraced and traced operations for S seconds, and report the
   per-layer metrics.

   The last line of standard output is one JSON object: correct,
   attempted, succeeded, failed, metrics (value, unit, samples),
   failures and notes. perfbench/run.py builds the program and calls
   this. *)

module Pool = Qp_par.Pool
module Samples = Meter.Samples
module Layers = Meter.Layers

type session = {
  next : unit -> Meter.op;
  counters : unit -> Meter.counters; (* cumulative, session-level *)
  cache : (unit -> int * int) option; (* (hits, misses) of a server cache *)
  rss_pid : string; (* the process the workload's program runs in *)
  close : unit -> unit;
}

type workload = {
  open_ : seed:int -> rep:int -> traced:bool -> session;
      (* the set-up: inputs, fixtures and a warm-up *)
  prefix : int; (* operations in the counter self-test *)
  requests : int; (* server requests per operation, 0 in process *)
  predicted : string list; (* layers predicted to take most of an op *)
  diagnostics : seed:int -> Meter.metric list;
  faithful : seed:int -> bool; (* traced path = untraced path *)
}

(* In-process workloads: a seeded op stream whose first [warm_ops]
   operations -- instance generation, APSP and solve, checked -- are the
   set-up; the timed loop continues the same stream. *)
let warm_ops = 16

let in_process stream ~seed ~rep:_ ~traced:_ =
  let next = stream ~seed in
  for _ = 1 to warm_ops do
    let v = ((next ()).Meter.run ()) () in
    if not v.Meter.ok then failwith ("warm-up: " ^ v.Meter.why)
  done;
  { next; counters = (fun () -> []); cache = None; rss_pid = "self"; close = ignore }

(* The candidate loop of the LP route at pool width 2 against width 1,
   on a few instances of their own. Diagnostic only. *)
let fanout ~seed =
  let next = Solve_wl.spec_stream ~seed:(seed + 2) Solve_wl.lp_spec in
  let specs = Array.init 6 (fun _ -> next ()) in
  let problems = Array.map (fun s -> (s, Result.get_ok (Qp_instance.Spec.build s))) specs in
  let time_all () =
    Array.fold_left
      (fun acc (spec, p) ->
        let _, dt =
          Meter.timed (fun () ->
              (Qp_place.Solver.find_exn "lp").Qp_place.Solver.solve (Solve_wl.params spec) p)
        in
        acc +. dt)
      0. problems
  in
  let w1 = time_all () in
  Pool.set_default_jobs 2;
  let w2 = Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) time_all in
  [ Meter.metric ~samples:(Array.length specs) "par.fanout_speedup_w2" "ratio" (w1 /. w2) ]

let workloads ~qplace ~scratch =
  [ ( "solve-lp",
      { open_ = in_process Solve_wl.lp;
        prefix = 6;
        requests = 0;
        predicted = [ "lp.simplex" ];
        diagnostics = fanout;
        faithful = Solve_wl.lp_faithful } );
    ( "solve-tree",
      { open_ = in_process Solve_wl.tree;
        prefix = 4;
        requests = 0;
        predicted = [ "graph.apsp"; "place.tree_check" ];
        diagnostics = (fun ~seed:_ -> []);
        faithful = Solve_wl.tree_faithful } );
    ( "scenario-sim",
      { open_ = in_process Scenario_wl.ops;
        prefix = 4;
        requests = 0;
        predicted = [ "sim.run" ];
        diagnostics = (fun ~seed:_ -> []);
        faithful = Scenario_wl.faithful } );
    ( "serve-churn",
      { open_ =
          (fun ~seed ~rep ~traced ->
            let metrics_file =
              if traced then Some (Filename.concat scratch (Printf.sprintf "serve-%d.prom" rep))
              else None
            in
            let s = Serve_wl.open_ ~qplace ?metrics_file ~seed () in
            { next = Serve_wl.next s;
              counters = (fun () -> Serve_wl.session_counters s);
              cache = Some (fun () -> Serve_wl.cache_counts s);
              rss_pid = string_of_int (Serve_wl.server_pid s);
              close = (fun () -> Serve_wl.close s) });
        prefix = 30;
        requests = Serve_wl.round;
        predicted = [];
        diagnostics = (fun ~seed:_ -> []);
        faithful = (fun ~seed:_ -> true) } ) ]

(* ------------------------------------------------------------------ *)
(* Run bookkeeping                                                     *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list; (* the first few failed checks *)
  mutable notes : string list;
}

let tally () = { attempted = 0; failed = 0; reasons = []; notes = [] }

let record t (v : Meter.verdict) =
  t.attempted <- t.attempted + 1;
  if not v.Meter.ok then begin
    t.failed <- t.failed + 1;
    if List.length t.reasons < 5 then t.reasons <- v.Meter.why :: t.reasons
  end

let note t s = t.notes <- s :: t.notes

(* The closed loop: [f i] runs and records operation [i]; between
   operations the host-speed loop runs when it is due. *)
let run_loop ~seconds f =
  let t_end = Meter.now () +. seconds in
  let i = ref 0 in
  while Meter.now () < t_end do
    Meter.Host.tick ();
    f !i;
    incr i
  done

(* Operation times of a run, each scaled to reference speed by the
   host-speed samples around its midpoint. *)
let scaled scale (times, mids) =
  Array.map2 (fun dt mid -> dt *. scale mid) (Samples.to_array times) (Samples.to_array mids)

let host_note t =
  let cal = Meter.median (Samples.to_array Meter.Host.all) in
  note t
    (Printf.sprintf
       "host calibration loop median %.4f ms (reference %.4f ms): times scaled to reference \
        speed, by %.4f at the median"
       (cal *. 1e3) (Meter.Host.reference *. 1e3) (Meter.Host.reference /. cal))

(* ------------------------------------------------------------------ *)
(* Untraced: end-to-end metrics                                        *)
(* ------------------------------------------------------------------ *)

(* Set-up time as a user meets it: from process start to the first
   timed operation. Each probe is a fresh driver process ([probe]) that
   sets the workload up, so no cache or warm code of an earlier set-up
   helps it; it is timed from just before its launch. It is scaled to
   reference speed by host-speed samples taken just before the launch
   and just after the set-up: [probe_samples] each side, as a probe's
   factor rests on these alone. *)
let setup_probes = 7
let probe_samples = 15

(* The probe process: set up, read the clock, then take host-speed
   samples and print the set-up time and the samples. *)
let probe w ~seed ~t0 =
  let s = w.open_ ~seed ~rep:0 ~traced:false in
  let dt = Meter.now () -. t0 in
  Meter.Host.prime ~k:probe_samples ();
  s.close ();
  print_endline
    (String.concat " "
       (List.map (Printf.sprintf "%.17g") (dt :: Array.to_list (Samples.to_array Meter.Host.all))))

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

(* Raw set-up times and their scales; [argv] is this driver's command
   line without --trace. *)
let setup_times ~argv =
  Array.init setup_probes (fun _ ->
      let before = Samples.count Meter.Host.all in
      Meter.Host.prime ~k:probe_samples ();
      let cal = Array.sub (Samples.to_array Meter.Host.all) before probe_samples in
      let r, wr = Unix.pipe ~cloexec:true () in
      let t0 = Meter.now () in
      let args = Array.append argv [| "--setup-probe"; Printf.sprintf "%.17g" t0 |] in
      let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
      Unix.close wr;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      let status = waitpid_noeintr pid in
      match List.filter_map float_of_string_opt (String.split_on_char ' ' line) with
      | dt :: after when status = Unix.WEXITED 0 && after <> [] ->
          (dt, Meter.Host.reference /. Meter.median (Array.append cal (Array.of_list after)))
      | _ -> failwith "a set-up probe failed")

(* latency_p99_ms is the median over [p99_blocks] consecutive blocks of
   the run's operations of each block's 99th percentile. The host stalls
   for up to a second now and then, more than the host-speed loop can
   follow; a stall's operations fill the top percent of a whole run
   (ten or so of about a thousand on solve-lp) but move the median
   block's percentile little. *)
let p99_blocks = 5

let blocked_p99 a =
  let edge i = i * Array.length a / p99_blocks in
  Meter.median
    (Array.init p99_blocks (fun i ->
         let b = Array.sub a (edge i) (edge (i + 1) - edge i) in
         Array.sort Float.compare b;
         Meter.percentile_sorted b 99.))

let untraced w t ~argv ~seed ~seconds =
  let probes = setup_times ~argv in
  let setups = Array.map (fun (dt, k) -> dt *. k) probes in
  Meter.Host.prime ();
  let s = w.open_ ~seed ~rep:0 ~traced:false in
  let raw = Samples.create () and mids = Samples.create () and ratios = Samples.create () in
  run_loop ~seconds (fun _ ->
      let op = s.next () in
      let check, dt = Meter.timed op.Meter.run in
      let mid = Meter.now () -. (dt /. 2.) in
      let v = check () in
      record t v;
      if v.Meter.ok then begin
        Samples.add raw dt;
        Samples.add mids mid;
        Option.iter (Samples.add ratios) v.Meter.ratio
      end);
  let rss = Meter.peak_rss_mb s.rss_pid in
  s.close ();
  let xs = scaled (Meter.Host.scaler ()) (raw, mids) in
  let n = Array.length xs in
  let per_block = n / p99_blocks in
  if per_block < 100 then
    note t (Printf.sprintf "latency_p99_ms: %d operations per block (fewer than 100)" per_block);
  host_note t;
  note t
    (Printf.sprintf "set-up probes (s, at reference speed): %s"
       (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups))));
  (* [a] in run order *)
  let latencies a =
    let sorted = Array.copy a in
    Array.sort Float.compare sorted;
    let pct p = 1000. *. Meter.percentile_sorted sorted p in
    [ Meter.metric ~samples:n "latency_p50_ms" "ms" (pct 50.);
      Meter.metric ~samples:n "latency_p90_ms" "ms" (pct 90.);
      Meter.metric ~samples:n "latency_p99_ms" "ms" (1000. *. blocked_p99 a);
      Meter.metric ~samples:n "throughput_ops_s" "1/s"
        (float_of_int n /. Array.fold_left ( +. ) 0. a) ]
  in
  ( (Meter.metric ~samples:setup_probes "setup_s" "s" (Meter.median setups) :: latencies xs)
    @ [ Meter.metric "peak_rss_mb" "MB" rss;
        Meter.metric ~samples:(Samples.count ratios) "approx_ratio" "ratio"
          (Meter.mean (Samples.to_array ratios)) ],
    Meter.metric ~samples:setup_probes "setup_s" "s" (Meter.median (Array.map fst probes))
    :: latencies (Samples.to_array raw) )

(* ------------------------------------------------------------------ *)
(* Traced: per-layer metrics                                           *)
(* ------------------------------------------------------------------ *)

(* Exact counters over the first [w.prefix] operations of a session:
   the totals (per-op work counters plus session-level deltas) and the
   per-op counter lists. *)
let prefix_counters w t s =
  let acc = Hashtbl.create 8 in
  let add k v = Hashtbl.replace acc k (v + Option.value (Hashtbl.find_opt acc k) ~default:0) in
  let before = s.counters () in
  let scratch = Layers.create () in
  let per_op =
    List.init w.prefix (fun _ ->
        let v = ((s.next ()).Meter.traced scratch) () in
        if not v.Meter.ok then record t v;
        List.iter (fun (k, n) -> add k n) v.Meter.counters;
        List.sort compare v.Meter.counters)
  in
  List.iter
    (fun (k, after) -> add k (after - Option.value (List.assoc_opt k before) ~default:0))
    (s.counters ());
  (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc []), per_op)

let traced name w t ~seed ~seconds =
  Meter.Host.prime ();
  (* Counter self-test: seed, seed + 1, seed again; the main loop then
     continues the last session's stream. *)
  let first seed rep =
    let s = w.open_ ~seed ~rep ~traced:true in
    (s, prefix_counters w t s)
  in
  let a, (ca, opa) = first seed 0 in
  a.close ();
  let c, (cc, opc) = first (seed + 1) 1 in
  c.close ();
  let s, (cb, opb) = first seed 2 in
  let show cs = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs) in
  let fail why =
    t.failed <- t.failed + 1;
    t.reasons <- why :: t.reasons
  in
  (* At one seed every op's counters repeat; across seeds the per-op
     counters must differ somewhere. *)
  if ca <> cb || opa <> opb then
    fail (Printf.sprintf "counters differ at one seed: %s vs %s" (show ca) (show cb));
  if opa = opc then fail (Printf.sprintf "counters did not change with the seed: %s" (show ca));
  note t (Printf.sprintf "counters seed %d: %s; seed %d: %s" seed (show cb) (seed + 1) (show cc));
  if not (w.faithful ~seed) then fail "traced pipeline differs from the registry solve";
  let diagnostics = w.diagnostics ~seed in
  (* Alternate pairs of untraced and traced operations, so host speed
     drift hits both halves alike, and so do streams that alternate
     instance shapes (solve-lp). *)
  let layers = Layers.create () in
  let plain = (Samples.create (), Samples.create ()) and trace = (Samples.create (), Samples.create ()) in
  let trace_raw = ref 0. in
  let cache0 = Option.map (fun f -> f ()) s.cache in
  let loop_ops = ref 0 in
  run_loop ~seconds (fun i ->
      incr loop_ops;
      let op = s.next () in
      let is_traced = i land 2 = 2 in
      let check, dt =
        if is_traced then Meter.timed (fun () -> op.Meter.traced layers)
        else Meter.timed op.Meter.run
      in
      let mid = Meter.now () -. (dt /. 2.) in
      let v = check () in
      record t v;
      if is_traced then trace_raw := !trace_raw +. dt;
      let times, mids = if is_traced then trace else plain in
      Samples.add times dt;
      Samples.add mids mid);
  let cache1 = Option.map (fun f -> f ()) s.cache in
  s.close ();
  let scale = Meter.Host.scaler () in
  let plain = scaled scale plain and trace = scaled scale trace in
  let n = float_of_int (max 1 (Array.length trace)) in
  (* Layer totals are scaled to reference host speed by the run's
     median calibration time. *)
  let cal = Meter.median (Samples.to_array Meter.Host.all) in
  let host_scale = Meter.Host.reference /. cal in
  host_note t;
  let ratio a b = if b > 0. then a /. b else 0. in
  let per_op name = host_scale *. Layers.get layers name /. n in
  let ms name = per_op name *. 1000. in
  (* per call of the layer: per request on serve-churn *)
  let per_call name =
    host_scale *. ratio (Layers.get layers name) (float_of_int (Layers.calls layers name))
  in
  let counter k = float_of_int (Option.value (List.assoc_opt k cb) ~default:0) in
  let simplex = Layers.get layers "lp.simplex" and pivots = Layers.get layers "lp.pivots" in
  let sim = Layers.get layers "sim.run" and accesses = Layers.get layers "sim.accesses" in
  let hits, misses =
    match (cache0, cache1) with
    | Some (h0, m0), Some (h1, m1) -> (h1 - h0, m1 - m0)
    | _ -> (0, 0)
  in
  let share =
    match w.predicted with
    | [] ->
        (* serve-churn: requests answered on the protocol/cache path,
           i.e. without running a solve *)
        let requests = float_of_int (!loop_ops * w.requests) in
        100. *. ratio (requests -. float_of_int misses) requests
    | layers_ ->
        100. *. ratio (List.fold_left (fun a l -> a +. Layers.get layers l) 0. layers_) !trace_raw
  in
  let claim =
    match w.predicted with
    | [] -> "requests answered without a solve (protocol/cache path)"
    | l -> String.concat "+" l ^ " share of traced op time"
  in
  note t
    (Printf.sprintf "attribution %s: %s %.1f%%%s" name claim share
       (if share >= 50. then "" else " -- MISS: the predicted layer does not dominate"));
  let samples = Array.length trace in
  let m ?(samples = samples) name unit_ value = Meter.metric ~samples name unit_ value in
  let counted name = m ~samples:w.prefix name "count" (counter name) in
  let called name unit_ layer per_s =
    m ~samples:(Layers.calls layers layer) name unit_ (per_call layer *. per_s)
  in
  let diagnostic name unit_ =
    match List.find_opt (fun (d : Meter.metric) -> d.Meter.name = name) diagnostics with
    | Some d -> d
    | None -> m ~samples:0 name unit_ 0.
  in
  [ m "lp.simplex_ms" "ms" (ms "lp.simplex");
    counted "lp.pivots";
    m "lp.us_per_pivot" "us" (host_scale *. 1e6 *. ratio simplex pivots);
    m "place.lp_build_ms" "ms" (ms "place.lp_build");
    m "place.round_ms" "ms" (ms "place.round");
    m "place.delay_eval_ms" "ms" (ms "place.delay_eval");
    m "graph.apsp_ms" "ms" (ms "graph.apsp");
    m "instance.build_ms" "ms" (ms "instance.build");
    m "place.tree_check_ms" "ms" (ms "place.tree_check");
    m "place.tree_bb_ms" "ms" (ms "place.tree_solve" -. ms "place.tree_check");
    counted "place.tree_search_nodes";
    counted "place.tree_pairs";
    m "sim.run_ms" "ms" (ms "sim.run");
    counted "sim.accesses";
    m "sim.accesses_per_ms" "1/ms" (ratio accesses (host_scale *. sim *. 1000.));
    m "scenario.solve_ms" "ms" (ms "scenario.solve");
    m "scenario.emit_ms" "ms" (ms "scenario.emit");
    called "serve.parse_us" "us" "serve.parse" 1e6;
    called "serve.emit_us" "us" "serve.emit" 1e6;
    called "serve.queue_ms" "ms" "serve.queue" 1000.;
    called "serve.handle_ms" "ms" "serve.handle" 1000.;
    m "serve.cache_hit_ratio" "ratio" (ratio (float_of_int hits) (float_of_int (hits + misses)));
    counted "serve.cache_hits";
    counted "serve.response_bytes";
    called "instance.live_apply_ms" "ms" "instance.live_apply" 1000.;
    counted "graph.apsp_partial";
    diagnostic "par.fanout_speedup_w2" "ratio";
    m "obs.trace_overhead_pct" "%"
      (100.
      *. (ratio (Meter.median trace) (Meter.median plain) -. 1.));
    m "trace.op_ms" "ms" (1000. *. Array.fold_left ( +. ) 0. trace /. n);
    m "trace.predicted_share_pct" "%" share;
    m ~samples:(Samples.count Meter.Host.all) "host.calibration_ms" "ms" (1000. *. cal) ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let qplace = ref "" and scratch = ref "." and setup_probe = ref Float.nan in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--qplace", Arg.Set_string qplace, "PATH to qplace.exe (serve-churn)");
      ("--scratch", Arg.Set_string scratch, "DIR for server metric dumps");
      ("--setup-probe", Arg.Set_float setup_probe, "T0 (internal: time one set-up from T0)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "qpbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Pool.set_default_jobs 1;
  let ws = workloads ~qplace:!qplace ~scratch:!scratch in
  let w =
    match List.assoc_opt !workload ws with
    | Some w -> w
    | None ->
        prerr_endline
          ("qpbench: unknown workload " ^ !workload ^ " (" ^ String.concat "|" (List.map fst ws) ^ ")");
        exit 2
  in
  if Float.is_finite !setup_probe then begin
    probe w ~seed:!seed ~t0:!setup_probe;
    exit 0
  end;
  let argv =
    [| Sys.executable_name; "--workload"; !workload; "--seed"; string_of_int !seed; "--qplace";
       !qplace; "--scratch"; !scratch |]
  in
  let t = tally () in
  let metrics, unscaled =
    if !trace = 1 then (traced !workload w t ~seed:!seed ~seconds:!seconds, [])
    else untraced w t ~argv ~seed:!seed ~seconds:!seconds
  in
  let strings l = "[" ^ String.concat ", " (List.map Meter.json_string (List.rev l)) ^ "]" in
  Printf.printf
    "{\"workload\": %s, \"correct\": %b, \"attempted\": %d, \"succeeded\": %d, \"failed\": %d, \"metrics\": %s, \"unscaled\": %s, \"failures\": %s, \"notes\": %s}\n%!"
    (Meter.json_string !workload) (t.failed = 0) t.attempted (t.attempted - t.failed) t.failed
    (Meter.json_of_metrics metrics) (Meter.json_of_metrics unscaled) (strings t.reasons)
    (strings t.notes)
