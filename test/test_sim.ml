open Qp_sim
module Rng = Qp_util.Rng
module Generators = Qp_graph.Generators
module Strategy = Qp_quorum.Strategy
module Quorum = Qp_quorum.Quorum
module Simple_qs = Qp_quorum.Simple_qs
module Problem = Qp_place.Problem
module Placement = Qp_place.Placement
module Delay = Qp_place.Delay
module Event = Qp_runtime.Event

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let sim = Event.create () in
  let log = ref [] in
  Event.schedule sim 3.0 (fun _ -> log := 3 :: !log);
  Event.schedule sim 1.0 (fun _ -> log := 1 :: !log);
  Event.schedule sim 2.0 (fun s ->
      log := 2 :: !log;
      Event.schedule_in s 0.5 (fun _ -> log := 25 :: !log));
  Event.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 25; 3 ] (List.rev !log);
  Alcotest.(check int) "processed" 4 (Event.events_processed sim);
  check_float "final clock" 3.0 (Event.now sim)

let test_engine_until () =
  let sim = Event.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Event.schedule sim (float_of_int i) (fun _ -> incr count)
  done;
  Event.run ~until:5.5 sim;
  Alcotest.(check int) "stopped at horizon" 5 !count;
  Event.run sim;
  Alcotest.(check int) "resumes" 10 !count

let test_engine_stop () =
  (* A self-regenerating event chain is cut off by Event.stop. *)
  let sim = Event.create () in
  let count = ref 0 in
  let rec tick s =
    incr count;
    if !count = 5 then Event.stop s else Event.schedule_in s 1.0 tick
  in
  Event.schedule sim 0.0 tick;
  Event.run sim;
  Alcotest.(check int) "stopped after 5" 5 !count

let test_engine_rejects_past () =
  let sim = Event.create () in
  Event.schedule sim 5.0 (fun s ->
      Alcotest.check_raises "past event" (Invalid_argument "Event.schedule: time in the past")
        (fun () -> Event.schedule s 1.0 (fun _ -> ())));
  Event.run sim

(* The event counterparts of the unit tests of the generic heap the
   queue replaced: 500 random times drain in order, each at its own
   clock, and an empty queue runs nothing. *)
let test_engine_sorted_drain () =
  let sim = Event.create () and rng = Rng.create 1 in
  let times = Array.init 500 (fun _ -> Rng.uniform rng) in
  let log = ref [] in
  Array.iter (fun x -> Event.schedule sim x (fun s -> log := (x, Event.now s) :: !log)) times;
  Event.run sim;
  let drained = List.rev !log in
  Alcotest.(check bool) "clock = scheduled time" true (List.for_all (fun (x, c) -> x = c) drained);
  Alcotest.(check (list (float 0.))) "time order"
    (List.sort compare (Array.to_list times))
    (List.map fst drained);
  Alcotest.(check int) "drained all" 500 (Event.events_processed sim)

let test_engine_empty () =
  let sim = Event.create () in
  Event.run sim;
  Alcotest.(check int) "nothing processed" 0 (Event.events_processed sim);
  check_float "clock at 0" 0. (Event.now sim);
  Event.schedule sim 1. (fun _ -> ());
  Event.run sim;
  Event.run sim;
  Alcotest.(check int) "one event, once" 1 (Event.events_processed sim);
  check_float "clock at 1" 1. (Event.now sim)

(* A NaN time compares false with everything: it must be refused, not
   slipped into the heap where it would break the time order. *)
let test_engine_rejects_nan () =
  let sim = Event.create () in
  let past = Invalid_argument "Event.schedule: time in the past" in
  Alcotest.check_raises "nan time" past (fun () -> Event.schedule sim nan (fun _ -> ()));
  Alcotest.check_raises "nan delay" past (fun () -> Event.schedule_in sim nan (fun _ -> ()));
  let log = ref [] in
  List.iter (fun x -> Event.schedule sim x (fun _ -> log := x :: !log)) [ 2.; 1.; 3. ];
  Event.run sim;
  Alcotest.(check (list (float 0.))) "queue intact" [ 1.; 2.; 3. ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Access simulation                                                   *)
(* ------------------------------------------------------------------ *)

let fixture () =
  let system = Simple_qs.triangle () in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path 3)
      ~capacities:(Array.make 3 (2. /. 3.))
      ~system ~strategy:(Strategy.uniform system) ()
  in
  (p, [| 0; 1; 2 |])

(* Single quorum: every access has the same deterministic delay, so
   the simulated mean equals the analytic value exactly. *)
let single_quorum_fixture () =
  let n = 4 in
  let system = Quorum.make ~universe:2 [| [| 0; 1 |] |] in
  let p =
    Problem.of_graph_qpp ~graph:(Generators.path n) ~capacities:(Array.make n 1.)
      ~system ~strategy:[| 1. |] ()
  in
  (p, [| 1; 2 |])

let test_calibration_exact_single_quorum () =
  let problem, placement = single_quorum_fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  List.iter
    (fun protocol ->
      let report = Access_sim.run { cfg with Access_sim.protocol; accesses_per_client = 50 } in
      check_float "simulated = analytic (deterministic)" report.Access_sim.analytic_delay
        report.Access_sim.mean_delay;
      check_float "relative error zero" 0. report.Access_sim.relative_error)
    [ Access_sim.Parallel; Access_sim.Sequential ]

let test_calibration_sampling_converges () =
  let problem, placement = fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let report = Access_sim.run { cfg with Access_sim.accesses_per_client = 4000 } in
  Alcotest.(check bool) "within 5% of Avg Delta_f" true
    (report.Access_sim.relative_error < 0.05)

let test_calibration_sequential_converges () =
  let problem, placement = fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let report =
    Access_sim.run
      { cfg with Access_sim.protocol = Access_sim.Sequential; accesses_per_client = 4000 }
  in
  Alcotest.(check bool) "within 5% of Avg Gamma_f" true
    (report.Access_sim.relative_error < 0.05)

let test_empirical_load_matches_placement_load () =
  let problem, placement = fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let report = Access_sim.run { cfg with Access_sim.accesses_per_client = 4000 } in
  let expected = Placement.node_loads problem placement in
  Array.iteri
    (fun v l ->
      Alcotest.(check bool) "probe frequency ~ load_f" true
        (Float.abs (report.Access_sim.empirical_node_load.(v) -. l) < 0.05))
    expected

let test_round_trip_at_least_double () =
  (* Round-trip with zero service: every delay doubles relative to the
     one-way measurement for parallel accesses (same path out and
     back, no jitter). *)
  let problem, placement = single_quorum_fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let one_way = Access_sim.run { cfg with Access_sim.accesses_per_client = 20 } in
  let rt =
    Access_sim.run { cfg with Access_sim.round_trip = true; accesses_per_client = 20 }
  in
  check_float "round trip doubles" (2. *. one_way.Access_sim.mean_delay)
    rt.Access_sim.mean_delay

let test_service_time_adds_delay () =
  let problem, placement = single_quorum_fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let base =
    Access_sim.run { cfg with Access_sim.round_trip = true; accesses_per_client = 20 }
  in
  let slow =
    Access_sim.run
      {
        cfg with
        Access_sim.round_trip = true;
        service = Access_sim.Fixed 0.5;
        accesses_per_client = 20;
      }
  in
  Alcotest.(check bool) "service adds >= 0.5" true
    (slow.Access_sim.mean_delay >= base.Access_sim.mean_delay +. 0.5 -. 1e-9)

let test_queueing_under_contention () =
  (* Very high arrival rate + non-trivial service: FIFO queueing must
     push delays above the uncontended value. *)
  let problem, placement = single_quorum_fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let uncontended =
    Access_sim.run
      {
        cfg with
        Access_sim.round_trip = true;
        service = Access_sim.Fixed 0.2;
        arrival_rate = 0.001;
        accesses_per_client = 50;
      }
  in
  let contended =
    Access_sim.run
      {
        cfg with
        Access_sim.round_trip = true;
        service = Access_sim.Fixed 0.2;
        arrival_rate = 100.;
        accesses_per_client = 50;
      }
  in
  Alcotest.(check bool) "queueing visible" true
    (contended.Access_sim.mean_delay > uncontended.Access_sim.mean_delay +. 0.1)

let test_jitter_increases_delay () =
  let problem, placement = single_quorum_fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let jittered =
    Access_sim.run { cfg with Access_sim.jitter = 0.5; accesses_per_client = 500 }
  in
  (* Jitter only inflates latencies (factor in [1, 1.5]). *)
  Alcotest.(check bool) "mean above analytic" true
    (jittered.Access_sim.mean_delay >= jittered.Access_sim.analytic_delay -. 1e-9)

let test_client_rates_weighting () =
  (* All rate concentrated on client 0: mean approaches Delta_f(0). *)
  let system = Simple_qs.triangle () in
  let graph = Generators.path 3 in
  let problem =
    Problem.of_graph_qpp ~graph ~capacities:(Array.make 3 1.) ~system
      ~strategy:(Strategy.uniform system)
      ~client_rates:[| 1.; 0.; 0. |] ()
  in
  let placement = [| 0; 1; 2 |] in
  let cfg = Access_sim.default_config ~problem ~placement in
  let report = Access_sim.run { cfg with Access_sim.accesses_per_client = 4000 } in
  let expected = Delay.client_max_delay problem placement 0 in
  Alcotest.(check bool) "rate-weighted mean" true
    (Float.abs (report.Access_sim.mean_delay -. expected) /. expected < 0.05)

let test_run_validation () =
  let problem, placement = fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  Alcotest.check_raises "bad count"
    (Invalid_argument "Access_sim.run: accesses_per_client must be positive") (fun () ->
      ignore (Access_sim.run { cfg with Access_sim.accesses_per_client = 0 }));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Access_sim.run: arrival_rate must be positive") (fun () ->
      ignore (Access_sim.run { cfg with Access_sim.arrival_rate = 0. }))

let test_determinism () =
  let problem, placement = fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let a = Access_sim.run { cfg with Access_sim.seed = 42 } in
  let b = Access_sim.run { cfg with Access_sim.seed = 42 } in
  check_float "same seed, same mean" a.Access_sim.mean_delay b.Access_sim.mean_delay;
  let c = Access_sim.run { cfg with Access_sim.seed = 43 } in
  Alcotest.(check bool) "different seed differs" true
    (a.Access_sim.mean_delay <> c.Access_sim.mean_delay)

let test_conservation_invariants () =
  (* Per-client means and access counts must be mutually consistent,
     and total probes must equal the sum of sampled quorum sizes. *)
  let problem, placement = fixture () in
  let cfg = Access_sim.default_config ~problem ~placement in
  let r = Access_sim.run { cfg with Access_sim.accesses_per_client = 300 } in
  Alcotest.(check int) "every client ran its quota" (3 * 300) r.Access_sim.n_accesses;
  let total_probes = Array.fold_left ( + ) 0 r.Access_sim.node_probes in
  (* Triangle quorums all have 2 elements. *)
  Alcotest.(check int) "probes = accesses x |Q|" (2 * r.Access_sim.n_accesses) total_probes;
  (* The global mean is the mean of per-client means (equal counts). *)
  let mean_of_means =
    Array.fold_left ( +. ) 0. r.Access_sim.per_client_mean /. 3.
  in
  check_float "mean decomposition" r.Access_sim.mean_delay mean_of_means

(* A waxman n = 8 majority:3:2 instance in round-trip mode, where a
   bad service time, jitter or arrival rate used to run to completion
   and report a silently wrong delay. *)
let waxman_round_trip () =
  let spec =
    { Qp_instance.Spec.default with topology = "waxman"; nodes = 8; system = "majority:3:2" }
  in
  let problem =
    match Qp_instance.Spec.build spec with
    | Ok p -> p
    | Error e -> Alcotest.fail (Qp_util.Qp_error.to_string e)
  in
  let n = Problem.n_nodes problem in
  let placement = Array.init (Problem.n_elements problem) (fun u -> u mod n) in
  { (Access_sim.default_config ~problem ~placement) with
    Access_sim.round_trip = true;
    accesses_per_client = 20 }

(* The config is rejected before anything runs: no metric series was
   registered in a scoped registry, so no access was simulated. *)
let rejects msg cfg () =
  let reg = Qp_obs.Metrics.create ~enabled:true () in
  Alcotest.check_raises msg (Invalid_argument ("Access_sim.run: " ^ msg)) (fun () ->
      ignore (Qp_obs.Metrics.with_current reg (fun () -> Access_sim.run cfg)));
  Alcotest.(check int) "nothing simulated" 0
    (List.length (Qp_obs.Metrics.scalar_series reg))

let test_rejects_nan_fixed_service () =
  let cfg = waxman_round_trip () in
  rejects "fixed service time must be non-negative and finite"
    { cfg with Access_sim.service = Access_sim.Fixed nan } ()

let test_rejects_negative_fixed_service () =
  let cfg = waxman_round_trip () in
  rejects "fixed service time must be non-negative and finite"
    { cfg with Access_sim.service = Access_sim.Fixed (-1.) } ()

let test_rejects_bad_exponential_service () =
  let cfg = waxman_round_trip () in
  List.iter
    (fun mean ->
      rejects "exponential service mean must be positive and finite"
        { cfg with Access_sim.service = Access_sim.Exponential mean } ())
    [ nan; 0.; -2.; infinity ]

let test_rejects_nan_jitter () =
  let cfg = waxman_round_trip () in
  rejects "jitter must be non-negative and finite" { cfg with Access_sim.jitter = nan } ()

let test_rejects_negative_jitter () =
  let cfg = waxman_round_trip () in
  rejects "jitter must be non-negative and finite" { cfg with Access_sim.jitter = -0.5 } ()

let test_rejects_nan_arrival_rate () =
  let cfg = waxman_round_trip () in
  rejects "arrival_rate must be positive" { cfg with Access_sim.arrival_rate = nan } ()

(* Parallel round trip: one event per access arrival plus one per
   probe, published once per run to [qp_sim_events_total]; the count
   repeats exactly on a rerun. *)
let test_events_counter_exact () =
  let cfg = { (waxman_round_trip ()) with Access_sim.service = Access_sim.Exponential 0.5 } in
  let events () =
    let reg = Qp_obs.Metrics.create ~enabled:true () in
    let r = Qp_obs.Metrics.with_current reg (fun () -> Access_sim.run cfg) in
    let ev = List.assoc "qp_sim_events_total" (Qp_obs.Metrics.scalar_series reg) in
    (r, int_of_float ev)
  in
  let r, ev = events () in
  Alcotest.(check int) "events = accesses + probes"
    (r.Access_sim.n_accesses + Array.fold_left ( + ) 0 r.Access_sim.node_probes)
    ev;
  Alcotest.(check int) "repeats" ev (snd (events ()))

let prop_calibration_matches_analytic =
  QCheck.Test.make ~name:"simulated delay tracks analytic (random instances)" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 4000) in
      let n = 5 + Rng.int rng 5 in
      let g, _ = Generators.random_geometric rng n 0.5 in
      let system = Simple_qs.triangle () in
      let strategy = Strategy.uniform system in
      let problem =
        Problem.of_graph_qpp ~graph:g ~capacities:(Array.make n 1.) ~system ~strategy ()
      in
      let placement = Array.init 3 (fun u -> u mod n) in
      let cfg = Access_sim.default_config ~problem ~placement in
      let report =
        Access_sim.run { cfg with Access_sim.accesses_per_client = 2000; seed }
      in
      report.Access_sim.analytic_delay = 0. || report.Access_sim.relative_error < 0.1)

(* The event loop as it ran on a generic heap (closures in a
   polymorphic array, a hole moved per sift level), kept as the oracle
   for the slot-table queue's pop order: sift-up passes a parent only on
   a strictly smaller key, sift-down moves the smaller child up, the
   left child winning equal keys. *)
module Ref_event = struct
  type 'a heap = { mutable keys : float array; mutable vals : 'a array; mutable len : int }

  let grow h v =
    let cap = Stdlib.max 16 (2 * h.len) in
    let keys = Array.make cap 0. and vals = Array.make cap v in
    Array.blit h.keys 0 keys 0 h.len;
    Array.blit h.vals 0 vals 0 h.len;
    h.keys <- keys;
    h.vals <- vals

  let sift_up h i key v =
    let i = ref i and moving = ref true in
    while !moving && !i > 0 do
      let parent = (!i - 1) / 2 in
      if key < h.keys.(parent) then begin
        h.keys.(!i) <- h.keys.(parent);
        h.vals.(!i) <- h.vals.(parent);
        i := parent
      end
      else moving := false
    done;
    h.keys.(!i) <- key;
    h.vals.(!i) <- v

  let sift_down h key v =
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let c = ref !i and ck = ref key in
      if l < h.len && h.keys.(l) < !ck then begin
        c := l;
        ck := h.keys.(l)
      end;
      if r < h.len && h.keys.(r) < !ck then c := r;
      if !c = !i then moving := false
      else begin
        h.keys.(!i) <- h.keys.(!c);
        h.vals.(!i) <- h.vals.(!c);
        i := !c
      end
    done;
    h.keys.(!i) <- key;
    h.vals.(!i) <- v

  type t = { queue : (t -> unit) heap; mutable now : float; mutable processed : int;
             mutable stopped : bool }

  let create () =
    { queue = { keys = [||]; vals = [||]; len = 0 }; now = 0.; processed = 0; stopped = false }

  let now t = t.now
  let stop t = t.stopped <- true
  let events_processed t = t.processed

  let schedule t time handler =
    if time < t.now -. 1e-12 then invalid_arg "Event.schedule: time in the past";
    let h = t.queue in
    if h.len = Array.length h.keys then grow h handler;
    h.len <- h.len + 1;
    sift_up h (h.len - 1) time handler

  let run ?(until = infinity) t =
    t.stopped <- false;
    let h = t.queue and past_until = ref false in
    while not (t.stopped || !past_until || h.len = 0) do
      let time = h.keys.(0) in
      if time > until then past_until := true
      else begin
        t.now <- time;
        let handler = h.vals.(0) in
        let last = h.len - 1 in
        h.len <- last;
        if last > 0 then sift_down h h.keys.(last) h.vals.(last);
        t.processed <- t.processed + 1;
        handler t
      end
    done
end

module type QUEUE = sig
  type t

  val create : unit -> t
  val now : t -> float
  val schedule : t -> float -> (t -> unit) -> unit
  val run : ?until:float -> t -> unit
  val stop : t -> unit
  val events_processed : t -> int
end

(* One script run on a queue: initial events at half-unit times, each
   handler scheduling up to two children 0, 0.5 or 1 later (so equal
   times abound) and some calling [stop]; then a [run ~until] per
   horizon and plain [run]s until the queue is empty. The trace lists
   every event as (id, clock bits) and every return of [run] with the
   processed count. *)
let event_trace (module Q : QUEUE) (initial, acts, horizons) =
  let acts = Array.of_list acts in
  let sim = Q.create () and trace = ref [] and next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let rec handler id sim =
    trace := (id, Int64.bits_of_float (Q.now sim)) :: !trace;
    let children, step, stops = acts.(id mod Array.length acts) in
    if stops then Q.stop sim;
    for k = 1 to children do
      if !next < 400 then
        Q.schedule sim (Q.now sim +. (float_of_int ((step + k) mod 3) /. 2.)) (handler (fresh ()))
    done
  in
  List.iter (fun t -> Q.schedule sim (float_of_int t /. 2.) (handler (fresh ()))) initial;
  let returned () = trace := (-1, Int64.of_int (Q.events_processed sim)) :: !trace in
  List.iter
    (fun u ->
      Q.run ~until:(float_of_int u /. 2.) sim;
      returned ())
    horizons;
  let rec drain () =
    let before = Q.events_processed sim in
    Q.run sim;
    returned ();
    if Q.events_processed sim > before then drain ()
  in
  drain ();
  List.rev !trace

let prop_event_matches_reference =
  QCheck.Test.make ~name:"event pops in the reference queue's order" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 40) (int_range 0 4))
        (list_of_size Gen.(1 -- 12) (triple (int_range 0 2) (int_range 0 2) bool))
        (list_of_size Gen.(0 -- 4) (int_range 0 12)))
    (fun script ->
      let (initial, acts, horizons) = script in
      let acts = if acts = [] then [ (0, 0, false) ] else acts in
      let script = (initial, acts, horizons) in
      event_trace (module Event) script = event_trace (module Ref_event) script)

let prop_event_drains_sorted =
  QCheck.Test.make ~name:"event queue drains sorted" ~count:100
    QCheck.(list (float_range 0. 1000.))
    (fun xs ->
      let sim = Event.create () and log = ref [] in
      List.iter (fun x -> Event.schedule sim x (fun s -> log := Event.now s :: !log)) xs;
      Event.run sim;
      List.rev !log = List.sort compare xs)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_calibration_matches_analytic; prop_event_matches_reference; prop_event_drains_sorted ]

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "ordering" `Quick test_engine_ordering;
        Alcotest.test_case "horizon" `Quick test_engine_until;
        Alcotest.test_case "stop" `Quick test_engine_stop;
        Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        Alcotest.test_case "rejects nan time" `Quick test_engine_rejects_nan;
        Alcotest.test_case "sorted drain" `Quick test_engine_sorted_drain;
        Alcotest.test_case "empty behaviour" `Quick test_engine_empty;
      ] );
    ( "sim.access",
      [
        Alcotest.test_case "exact on deterministic instance" `Quick
          test_calibration_exact_single_quorum;
        Alcotest.test_case "parallel converges to Avg Delta" `Quick
          test_calibration_sampling_converges;
        Alcotest.test_case "sequential converges to Avg Gamma" `Quick
          test_calibration_sequential_converges;
        Alcotest.test_case "empirical load ~ load_f" `Quick
          test_empirical_load_matches_placement_load;
        Alcotest.test_case "round trip doubles" `Quick test_round_trip_at_least_double;
        Alcotest.test_case "service adds delay" `Quick test_service_time_adds_delay;
        Alcotest.test_case "queueing under contention" `Quick test_queueing_under_contention;
        Alcotest.test_case "jitter inflates" `Quick test_jitter_increases_delay;
        Alcotest.test_case "client rates" `Quick test_client_rates_weighting;
        Alcotest.test_case "validation" `Quick test_run_validation;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "conservation invariants" `Quick test_conservation_invariants;
        Alcotest.test_case "rejects nan fixed service" `Quick test_rejects_nan_fixed_service;
        Alcotest.test_case "rejects negative fixed service" `Quick
          test_rejects_negative_fixed_service;
        Alcotest.test_case "rejects bad exponential service" `Quick
          test_rejects_bad_exponential_service;
        Alcotest.test_case "rejects nan jitter" `Quick test_rejects_nan_jitter;
        Alcotest.test_case "rejects negative jitter" `Quick test_rejects_negative_jitter;
        Alcotest.test_case "rejects nan arrival rate" `Quick test_rejects_nan_arrival_rate;
        Alcotest.test_case "events counter exact" `Quick test_events_counter_exact;
      ] );
    ("sim.properties", qcheck_tests);
  ]
