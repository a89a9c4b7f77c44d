module Rng = Qp_util.Rng
module Obs = Qp_obs
module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Problem = Qp_place.Problem
module Placement = Qp_place.Placement
module Delay = Qp_place.Delay
module Repair = Qp_place.Repair
module Resolve = Qp_place.Resolve
module Migrate = Qp_place.Migrate
module Qpp_solver = Qp_place.Qpp_solver

type repair_trigger = {
  capacity_frac : float;
  delay_factor : float;
  check_interval : float;
  min_interval : float;
}

let default_trigger =
  { capacity_frac = 0.15; delay_factor = 2.0; check_interval = 5.0; min_interval = 20.0 }

type repair_event = {
  time : float;
  dead : int list;
  moved : int;
  delay_before : float;
  delay_after : float;
}

type migration_policy = {
  bound : float;
  budget : int option;
  max_retries : int;
  retry_backoff : float;
  move_interval : float;
  candidates : int list option;
}

let default_migration =
  {
    bound = 3.;
    budget = None;
    max_retries = 3;
    retry_backoff = 2.0;
    move_interval = 1.0;
    candidates = None;
  }

type migration_event = {
  m_time : float;
  m_dead : int list;
  planned_moves : int;
  applied_moves : int;
  retried_moves : int;
  degraded : bool;
  m_delay_before : float;
  m_delay_after : float;
  warm : bool;
}

(* SLO-based repair trigger: every access feeds a sliding-window
   tracker (on simulated time), and the check loop trips when both the
   fast and the slow window burn their error budget faster than
   [burn_threshold] — the multiwindow rule, so one timed-out access
   cannot start a migration but a sustained availability dip can, even
   before the capacity or delay-EWMA heuristics notice. *)
type slo_trigger = {
  objective : Obs.Slo.objective;
  fast_window : float;
  slow_window : float;
  burn_threshold : float;
}

let default_slo_trigger =
  {
    objective = { Obs.Slo.name = "access"; target = 0.9; latency_s = None };
    fast_window = 30.;
    slow_window = 120.;
    burn_threshold = 1.0;
  }

type config = {
  problem : Problem.qpp;
  placement : Placement.t;
  failure : Failure.model;
  retry : Retry.t;
  detector : Detector.config;
  adaptive : bool;
  repair : repair_trigger option;
  migration : migration_policy option;
  slo : slo_trigger option;
  probe_interval : float;
  accesses_per_client : int;
  arrival_rate : float;
  seed : int;
}

let default_config ?(adaptive = true) ?repair ?migration ?slo ~problem
    ~placement ~failure () =
  {
    problem;
    placement;
    failure;
    retry = Retry.fixed ~timeout:(4. *. Metric.diameter problem.Problem.metric) ~max_attempts:3;
    detector = Detector.default_config;
    adaptive;
    repair;
    migration;
    slo;
    probe_interval = 1.0;
    accesses_per_client = 200;
    arrival_rate = 1.0;
    seed = 1;
  }

type report = {
  n_accesses : int;
  n_success : int;
  availability : float;
  mean_delay_success : float;
  mean_attempts : float;
  attempt_histogram : int array;
  hedges_launched : int;
  hedges_won : int;
  repairs : repair_event list;
  migrations : migration_event list;
  final_placement : Placement.t;
  final_suspected : int list;
  analytic_delay : float;
}

let validate cfg =
  Placement.validate cfg.problem cfg.placement;
  Failure.validate cfg.failure;
  Retry.validate cfg.retry;
  if cfg.probe_interval <= 0. then
    invalid_arg "Engine: probe_interval must be positive";
  if cfg.accesses_per_client < 1 then
    invalid_arg "Engine: accesses_per_client >= 1 required";
  if cfg.arrival_rate <= 0. then invalid_arg "Engine: arrival_rate must be positive";
  (match cfg.repair with
  | None -> ()
  | Some t ->
      if t.capacity_frac <= 0. || t.capacity_frac > 1. then
        invalid_arg "Engine: repair capacity_frac must lie in (0, 1]";
      if t.delay_factor <= 1. then
        invalid_arg "Engine: repair delay_factor must exceed 1";
      if t.check_interval <= 0. || t.min_interval < 0. then
        invalid_arg "Engine: repair intervals must be positive");
  (match cfg.slo with
  | None -> ()
  | Some s ->
      if cfg.repair = None then
        invalid_arg "Engine: an SLO trigger requires a repair trigger";
      if s.objective.Obs.Slo.target <= 0. || s.objective.Obs.Slo.target >= 1.
      then invalid_arg "Engine: SLO target must lie in (0, 1)";
      if s.fast_window <= 0. || s.slow_window < s.fast_window then
        invalid_arg "Engine: SLO windows must satisfy 0 < fast <= slow";
      if s.burn_threshold <= 0. then
        invalid_arg "Engine: SLO burn_threshold must be positive");
  match cfg.migration with
  | None -> ()
  | Some m ->
      if cfg.repair = None then
        invalid_arg "Engine: migration requires a repair trigger";
      if not (m.bound > 0.) then invalid_arg "Engine: migration bound must be positive";
      if m.max_retries < 0 then
        invalid_arg "Engine: migration max_retries must be non-negative";
      if m.retry_backoff < 0. then
        invalid_arg "Engine: migration retry_backoff must be non-negative";
      if m.move_interval <= 0. then
        invalid_arg "Engine: migration move_interval must be positive"

(* The iid closed form: one attempt succeeds when every distinct host
   of the sampled quorum is up (co-located elements share fate), and
   attempts are independent. *)
let predicted_availability cfg =
  let a = Failure.node_availability cfg.failure in
  let system = cfg.problem.Problem.system in
  let s = ref 0. in
  Array.iteri
    (fun qi pq ->
      if pq > 0. then
        let k = List.length (Adaptive.distinct_hosts system cfg.placement qi) in
        s := !s +. (pq *. (a ** float_of_int k)))
    cfg.problem.Problem.strategy;
  1. -. ((1. -. !s) ** float_of_int cfg.retry.Retry.max_attempts)

(* Mutable simulation state threaded through the event closures. *)
type state = {
  up : bool array; (* ground truth, flipped by the churn process *)
  placement : Placement.t ref; (* swapped by repairs *)
  mutable successes : int;
  mutable delays_sum : float;
  mutable attempts_total : int;
  mutable resolved : int;
  mutable expected : int;
  histogram : int array;
  mutable hedges_launched : int;
  mutable hedges_won : int;
  mutable repairs : repair_event list;
  mutable migrations : migration_event list;
  mutable migrating : bool; (* a staged move plan is in flight *)
  mutable delay_ewma : float; (* running success-delay estimate *)
  mutable last_repair_time : float;
  mutable last_dead : int list;
}

(* Engine-level counters, shared across runs in the default registry;
   handles are fetched once per run so the per-event cost is an
   enabled-flag branch plus a float add. *)
type obs_handles = {
  m_accesses : Obs.Metrics.counter;
  m_attempts : Obs.Metrics.counter;
  m_successes : Obs.Metrics.counter;
  m_hedges_launched : Obs.Metrics.counter;
  m_hedges_won : Obs.Metrics.counter;
  m_repairs : Obs.Metrics.counter;
  m_migrations : Obs.Metrics.counter;
  m_moves : Obs.Metrics.counter;
  m_degraded : Obs.Metrics.counter;
  m_delay : Obs.Metrics.histogram;
}

let obs_handles () =
  let c name help = Obs.Metrics.counter ~help (Obs.Metrics.current ()) name in
  {
    m_accesses = c "qp_engine_accesses_total" "Accesses issued by the engine";
    m_attempts = c "qp_engine_attempts_total" "Quorum attempts (incl. retries)";
    m_successes = c "qp_engine_successes_total" "Accesses that completed a quorum";
    m_hedges_launched = c "qp_engine_hedges_launched_total" "Hedged second waves launched";
    m_hedges_won = c "qp_engine_hedges_won_total" "Attempts resolved by the hedged wave";
    m_repairs = c "qp_engine_repairs_total" "Placement repairs triggered";
    m_migrations = c "qp_engine_migrations_total" "Staged migrations started";
    m_moves = c "qp_engine_moves_total" "Migration moves applied";
    m_degraded =
      c "qp_engine_migrations_degraded_total"
        "Migrations that fell back to strategy reweighting only";
    m_delay =
      Obs.Metrics.histogram ~help:"Per-access completion delay (successes)"
        (Obs.Metrics.current ()) "qp_engine_access_delay";
  }

let run cfg =
  validate cfg;
  let n = Problem.n_nodes cfg.problem in
  let obs = obs_handles () in
  Obs.Span.with_ "engine_run"
    ~attrs:
      [ ("n", Obs.Json.Int n); ("seed", Obs.Json.Int cfg.seed);
        ("adaptive", Obs.Json.Bool cfg.adaptive);
        ("repair", Obs.Json.Bool (cfg.repair <> None)) ]
  @@ fun () ->
  let metric = cfg.problem.Problem.metric in
  let system = cfg.problem.Problem.system in
  let static = cfg.problem.Problem.strategy in
  let analytic = Delay.avg_max_delay cfg.problem cfg.placement in
  let rng = Rng.create cfg.seed in
  (* Dedicated churn and arrival streams split off the seed: at equal
     seeds a static ([adaptive = false]) run and an adaptive run face
     the bit-identical failure trajectory AND access times, so
     comparisons are paired rather than drowned in trajectory
     variance. *)
  let churn_rng = Rng.split rng in
  let arrival_rng = Rng.split rng in
  let sim = Event.create () in
  let detector = Detector.create ~config:cfg.detector n in
  let st =
    {
      up = Array.make n true;
      placement = ref (Array.copy cfg.placement);
      successes = 0;
      delays_sum = 0.;
      attempts_total = 0;
      resolved = 0;
      expected = 0;
      histogram = Array.make cfg.retry.Retry.max_attempts 0;
      hedges_launched = 0;
      hedges_won = 0;
      repairs = [];
      migrations = [];
      migrating = false;
      delay_ewma = analytic;
      last_repair_time = neg_infinity;
      last_dead = [];
    }
  in
  Failure.install_churn cfg.failure ~n ~rng:churn_rng ~up:st.up sim;
  (* The SLO tracker runs on simulated time: every record and query
     passes the event clock explicitly, so a fake or wall clock in
     [Obs.Core] never leaks into the windows. *)
  let slo_state =
    match cfg.slo with
    | None -> None
    | Some s ->
        Some
          (Obs.Slo.create
             ~cfg:
               {
                 Obs.Slo.objective = s.objective;
                 windows_s = [ s.fast_window; s.slow_window ];
                 bucket_s = s.fast_window /. 6.;
               }
             ())
  in
  let slo_record ~now ~ok ~latency_s =
    match slo_state with
    | Some t -> Obs.Slo.record ~now t ~ok ~latency_s
    | None -> ()
  in
  let adaptive = Adaptive.make system !(st.placement) ~static in
  (* The quorum sampler is built once for the static strategy and, when
     adaptive, rebuilt only with the detector-versioned strategy. *)
  let static_sampler = Rng.sampler static in
  let current_sampler () =
    if cfg.adaptive then Adaptive.sampler adaptive detector else static_sampler
  in
  (* Heartbeat monitors: each node is probed every probe_interval,
     phase-shifted at random so probes do not arrive in lockstep. The
     outcomes are the detector's baseline signal; access probes
     piggy-back additional observations below. *)
  let rec heartbeat node sim =
    Detector.observe detector node ~ok:(Failure.probe_up cfg.failure ~rng ~up:st.up node);
    Event.schedule_in sim cfg.probe_interval (heartbeat node)
  in
  for v = 0 to n - 1 do
    Event.schedule_in sim (Rng.float rng cfg.probe_interval) (heartbeat v)
  done;
  (* Closed-loop repair: periodically compare the suspected capacity
     and the observed delay EWMA against the thresholds, and patch the
     placement off the suspected nodes when either trips. With a
     migration policy, the patch is a warm re-solve followed by a
     bounded-safe staged move plan instead of the greedy repair. *)
  (* The instance restricted to survivors: dead nodes lose their
     capacity (the LP's oversize pinning empties them) and their
     client weight, so the re-solve optimizes the delay the surviving
     clients actually see. *)
  let survivors_problem dead =
    let caps = Array.copy cfg.problem.Problem.capacities in
    List.iter (fun v -> caps.(v) <- 0.) dead;
    let rates =
      match cfg.problem.Problem.client_rates with
      | Some r -> Array.copy r
      | None -> Array.make n 1.
    in
    List.iter (fun v -> rates.(v) <- 0.) dead;
    Problem.make_qpp ~metric ~capacities:caps ~system
      ~strategy:cfg.problem.Problem.strategy ~client_rates:rates ()
  in
  let resolve_state =
    match cfg.migration with
    | None -> None
    | Some m -> Some (Resolve.create ?candidates:m.candidates ())
  in
  let greedy_repair sim dead =
    let now = Event.now sim in
    match Repair.repair cfg.problem !(st.placement) ~dead with
    | None -> () (* survivors cannot absorb the displaced load *)
    | Some r ->
        st.placement := r.Repair.placement;
        Adaptive.set_placement adaptive detector r.Repair.placement;
        st.last_repair_time <- now;
        Obs.Metrics.inc obs.m_repairs;
        Obs.Span.event "repair"
          ~attrs:
            [ ("time", Obs.Json.Float now);
              ("dead", Obs.Json.List (List.map (fun v -> Obs.Json.Int v) dead));
              ("moved", Obs.Json.Int (List.length r.Repair.moved));
              ("delay_before", Obs.Json.Float r.Repair.delay_before);
              ("delay_after", Obs.Json.Float r.Repair.delay_after) ];
        st.repairs <-
          {
            time = now;
            dead;
            moved = List.length r.Repair.moved;
            delay_before = r.Repair.delay_before;
            delay_after = r.Repair.delay_after;
          }
          :: st.repairs
  in
  let migrate sim (m : migration_policy) resolve dead =
    let now = Event.now sim in
    st.last_repair_time <- now;
    let p' = survivors_problem dead in
    let warm = Resolve.warm_sources resolve > 0 in
    let delay_before = Delay.avg_max_delay p' !(st.placement) in
    (* One wide event per migration episode. Its phases are the
       wall-clock cost of the resolve and migrate_plan spans run under
       it; sim_* attributes carry the simulated timeline. *)
    let ev = Obs.Wide.start ~kind:"migration" () in
    Obs.Wide.set ev "sim_time" (Obs.Json.Float now);
    Obs.Wide.set ev "dead"
      (Obs.Json.List (List.map (fun v -> Obs.Json.Int v) dead));
    Obs.Wide.set ev "warm" (Obs.Json.Bool warm);
    Obs.Wide.set ev "delay_before" (Obs.Json.Float delay_before);
    let record ~planned ~applied ~retried ~degraded sim =
      let delay_after = Delay.avg_max_delay p' !(st.placement) in
      if degraded then Obs.Metrics.inc obs.m_degraded;
      Obs.Span.event "migration"
        ~attrs:
          [ ("time", Obs.Json.Float (Event.now sim));
            ("dead", Obs.Json.List (List.map (fun v -> Obs.Json.Int v) dead));
            ("planned", Obs.Json.Int planned);
            ("applied", Obs.Json.Int applied);
            ("degraded", Obs.Json.Bool degraded);
            ("warm", Obs.Json.Bool warm) ];
      Obs.Wide.set ev "sim_end" (Obs.Json.Float (Event.now sim));
      Obs.Wide.set_int ev "planned" planned;
      Obs.Wide.set_int ev "applied" applied;
      Obs.Wide.set_int ev "retried" retried;
      Obs.Wide.set ev "delay_after" (Obs.Json.Float delay_after);
      Obs.Wide.finish ~outcome:(if degraded then "degraded" else "applied") ev;
      st.migrations <-
        {
          m_time = Event.now sim;
          m_dead = dead;
          planned_moves = planned;
          applied_moves = applied;
          retried_moves = retried;
          degraded;
          m_delay_before = delay_before;
          m_delay_after = delay_after;
          warm;
        }
        :: st.migrations;
      st.migrating <- false
    in
    Obs.Metrics.inc obs.m_migrations;
    st.migrating <- true;
    (* Degradation ladder: warm re-solve infeasible, or no safe move
       order -> one-shot greedy repair (still yanks replicas off the
       dead nodes); if even that fails, the adaptive strategy keeps
       reweighting around the suspects. *)
    match Obs.Wide.within ev (fun () -> Resolve.solve resolve p') with
    | None ->
        greedy_repair sim dead;
        record ~planned:0 ~applied:0 ~retried:0 ~degraded:true sim
    | Some r -> (
        let target = r.Qpp_solver.placement in
        match
          Obs.Wide.within ev (fun () ->
              Migrate.plan ~bound:m.bound ?budget:m.budget p'
                ~current:!(st.placement) ~target)
        with
        | Error _ ->
            greedy_repair sim dead;
            record ~planned:0 ~applied:0 ~retried:0 ~degraded:true sim
        | Ok plan ->
            let moves = Array.of_list plan.Migrate.moves in
            let planned = Array.length moves in
            let applied = ref 0 in
            let retried = ref 0 in
            (* Staged application: one move per interval. A move whose
               destination is down when it fires retries with backoff;
               an exhausted move aborts the rest of the plan (the next
               trigger re-plans from wherever we stopped). *)
            let rec step idx retries_left sim =
              if idx >= planned then
                record ~planned ~applied:!applied ~retried:!retried
                  ~degraded:false sim
              else begin
                let mv = moves.(idx) in
                if st.up.(mv.Migrate.dst) then begin
                  st.placement := Migrate.apply_move !(st.placement) mv;
                  Adaptive.set_placement adaptive detector !(st.placement);
                  incr applied;
                  Obs.Metrics.inc obs.m_moves;
                  Event.schedule_in sim m.move_interval
                    (step (idx + 1) m.max_retries)
                end
                else if retries_left > 0 then begin
                  incr retried;
                  Event.schedule_in sim m.retry_backoff
                    (step idx (retries_left - 1))
                end
                else begin
                  (* Move retries exhausted mid-plan: patch whatever is
                     still stranded on the dead nodes greedily rather
                     than leaving it there until the next trigger. *)
                  greedy_repair sim dead;
                  record ~planned ~applied:!applied ~retried:!retried
                    ~degraded:true sim
                end
              end
            in
            step 0 m.max_retries sim)
  in
  (match cfg.repair with
  | None -> ()
  | Some trig ->
      let total_cap = Array.fold_left ( +. ) 0. cfg.problem.Problem.capacities in
      let rec check sim =
        let now = Event.now sim in
        let dead = Detector.suspected_nodes detector in
        let dead_cap =
          List.fold_left (fun a v -> a +. cfg.problem.Problem.capacities.(v)) 0. dead
        in
        let capacity_trip = total_cap > 0. && dead_cap /. total_cap >= trig.capacity_frac in
        let delay_trip = analytic > 0. && st.delay_ewma >= trig.delay_factor *. analytic in
        let slo_trip =
          match (cfg.slo, slo_state) with
          | Some s, Some tracker ->
              Obs.Slo.burning ~now tracker ~threshold:s.burn_threshold
          | _ -> false
        in
        let hosted_on_dead =
          Array.exists (fun v -> List.mem v dead) !(st.placement)
        in
        if
          dead <> [] && hosted_on_dead
          && (not st.migrating)
          && List.length dead < n
          && (capacity_trip || delay_trip || slo_trip)
          && now -. st.last_repair_time >= trig.min_interval
          && dead <> st.last_dead
        then begin
          (match (cfg.migration, resolve_state) with
          | Some m, Some resolve -> migrate sim m resolve dead
          | _ -> greedy_repair sim dead);
          st.last_dead <- dead
        end;
        Event.schedule_in sim trig.check_interval check
      in
      Event.schedule_in sim trig.check_interval check);
  let finish sim =
    st.resolved <- st.resolved + 1;
    (* Heartbeats and churn regenerate forever; stop once every access
       has been resolved. *)
    if st.resolved = st.expected then Event.stop sim
  in
  let succeed k start0 finished sim =
    st.successes <- st.successes + 1;
    let d = finished -. start0 in
    st.delays_sum <- st.delays_sum +. d;
    st.delay_ewma <- st.delay_ewma +. (0.1 *. (d -. st.delay_ewma));
    st.histogram.(k - 1) <- st.histogram.(k - 1) + 1;
    Obs.Metrics.inc obs.m_successes;
    Obs.Metrics.observe obs.m_delay d;
    slo_record ~now:finished ~ok:true ~latency_s:d;
    finish sim
  in
  (* One probe wave = one sampled quorum probed in parallel. An attempt
     launches one wave, plus optionally a hedged second wave if it has
     not resolved after the hedge delay. Down nodes are silent, so a
     failed attempt is only discovered at the attempt timeout. *)
  let rec attempt client k start0 t0 sim =
    let resolved_flag = ref false in
    let timeout = cfg.retry.Retry.timeout in
    let launch_wave ~hedged sim =
      if not !resolved_flag then begin
        if hedged then begin
          st.hedges_launched <- st.hedges_launched + 1;
          Obs.Metrics.inc obs.m_hedges_launched
        end;
        let qi = Rng.draw rng (current_sampler ()) in
        let q = Quorum.quorum system qi in
        let hosts =
          List.sort_uniq compare
            (Array.to_list (Array.map (fun u -> !(st.placement).(u)) q))
        in
        let pending = ref (List.length hosts) in
        let ok = ref true in
        let latest = ref (Event.now sim) in
        List.iter
          (fun node ->
            let arrive = Event.now sim +. Metric.dist metric client node in
            if arrive > !latest then latest := arrive;
            Event.schedule sim arrive (fun sim ->
                let alive = Failure.probe_up cfg.failure ~rng ~up:st.up node in
                Detector.observe detector node ~ok:alive;
                if not alive then ok := false;
                decr pending;
                if !pending = 0 && !ok && not !resolved_flag then begin
                  let finished = !latest in
                  if finished -. t0 <= timeout +. 1e-12 then begin
                    resolved_flag := true;
                    if hedged then begin
                      st.hedges_won <- st.hedges_won + 1;
                      Obs.Metrics.inc obs.m_hedges_won
                    end;
                    succeed k start0 finished sim
                  end
                end))
          hosts
      end
    in
    st.attempts_total <- st.attempts_total + 1;
    Obs.Metrics.inc obs.m_attempts;
    launch_wave ~hedged:false sim;
    (match cfg.retry.Retry.hedge with
    | Some { Retry.after } -> Event.schedule sim (t0 +. after) (launch_wave ~hedged:true)
    | None -> ());
    Event.schedule sim (t0 +. timeout) (fun sim ->
        if not !resolved_flag then begin
          resolved_flag := true;
          if k < cfg.retry.Retry.max_attempts then begin
            let pause = Retry.backoff_delay cfg.retry rng ~attempt:k in
            Event.schedule_in sim pause (fun sim ->
                attempt client (k + 1) start0 (Event.now sim) sim)
          end
          else begin
            let now = Event.now sim in
            slo_record ~now ~ok:false ~latency_s:(now -. start0);
            finish sim
          end
        end)
  in
  let rates =
    match cfg.problem.Problem.client_rates with
    | Some r -> r
    | None -> Array.make n 1.
  in
  let accesses = ref 0 in
  for client = 0 to n - 1 do
    if rates.(client) > 0. then begin
      st.expected <- st.expected + cfg.accesses_per_client;
      let remaining = ref cfg.accesses_per_client in
      let rec arrival sim =
        incr accesses;
        Obs.Metrics.inc obs.m_accesses;
        attempt client 1 (Event.now sim) (Event.now sim) sim;
        decr remaining;
        if !remaining > 0 then
          Event.schedule_in sim (Rng.exponential arrival_rng cfg.arrival_rate) arrival
      in
      Event.schedule sim (Rng.exponential arrival_rng cfg.arrival_rate) arrival
    end
  done;
  Event.run sim;
  Event.publish_events sim;
  Obs.Span.add_attr "accesses" (Obs.Json.Int !accesses);
  Obs.Span.add_attr "successes" (Obs.Json.Int st.successes);
  Obs.Span.add_attr "repairs" (Obs.Json.Int (List.length st.repairs));
  {
    n_accesses = !accesses;
    n_success = st.successes;
    availability =
      (if !accesses = 0 then 1. else float_of_int st.successes /. float_of_int !accesses);
    mean_delay_success =
      (if st.successes = 0 then 0. else st.delays_sum /. float_of_int st.successes);
    mean_attempts =
      (if !accesses = 0 then 0.
       else float_of_int st.attempts_total /. float_of_int !accesses);
    attempt_histogram = st.histogram;
    hedges_launched = st.hedges_launched;
    hedges_won = st.hedges_won;
    repairs = List.rev st.repairs;
    migrations = List.rev st.migrations;
    final_placement = Array.copy !(st.placement);
    final_suspected = Detector.suspected_nodes detector;
    analytic_delay = analytic;
  }
