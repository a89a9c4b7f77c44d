module Rng = Qp_util.Rng
module Stats = Qp_util.Stats
module Obs = Qp_obs
module Metric = Qp_graph.Metric
module Quorum = Qp_quorum.Quorum
module Problem = Qp_place.Problem
module Placement = Qp_place.Placement
module Delay = Qp_place.Delay
module Event = Qp_runtime.Event

type protocol = Parallel | Sequential

type service = Zero | Fixed of float | Exponential of float

type config = {
  problem : Problem.qpp;
  placement : Placement.t;
  protocol : protocol;
  round_trip : bool;
  service : service;
  jitter : float;
  accesses_per_client : int;
  arrival_rate : float;
  seed : int;
}

let default_config ~problem ~placement =
  {
    problem;
    placement;
    protocol = Parallel;
    round_trip = false;
    service = Zero;
    jitter = 0.;
    accesses_per_client = 200;
    arrival_rate = 1.0;
    seed = 1;
  }

type report = {
  n_accesses : int;
  mean_delay : float;
  delay_summary : Stats.summary;
  per_client_mean : float array;
  node_probes : int array;
  empirical_node_load : float array;
  analytic_delay : float;
  relative_error : float;
  makespan : float;
}

type state = {
  cfg : config;
  rng : Rng.t;
  node_free_at : float array; (* FIFO single-server per node *)
  node_probes : int array;
  sampler : Rng.sampler;
  delays : float array; (* one slot per access, filled in completion order *)
  per_client : Stats.online array;
  delay_hist : Obs.Metrics.histogram;
  mutable completed : int;
  mutable makespan : float;
}

let link_latency st v w =
  let base = Metric.dist st.cfg.problem.Problem.metric v w in
  if st.cfg.jitter > 0. then base *. (1. +. Rng.float st.rng st.cfg.jitter) else base

let service_time st =
  match st.cfg.service with
  | Zero -> 0.
  | Fixed s -> s
  | Exponential mean -> Rng.exponential st.rng (1. /. mean)

(* [t0] is the access start time: the completion instant [t0 + delay]
   may lie beyond the current event (one-way mode computes it
   analytically), so the makespan is tracked here rather than read off
   the event clock after [Event.run]. *)
let record st ~t0 client delay =
  st.delays.(st.completed) <- delay;
  Stats.online_add st.per_client.(client) delay;
  Obs.Metrics.observe st.delay_hist delay;
  st.completed <- st.completed + 1;
  if t0 +. delay > st.makespan then st.makespan <- t0 +. delay

(* Serve a probe arriving now at [node] (FIFO single server); returns
   the service completion time. Must be called from an event handler
   executing at the arrival instant so that [node_free_at] is updated
   in arrival order. *)
let serve st sim node =
  let start = Float.max (Event.now sim) st.node_free_at.(node) in
  let finish = start +. service_time st in
  st.node_free_at.(node) <- finish;
  finish

let perform_access st sim client =
  let qi = Rng.draw st.rng st.sampler in
  let q = Quorum.quorum st.cfg.problem.Problem.system qi in
  let t0 = Event.now sim in
  match st.cfg.protocol with
  | Parallel ->
      if not st.cfg.round_trip then begin
        (* One-way analytic mode: completion = slowest probe arrival. *)
        let finish =
          Array.fold_left
            (fun acc u ->
              let node = st.cfg.placement.(u) in
              st.node_probes.(node) <- st.node_probes.(node) + 1;
              Float.max acc (t0 +. link_latency st client node))
            t0 q
        in
        record st ~t0 client (finish -. t0)
      end
      else begin
        let pending = ref (Array.length q) in
        let latest = ref t0 in
        Array.iter
          (fun u ->
            let node = st.cfg.placement.(u) in
            st.node_probes.(node) <- st.node_probes.(node) + 1;
            let arrive = t0 +. link_latency st client node in
            Event.schedule sim arrive (fun sim ->
                let finish = serve st sim node in
                let back = finish +. link_latency st node client in
                if back > !latest then latest := back;
                decr pending;
                if !pending = 0 then record st ~t0 client (!latest -. t0)))
          q
      end
  | Sequential ->
      let len = Array.length q in
      if not st.cfg.round_trip then begin
        (* One-way analytic mode: sum of bare latencies (Gamma). *)
        let total =
          Array.fold_left
            (fun acc u ->
              let node = st.cfg.placement.(u) in
              st.node_probes.(node) <- st.node_probes.(node) + 1;
              acc +. link_latency st client node)
            0. q
        in
        record st ~t0 client total
      end
      else begin
        let rec visit idx depart =
          if idx = len then record st ~t0 client (depart -. t0)
          else begin
            let node = st.cfg.placement.(q.(idx)) in
            st.node_probes.(node) <- st.node_probes.(node) + 1;
            let arrive = depart +. link_latency st client node in
            Event.schedule sim arrive (fun sim ->
                let finish = serve st sim node in
                let back = finish +. link_latency st node client in
                (* Continue at the moment the reply returns. *)
                Event.schedule sim back (fun _ -> visit (idx + 1) back))
          end
        in
        visit 0 t0
      end

let client_rates (p : Problem.qpp) =
  match p.Problem.client_rates with
  | Some r -> r
  | None -> Array.make (Problem.n_nodes p) 1.

(* The whole configuration is checked before any event is scheduled:
   a NaN or negative service time, jitter or arrival rate would
   otherwise run to completion and report a silently wrong delay. *)
let validate cfg =
  let bad what = invalid_arg ("Access_sim.run: " ^ what) in
  Placement.validate cfg.problem cfg.placement;
  if cfg.accesses_per_client <= 0 then bad "accesses_per_client must be positive";
  if not (cfg.arrival_rate > 0.) then bad "arrival_rate must be positive";
  if not (Float.is_finite cfg.jitter && cfg.jitter >= 0.) then
    bad "jitter must be non-negative and finite";
  match cfg.service with
  | Zero -> ()
  | Fixed s ->
      if not (Float.is_finite s && s >= 0.) then
        bad "fixed service time must be non-negative and finite"
  | Exponential mean ->
      if not (Float.is_finite mean && mean > 0.) then
        bad "exponential service mean must be positive and finite"

let run ?analytic cfg =
  validate cfg;
  let n = Problem.n_nodes cfg.problem in
  let rates = client_rates cfg.problem in
  let mean_rate =
    let positive = Array.of_list (List.filter (fun r -> r > 0.) (Array.to_list rates)) in
    if Array.length positive = 0 then invalid_arg "Access_sim.run: all client rates zero"
    else Stats.mean positive
  in
  (* Each client's access count is proportional to its rate so the
     per-access mean matches the rate-weighted analytic average. *)
  let counts =
    Array.map
      (fun rate ->
        if rate > 0. then
          Stdlib.max 1
            (int_of_float
               (Float.round (float_of_int cfg.accesses_per_client *. rate /. mean_rate)))
        else 0)
      rates
  in
  let total = Array.fold_left ( + ) 0 counts in
  Obs.Span.with_ "access_sim_run"
    ~attrs:
      [ ("n", Obs.Json.Int n); ("seed", Obs.Json.Int cfg.seed);
        ( "protocol",
          Obs.Json.String
            (match cfg.protocol with Parallel -> "parallel" | Sequential -> "sequential") ) ]
  @@ fun () ->
  let st =
    {
      cfg;
      rng = Rng.create cfg.seed;
      node_free_at = Array.make n 0.;
      node_probes = Array.make n 0;
      sampler = Rng.sampler cfg.problem.Problem.strategy;
      delays = Array.make total 0.;
      per_client = Array.init n (fun _ -> Stats.online_create ());
      delay_hist =
        Obs.Metrics.histogram ~help:"Per-access delay (max or total per protocol)"
          (Obs.Metrics.current ()) "qp_sim_access_delay";
      completed = 0;
      makespan = 0.;
    }
  in
  let sim = Event.create () in
  for client = 0 to n - 1 do
    if counts.(client) > 0 then begin
      let rate = cfg.arrival_rate *. rates.(client) in
      let remaining = ref counts.(client) in
      let rec arrival sim =
        perform_access st sim client;
        decr remaining;
        if !remaining > 0 then Event.schedule_in sim (Rng.exponential st.rng rate) arrival
      in
      Event.schedule sim (Rng.exponential st.rng rate) arrival
    end
  done;
  Event.run sim;
  (* Quorums are non-empty, so every access records exactly once. *)
  let delays = st.delays in
  let analytic =
    match (analytic, cfg.protocol) with
    | Some a, _ -> a
    | None, Parallel -> Delay.avg_max_delay cfg.problem cfg.placement
    | None, Sequential -> Delay.avg_total_delay cfg.problem cfg.placement
  in
  let mean = if Array.length delays = 0 then 0. else Stats.mean delays in
  let cnt = Obs.Metrics.counter ~help:"Simulated accesses" (Obs.Metrics.current ())
      "qp_sim_accesses_total" in
  Obs.Metrics.add cnt (float_of_int st.completed);
  Event.publish_events sim;
  Obs.Metrics.set
    (Obs.Metrics.gauge ~help:"Mean simulated access delay" (Obs.Metrics.current ())
       "qp_sim_mean_delay")
    mean;
  Obs.Metrics.set
    (Obs.Metrics.gauge ~help:"Analytic expected delay of the placement"
       (Obs.Metrics.current ()) "qp_sim_analytic_delay")
    analytic;
  Obs.Span.add_attr "accesses" (Obs.Json.Int st.completed);
  Obs.Span.add_attr "mean_delay" (Obs.Json.Float mean);
  Obs.Span.add_attr "analytic_delay" (Obs.Json.Float analytic);
  {
    n_accesses = st.completed;
    mean_delay = mean;
    delay_summary = Stats.summarize delays;
    per_client_mean = Array.map Stats.online_mean st.per_client;
    node_probes = Array.copy st.node_probes;
    empirical_node_load =
      Array.map (fun c -> float_of_int c /. float_of_int st.completed) st.node_probes;
    analytic_delay = analytic;
    relative_error =
      (if analytic = 0. then if mean = 0. then 0. else infinity
       else Float.abs (mean -. analytic) /. analytic);
    makespan = st.makespan;
  }
