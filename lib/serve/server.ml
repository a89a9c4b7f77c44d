module Obs = Qp_obs
module Json = Qp_obs.Json
module Qp_error = Qp_util.Qp_error
module Lru = Qp_util.Lru
module Spec = Qp_instance.Spec
module Live = Qp_instance.Live
module Solver = Qp_place.Solver
module Serialize = Qp_place.Serialize
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy

let ( let* ) = Qp_error.( let* )

type config = {
  host : string;
  port : int;
  queue_depth : int;
  default_deadline_ms : int option;
  max_frame : int;
  max_connections : int;
  default_spec : Spec.t;
  jobs : int;
      (* concurrent solves: 1 = solves run inline on the event loop
         (the fully sequential path); N > 1 = N dedicated worker
         domains, the loop stays I/O-only *)
  cache_capacity : int; (* placement-cache entries; 0 disables it *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7341;
    queue_depth = 64;
    default_deadline_ms = None;
    max_frame = Frame.default_max_len;
    max_connections = 1024;
    default_spec = Spec.default;
    jobs = 1;
    cache_capacity = 256;
  }

(* ------------------------------------------------------------------ *)
(* Connections and per-server state                                    *)
(* ------------------------------------------------------------------ *)

(* A finished response parked until every earlier response on the same
   connection has been written; the wide event is finished when the
   bytes go out so its [write] phase is the real write. *)
type slot = { body : string; ev : Obs.Wide.t; outcome : string }

type conn = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  mutable alive : bool;
  mutable next_seq : int; (* next response slot to allocate *)
  mutable next_write : int; (* lowest slot not yet written *)
  slots : (int, slot) Hashtbl.t;
}

type pending = {
  conn : conn;
  req : Protocol.request;
  arrival : float;
  parse_s : float; (* time spent decoding this request's JSON *)
  q_at_admit : int; (* queue depth the request saw on admission *)
}

(* One admitted request after dispatch: everything [deliver] needs to
   assemble its response, including its ordered slot and its wide
   event (started at dispatch, finished when the response is
   written). *)
type member = {
  m_conn : conn;
  seq : int;
  m_req : Protocol.request;
  m_arrival : float;
  m_parse_s : float;
  t_dispatch : float;
  deadline : float;
  ev : Obs.Wide.t;
}

(* A single-flight solve: one pool task per distinct cache key, with
   every identical concurrent request joined as a member. [gen] pins
   the live-instance generation the problem was captured at (None for
   full-spec solves); [solve] is reusable so a follower can be
   promoted to a fresh attempt when the leader's deadline fires. *)
type flight = {
  key : string;
  mutable members : member list; (* leader first, joiners in order *)
  gen : int option;
  solve : unit -> (Qp_place.Outcome.t, Qp_error.t) result;
}

(* What a solve task sends back to the event loop: the outcome's JSON
   tree plus the scoped metrics registry its telemetry landed on
   (merged into the default registry on the loop thread, never
   concurrently). *)
type completion = {
  c_key : string;
  c_payload : (Json.t, Protocol.serve_error) result;
  c_reg : Obs.Metrics.t option;
}

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  queue : pending Queue.t;
  mutable draining : bool;
  mutable listen_open : bool;
  started : float;
  live : Live.t option;
      (* the evolving default instance; spec-less solves hit it *)
  cache : (string, string) Lru.t;
      (* placement cache over canonical (spec|generation, options)
         keys, holding each result's serialized bytes. Live-route
         entries embed the generation, so an applied update makes them
         unreachable without clearing — full-spec entries pin their own
         instance and survive updates. *)
  flights : (string, flight) Hashtbl.t; (* single-flight table *)
  mutable inflight_n : int; (* solve tasks submitted, not yet completed *)
  pool : Qp_par.Pool.t option; (* None when cfg.jobs = 1: solves inline *)
  comp_m : Mutex.t;
  completions : completion Queue.t;
  wake_r : Unix.file_descr; (* self-pipe: workers wake the select *)
  wake_w : Unix.file_descr;
  loop_domain : Domain.id;
  (* health-verb cache counters, tracked as plain ints so they stay
     readable without scraping labeled series *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_joins : int;
  mutable evictions_reported : int;
  slo : Obs.Slo.t;
      (* every answered request feeds this; the [health] verb reports
         its windows and burn rates *)
  (* Handles of the series every request updates, resolved on first
     use and kept: a registry lookup renders the series key, and a
     histogram's also rebuilds and compares its bucket bounds.
     Resolving on first use rather than at start keeps the [metrics]
     body's series, counts and order. *)
  requests_by_verb : (string, Obs.Metrics.counter) Hashtbl.t;
  cache_lookups : (string * string, Obs.Metrics.counter) Hashtbl.t;
      (* by (generation, result); a retired generation leaves with its
         series *)
  latency : Obs.Metrics.histogram Lazy.t;
  queue_wait : Obs.Metrics.histogram Lazy.t;
}

(* SIGTERM lands between loop iterations: the handler only flips this
   flag, the event loop turns it into a graceful drain. *)
let sigterm_requested = Atomic.make false

(* ------------------------------------------------------------------ *)
(* Metrics (always on the default registry: the [metrics] verb and the
   CLI --metrics dump both export it)                                  *)
(* ------------------------------------------------------------------ *)

let reg () = Obs.Metrics.default

let requests_c verb =
  Obs.Metrics.counter ~help:"Requests answered, by verb"
    ~labels:[ ("verb", verb) ] (reg ()) "qp_serve_requests_total"

let errors_c code =
  Obs.Metrics.counter ~help:"Error responses, by code"
    ~labels:[ ("code", code) ] (reg ()) "qp_serve_errors_total"

let latency_h () =
  Obs.Metrics.histogram
    ~help:"Request latency from frame arrival to reply (seconds)"
    ~buckets:(Obs.Metrics.log_buckets ~lo:1e-4 ~factor:2. ~count:22)
    (reg ()) "qp_serve_request_latency_seconds"

let connections_c () =
  Obs.Metrics.counter ~help:"Connections accepted" (reg ())
    "qp_serve_connections_total"

let open_conns_g () =
  Obs.Metrics.gauge ~help:"Currently open connections" (reg ())
    "qp_serve_open_connections"

let updates_c () =
  Obs.Metrics.counter ~help:"Instance deltas applied to the live instance"
    (reg ()) "qp_serve_updates_total"

(* The generation label scopes hit rates to one cache epoch: an
   applied update bumps it, so post-reconfiguration hit/miss series
   start fresh and stay interpretable. Full-spec lookups (whose
   entries survive updates) carry generation="spec". *)
let cache_c ~generation result =
  Obs.Metrics.counter ~help:"Placement cache lookups, by result"
    ~labels:[ ("result", result); ("generation", generation) ]
    (reg ()) "qp_serve_solve_cache_total"

(* An applied update strands the old generation's cache entries, and
   with them its lookup series: drop those, so the label set stays
   bounded by the current generation and "spec" however many updates
   the server applies. *)
let drop_cache_series st ~generation =
  List.iter
    (fun result ->
      Hashtbl.remove st.cache_lookups (generation, result);
      Obs.Metrics.remove (reg ())
        ~labels:[ ("result", result); ("generation", generation) ]
        "qp_serve_solve_cache_total")
    [ "hit"; "miss"; "inflight" ]

let cache_evictions_c () =
  Obs.Metrics.counter ~help:"Placement cache entries evicted by capacity"
    (reg ()) "qp_serve_solve_cache_evictions_total"

let queue_depth_g () =
  Obs.Metrics.gauge ~help:"Admission queue depth at the last loop cycle"
    (reg ()) "qp_serve_queue_depth"

let inflight_g () =
  Obs.Metrics.gauge ~help:"Solve tasks dispatched to the pool, not yet done"
    (reg ()) "qp_serve_inflight_solves"

let queue_wait_h () =
  Obs.Metrics.histogram
    ~help:"Time from admission to dispatch (seconds)"
    ~buckets:(Obs.Metrics.log_buckets ~lo:1e-4 ~factor:2. ~count:22)
    (reg ()) "qp_serve_queue_wait_seconds"

let uptime_g () =
  Obs.Metrics.gauge ~help:"Seconds since the server started" (reg ())
    "process_uptime_seconds"

let build_info_g () =
  Obs.Metrics.gauge ~help:"Build metadata; value is always 1"
    ~labels:[ ("version", Obs.Build_info.version) ]
    (reg ()) "qp_build_info"

let resolved tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some h -> h
  | None ->
      let h = make () in
      Hashtbl.add tbl key h;
      h

(* ------------------------------------------------------------------ *)
(* Socket helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Non-blocking frame write with a bounded patience: a client that
   stops reading for >5s forfeits the reply and the connection. *)
let write_frame conn payload =
  if conn.alive then begin
    let b = Frame.encode payload in
    let len = Bytes.length b in
    let off = ref 0 in
    let give_up = Obs.Core.now () +. 5.0 in
    let ok = ref true in
    while !ok && !off < len do
      match Unix.write conn.fd b !off (len - !off) with
      | n -> off := !off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if Obs.Core.now () > give_up then ok := false
          else ignore (Unix.select [] [ conn.fd ] [] 0.25)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> ok := false
    done;
    if not !ok then conn.alive <- false
  end

let close_conn conn =
  if conn.alive then begin
    conn.alive <- false;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Ordered response slots                                              *)
(* ------------------------------------------------------------------ *)

(* Responses on one connection go out in dispatch order even when
   pooled solves complete out of order: each dispatched request takes
   the next slot, and a finished response is written only once every
   earlier slot has been. Admission-time rejections (overload, parse
   errors) bypass the slots — they are written immediately, before
   anything admitted in the same read cycle, exactly as the
   single-threaded server did. *)
let alloc_slot conn =
  let s = conn.next_seq in
  conn.next_seq <- s + 1;
  s

let flush_conn conn =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt conn.slots conn.next_write with
    | None -> continue := false
    | Some s ->
        Hashtbl.remove conn.slots conn.next_write;
        conn.next_write <- conn.next_write + 1;
        Obs.Wide.within s.ev (fun () ->
            Obs.Span.with_ "write" (fun () -> write_frame conn s.body));
        Obs.Wide.finish ~outcome:s.outcome s.ev
  done

(* ------------------------------------------------------------------ *)
(* Verb handlers                                                       *)
(* ------------------------------------------------------------------ *)

let typed r = Result.map_error (fun e -> Protocol.Typed e) r

let info_payload (spec : Spec.t) =
  typed
  @@ let* system = Spec.build_system spec.Spec.system in
     let strategy = Strategy.uniform system in
     let sizes = Array.map Array.length (Quorum.quorums system) in
     Ok
       (Json.Obj
          [ ("system", Json.String spec.Spec.system);
            ("universe", Json.Int (Quorum.universe system));
            ("quorums", Json.Int (Quorum.n_quorums system));
            ("min_quorum", Json.Int (Array.fold_left min sizes.(0) sizes));
            ("max_quorum", Json.Int (Array.fold_left max sizes.(0) sizes));
            ( "system_load",
              Json.Float (Strategy.system_load system strategy) );
            ("total_load", Json.Float (Strategy.total_load system strategy));
            ("is_coterie", Json.Bool (Quorum.is_coterie system));
            ( "all_intersecting",
              Json.Bool (Quorum.all_intersecting system) ) ])

let health_payload st =
  Json.Obj
    [ ("status", Json.String (if st.draining then "draining" else "ok"));
      ("version", Json.String Obs.Build_info.version);
      ("schema", Json.String Protocol.schema);
      ("uptime_s", Json.Float (Obs.Core.now () -. st.started));
      ("queue_depth", Json.Int st.cfg.queue_depth);
      ("queue_len", Json.Int (Queue.length st.queue));
      ("inflight_solves", Json.Int st.inflight_n);
      ( "solve_cache",
        Json.Obj
          [ ("hits", Json.Int st.cache_hits);
            ("misses", Json.Int st.cache_misses);
            ("inflight_joins", Json.Int st.cache_joins);
            ("entries", Json.Int (Lru.length st.cache));
            ("capacity", Json.Int st.cfg.cache_capacity);
            ("evictions", Json.Int (Lru.evictions st.cache)) ] );
      ("slo", Obs.Slo.to_json st.slo);
      ( "generation",
        match st.live with
        | Some live -> Json.Int (Live.generation live)
        | None -> Json.Null );
      ("server_jobs", Json.Int st.cfg.jobs);
      ("jobs", Json.Int (Qp_par.Pool.default_jobs ())) ]

let metrics_payload st =
  (* Refresh the point-in-time series the scrape should carry. *)
  Obs.Metrics.set (uptime_g ()) (Obs.Core.now () -. st.started);
  Obs.Metrics.set (build_info_g ()) 1.;
  Obs.Metrics.set (inflight_g ()) (float_of_int st.inflight_n);
  Json.Obj
    [ ("content_type", Json.String "text/plain; version=0.0.4");
      ("body", Json.String (Obs.Metrics.to_prometheus (reg ()))) ]

let start_drain st =
  if not st.draining then begin
    st.draining <- true;
    if st.listen_open then begin
      st.listen_open <- false;
      (try Unix.close st.listen_fd with Unix.Unix_error _ -> ())
    end
  end

let run_solve ~deadline solve =
  let result =
    (* Cooperative cancellation: the pivot loops poll this
       domain-local deadline, so a request cannot hold its domain past
       its budget by more than one pivot. Cleared even when the solver
       raises. Inside a pool worker this cancels only that worker's
       solve; nested candidate-LP parallelism inherits it through the
       pool context hook. *)
    Qp_lp.Simplex.set_deadline
      (if deadline < infinity then Some deadline else None);
    Fun.protect ~finally:(fun () -> Qp_lp.Simplex.set_deadline None) solve
  in
  match result with
  | Ok outcome -> Ok (Serialize.outcome_to_json outcome)
  | Error (Qp_error.Internal _ as e) when Obs.Core.now () > deadline ->
      (* The pivot-budget hook fired (or the solver lost the race with
         the clock): report the deadline, not the internal symptom. *)
      Error
        (Protocol.Deadline_exceeded
           ("request deadline exceeded during solve: " ^ Qp_error.to_string e))
  | Error e -> Error (Protocol.Typed e)

let opts_key (o : Protocol.options) =
  (* deadline_ms is deliberately absent: it bounds solve time, never
     the result, so requests differing only in deadline share a key. *)
  Printf.sprintf "%s|%.17g|%s" o.Protocol.algorithm o.Protocol.alpha
    (match o.Protocol.pivot_budget with
    | Some b -> string_of_int b
    | None -> "-")

let update_payload st (req : Protocol.request) =
  match st.live with
  | None ->
      Error
        (Protocol.Typed
           (Qp_error.Invalid_instance "update: server has no live instance"))
  | Some live -> (
      match req.Protocol.delta with
      | None | Some [] ->
          Error
            (Protocol.Typed
               (Qp_error.Invalid_instance
                  "update: missing or empty \"delta\" array"))
      | Some ops -> (
          let stale = string_of_int (Live.generation live) in
          match Live.apply live ops with
          | Ok () ->
              (* No cache clear: live-route entries are keyed by the
                 generation they were solved at, so the bump alone
                 makes them unreachable; full-spec entries pin their
                 own instance and stay valid. Stale entries age out of
                 the LRU under capacity pressure. *)
              drop_cache_series st ~generation:stale;
              Obs.Metrics.inc (updates_c ());
              Ok
                (Json.Obj
                   [ ("generation", Json.Int (Live.generation live));
                     ("applied_ops", Json.Int (Live.applied_ops live)) ])
          | Error e -> Error (Protocol.Typed e)))

(* ------------------------------------------------------------------ *)
(* Dispatch and delivery                                               *)
(* ------------------------------------------------------------------ *)

let note_evictions st =
  let total = Lru.evictions st.cache in
  if total > st.evictions_reported then begin
    Obs.Metrics.add (cache_evictions_c ())
      (float_of_int (total - st.evictions_reported));
    st.evictions_reported <- total
  end

(* Deliver one request's payload: record telemetry, write the response
   (timing echo only on traced requests, so default responses stay
   byte-identical), park it in the connection's ordered slot and flush
   whatever prefix is ready. A result is its serialized text, forced
   here under the [serialize] span: a fresh result is serialized by
   the first member it reaches, a cached one not at all. [sreg] is the
   scoped registry the solve's telemetry landed on; merging here, on
   the loop thread, keeps the default registry single-writer. *)
let deliver st (m : member)
    (payload : (string Lazy.t, Protocol.serve_error) result) ~sreg =
  (match sreg with
  | Some r when Obs.Metrics.enabled (reg ()) -> Obs.Metrics.merge ~into:(reg ()) r
  | _ -> ());
  let verb = Protocol.verb_name m.m_req.Protocol.verb in
  Obs.Span.with_ "request"
    ~attrs:[ ("verb", Json.String verb); ("id", m.m_req.Protocol.id) ]
  @@ fun () ->
  let t_done = Obs.Core.now () in
  let queue_s = Float.max (m.t_dispatch -. m.m_arrival) 0. in
  let handle_s = Float.max (t_done -. m.t_dispatch) 0. in
  Obs.Metrics.inc
    (resolved st.requests_by_verb verb (fun () -> requests_c verb));
  let outcome =
    match payload with
    | Error e ->
        let code = Protocol.serve_error_code e in
        Obs.Metrics.inc (errors_c code);
        Obs.Span.add_attr "error" (Json.String code);
        code
    | Ok _ -> "ok"
  in
  let latency = Float.max (t_done -. m.m_arrival) 0. in
  Obs.Metrics.observe (Lazy.force st.latency) latency;
  Obs.Metrics.observe (Lazy.force st.queue_wait) queue_s;
  Obs.Slo.record st.slo ~ok:(Result.is_ok payload) ~latency_s:latency;
  Obs.Span.add_attr "latency_s" (Json.Float latency);
  let timing =
    match m.m_req.Protocol.trace with
    | None -> None
    | Some _ ->
        Some [ ("parse", m.m_parse_s); ("queue", queue_s); ("handle", handle_s) ]
  in
  let ev = m.ev in
  Obs.Wide.phase ev "parse" m.m_parse_s;
  Obs.Wide.phase ev "queue" queue_s;
  Obs.Wide.phase ev "handle" handle_s;
  (match sreg with
  | Some r ->
      Obs.Wide.set ev "pivots"
        (Json.Int
           (int_of_float
              (Obs.Metrics.counter_value
                 (Obs.Metrics.counter r "qp_simplex_pivots_total"))))
  | None -> Obs.Wide.set_int ev "pivots" 0);
  let body =
    Obs.Wide.within ev (fun () ->
        Obs.Span.with_ "serialize" (fun () ->
            Protocol.encode_response ?timing ~id:m.m_req.Protocol.id ~verb
              (Result.map Lazy.force payload)))
  in
  Hashtbl.replace m.m_conn.slots m.seq { body; ev; outcome };
  flush_conn m.m_conn

let push_completion st c =
  Mutex.protect st.comp_m (fun () -> Queue.add c st.completions);
  (* Wake the select only from worker domains; on the loop's own
     domain the completion is drained in the same cycle. A full pipe
     already guarantees a wakeup. *)
  if Domain.self () <> st.loop_domain then
    try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

(* Submit one solve attempt for a flight on behalf of member [m]: the
   task runs [run_solve] under [m]'s deadline, under its wide event as
   span root (so the solver's spans become its phases) and under a
   fresh scoped metrics registry (never touching shared registries
   off-loop), and reports back through the completion queue. With no
   pool the task runs right here — the sequential path — and the
   caller drains the completion immediately after. *)
let submit st (fl : flight) (m : member) =
  st.inflight_n <- st.inflight_n + 1;
  let task () =
    let enabled = Obs.Metrics.enabled (reg ()) in
    let sreg = lazy (Obs.Metrics.create ~enabled ()) in
    let payload =
      Obs.Metrics.with_current_lazy sreg (fun () ->
          Obs.Wide.within m.ev (fun () ->
              run_solve ~deadline:m.deadline fl.solve))
    in
    push_completion st
      {
        c_key = fl.key;
        c_payload = payload;
        c_reg =
          (if enabled && Lazy.is_val sreg then Some (Lazy.force sreg)
           else None);
      }
  in
  match st.pool with
  | None -> task ()
  | Some pool -> Qp_par.Pool.async pool task

let count_cache st ~generation result =
  Obs.Metrics.inc
    (resolved st.cache_lookups (generation, result) (fun () ->
         cache_c ~generation result));
  match result with
  | "hit" -> st.cache_hits <- st.cache_hits + 1
  | "miss" -> st.cache_misses <- st.cache_misses + 1
  | _ -> st.cache_joins <- st.cache_joins + 1

let dispatch_solve st (m : member) =
  let opts = m.m_req.Protocol.options in
  (* Capture the instance on the loop thread: live state may mutate
     under a later update, but the problem value is immutable, so the
     pool task solves a coherent snapshot. Full-spec builds run inside
     the task — construction is deterministic and part of the solve
     cost. *)
  let key, generation, gen, solve =
    match (m.m_req.Protocol.spec, st.live) with
    | None, Some live ->
        let g = Live.generation live in
        let params = Protocol.solver_params (Live.spec live) opts in
        let problem = Live.problem live in
        ( Printf.sprintf "live:g%d|%s" g (opts_key opts),
          string_of_int g,
          Some g,
          fun () ->
            let* solver = Solver.find opts.Protocol.algorithm in
            solver.Solver.solve params problem )
    | _ ->
        let spec =
          Option.value m.m_req.Protocol.spec ~default:st.cfg.default_spec
        in
        let params = Protocol.solver_params spec opts in
        ( "spec:" ^ Spec.canonical_key spec ^ "|" ^ opts_key opts,
          "spec",
          None,
          fun () ->
            let* solver = Solver.find opts.Protocol.algorithm in
            let* problem = Spec.build spec in
            solver.Solver.solve params problem )
  in
  match Lru.find st.cache key with
  | Some cached ->
      count_cache st ~generation "hit";
      deliver st m (Ok (Lazy.from_val cached)) ~sreg:None
  | None -> (
      match Hashtbl.find_opt st.flights key with
      | Some fl ->
          (* Single-flight: an identical solve is already running;
             join it instead of burning a second worker. *)
          count_cache st ~generation "inflight";
          fl.members <- fl.members @ [ m ]
      | None ->
          count_cache st ~generation "miss";
          let fl = { key; members = [ m ]; gen; solve } in
          Hashtbl.add st.flights key fl;
          submit st fl m)

(* A payload tree as the text [deliver] writes, serialized when first
   forced. *)
let serialized payload = Result.map (fun j -> lazy (Json.to_string j)) payload

let dispatch_one st (p : pending) =
  if p.conn.alive then begin
    let verb = Protocol.verb_name p.req.Protocol.verb in
    let deadline =
      let ms =
        match p.req.Protocol.options.Protocol.deadline_ms with
        | Some ms -> Some ms
        | None -> st.cfg.default_deadline_ms
      in
      match ms with
      | Some ms -> p.arrival +. (float_of_int ms /. 1000.)
      | None -> infinity
    in
    let t_dispatch = Obs.Core.now () in
    (* One wide event per request, started at dispatch and finished
       when its response bytes are written. The server adopts the
       client's trace id when the request carries one, so both sides'
       records join across processes; otherwise it mints its own. *)
    let ev =
      if Obs.Trace.active Obs.Trace.wide then begin
        let trace_id, parent_span =
          match p.req.Protocol.trace with
          | Some t -> (t.Protocol.trace_id, t.Protocol.parent_span)
          | None -> (Obs.Wide.fresh_trace_id (), None)
        in
        let ev =
          Obs.Wide.start ~kind:"serve_request" ~trace_id ?parent_span ()
        in
        Obs.Wide.set_str ev "verb" verb;
        (match p.req.Protocol.verb with
        | Protocol.Solve ->
            Obs.Wide.set_str ev "alg" p.req.Protocol.options.Protocol.algorithm
        | _ -> ());
        Obs.Wide.set_int ev "queue_depth_at_admission" p.q_at_admit;
        ev
      end
      else Obs.Wide.start ~kind:"serve_request" () (* inert *)
    in
    let m =
      {
        m_conn = p.conn;
        seq = alloc_slot p.conn;
        m_req = p.req;
        m_arrival = p.arrival;
        m_parse_s = p.parse_s;
        t_dispatch;
        deadline;
        ev;
      }
    in
    let reply payload = deliver st m (serialized payload) ~sreg:None in
    if t_dispatch > deadline then
      reply
        (Error (Protocol.Deadline_exceeded "request deadline expired in the queue"))
    else
      match p.req.Protocol.verb with
      | Protocol.Solve -> dispatch_solve st m
      | Protocol.Update -> reply (update_payload st p.req)
      | Protocol.Info ->
          reply
            (info_payload
               (Option.value p.req.Protocol.spec ~default:st.cfg.default_spec))
      | Protocol.Metrics -> reply (Ok (metrics_payload st))
      | Protocol.Health -> reply (Ok (health_payload st))
      | Protocol.Shutdown ->
          start_drain st;
          reply (Ok (Json.Obj [ ("draining", Json.Bool true) ]))
  end

(* One completed solve attempt. Deadline errors belong to the leader
   alone — its budget, not the flight's — so a waiting follower is
   promoted and the solve retried under the follower's own deadline.
   Every other payload is a deterministic property of the request
   (same key, same instance) and fans out to all members as one text,
   serialized once; successes enter the cache, as that text, unless
   the live instance moved on mid-flight. *)
let process_completion st { c_key; c_payload; c_reg } =
  st.inflight_n <- st.inflight_n - 1;
  match Hashtbl.find_opt st.flights c_key with
  | None -> ()
  | Some fl -> (
      let payload = serialized c_payload in
      match c_payload with
      | Error (Protocol.Deadline_exceeded _) -> (
          match fl.members with
          | [] -> Hashtbl.remove st.flights c_key
          | leader :: rest -> (
              deliver st leader payload ~sreg:c_reg;
              fl.members <- rest;
              match rest with
              | [] -> Hashtbl.remove st.flights c_key
              | next :: _ -> submit st fl next))
      | _ ->
          Hashtbl.remove st.flights c_key;
          List.iteri
            (fun i m ->
              deliver st m payload ~sreg:(if i = 0 then c_reg else None))
            fl.members;
          match payload with
          | Ok text ->
              let current =
                match (fl.gen, st.live) with
                | None, _ -> true
                | Some g, Some live -> Live.generation live = g
                | Some _, None -> false
              in
              if current then begin
                Lru.put st.cache c_key (Lazy.force text);
                note_evictions st
              end
          | Error _ -> ())

let drain_completions st =
  let batch =
    Mutex.protect st.comp_m (fun () ->
        let acc = ref [] in
        while not (Queue.is_empty st.completions) do
          acc := Queue.pop st.completions :: !acc
        done;
        List.rev !acc)
  in
  List.iter (process_completion st) batch

(* Deliver whatever has completed, then feed the pool: requests leave
   the admission queue in strict arrival order (so per-connection
   response order is request order), stalling when every solve slot is
   busy — admission control then backs up exactly as it did when
   solves ran synchronously. *)
let rec progress st =
  drain_completions st;
  if not (Queue.is_empty st.queue) then begin
    let can_dispatch =
      match (Queue.peek st.queue).req.Protocol.verb with
      | Protocol.Solve -> st.inflight_n < max 1 st.cfg.jobs
      | _ -> true
    in
    if can_dispatch then begin
      dispatch_one st (Queue.pop st.queue);
      progress st
    end
  end

(* ------------------------------------------------------------------ *)
(* Read / admission                                                    *)
(* ------------------------------------------------------------------ *)

let reject conn ~id ~verb e =
  Obs.Metrics.inc (errors_c (Protocol.serve_error_code e));
  Obs.Span.event "rejected"
    ~attrs:[ ("code", Json.String (Protocol.serve_error_code e)) ];
  write_frame conn (Protocol.encode_response ~id ~verb (Error e))

let admit st conn payload =
  let t0 = Obs.Core.now () in
  match Protocol.parse_request payload with
  | Error (id, e) -> reject conn ~id ~verb:"error" (Protocol.Typed e)
  | Ok req ->
      let depth = Queue.length st.queue in
      if depth >= st.cfg.queue_depth then
        reject conn ~id:req.Protocol.id
          ~verb:(Protocol.verb_name req.Protocol.verb)
          (Protocol.Overloaded
             (Printf.sprintf "server queue full (depth %d)" st.cfg.queue_depth))
      else
        let arrival = Obs.Core.now () in
        Queue.add
          { conn;
            req;
            arrival;
            parse_s = Float.max (arrival -. t0) 0.;
            q_at_admit = depth }
          st.queue

let read_buf = Bytes.create 65536

let on_readable st conn =
  let closed =
    match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> true
    | n ->
        Frame.Decoder.feed conn.dec read_buf n;
        false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        false
    | exception Unix.Unix_error (_, _, _) -> true
  in
  if closed then close_conn conn
  else begin
    let continue = ref true in
    while !continue && conn.alive do
      match Frame.Decoder.next conn.dec with
      | `Frame payload -> admit st conn payload
      | `Await -> continue := false
      | `Error msg ->
          (* Framing violation: one last typed error, then hang up —
             the byte stream has no recoverable frame boundary. *)
          reject conn ~id:Json.Null ~verb:"error"
            (Protocol.Typed (Qp_error.Invalid_instance ("frame: " ^ msg)));
          close_conn conn;
          continue := false
    done
  end

let accept_ready st =
  let continue = ref true in
  while !continue && st.listen_open do
    match Unix.accept ~cloexec:true st.listen_fd with
    | fd, _addr ->
        if List.length st.conns >= st.cfg.max_connections then
          (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          Unix.set_nonblock fd;
          Obs.Metrics.inc (connections_c ());
          st.conns <-
            st.conns
            @ [ { fd; dec = Frame.Decoder.create ~max_len:st.cfg.max_frame ();
                  alive = true; next_seq = 0; next_write = 0;
                  slots = Hashtbl.create 4 } ]
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let drain_wake st =
  let b = Bytes.create 256 in
  let continue = ref true in
  while !continue do
    match Unix.read st.wake_r b 0 (Bytes.length b) with
    | n when n > 0 -> ()
    | _ -> continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let finish st =
  Queue.clear st.queue;
  List.iter close_conn st.conns;
  st.conns <- []

(* Drained when nothing is queued and no pooled solve is still
   running: graceful drain answers every admitted request, including
   solves already handed to worker domains. *)
let drained st =
  st.draining && Queue.is_empty st.queue && st.inflight_n = 0
  && Hashtbl.length st.flights = 0

let rec loop st =
  if Atomic.get sigterm_requested then begin
    Atomic.set sigterm_requested false;
    start_drain st
  end;
  if drained st then finish st
  else begin
    let read_fds =
      (if st.listen_open then [ st.listen_fd ] else [])
      @ (st.wake_r
        :: List.filter_map
             (fun c -> if c.alive then Some c.fd else None)
             st.conns)
    in
    let readable =
      match Unix.select read_fds [] [] 0.25 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if List.memq st.wake_r readable then drain_wake st;
    if st.listen_open && List.memq st.listen_fd readable then accept_ready st;
    List.iter
      (fun c -> if c.alive && List.memq c.fd readable then on_readable st c)
      st.conns;
    (* Serve everything admitted this cycle, in admission order. A
       shutdown request flips [draining] mid-cycle but the rest of the
       queue (and every inflight solve) is still answered — graceful
       drain. The gauge samples the post-admission high-water mark,
       before dispatch empties it. *)
    Obs.Metrics.set (queue_depth_g ()) (float_of_int (Queue.length st.queue));
    progress st;
    st.conns <- List.filter (fun c -> c.alive) st.conns;
    Obs.Metrics.set (open_conns_g ()) (float_of_int (List.length st.conns));
    loop st
  end

let check_config cfg =
  if cfg.port < 0 || cfg.port > 65535 then
    Qp_error.invalid_instancef "serve: port must be in 0..65535 (got %d)" cfg.port
  else if cfg.queue_depth < 1 then
    Qp_error.invalid_instancef "serve: queue depth must be >= 1 (got %d)"
      cfg.queue_depth
  else if cfg.jobs < 1 then
    Qp_error.invalid_instancef "serve: jobs must be >= 1 (got %d)" cfg.jobs
  else if cfg.cache_capacity < 0 then
    Qp_error.invalid_instancef "serve: cache capacity must be >= 0 (got %d)"
      cfg.cache_capacity
  else Ok ()

let run ?ready cfg =
  match check_config cfg with
  | Error _ as e -> e
  | Ok () ->
    match
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (try
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port))
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd
    with
    | exception Unix.Unix_error (err, _, _) ->
        Qp_error.invalid_instancef "serve: cannot bind %s:%d (%s)" cfg.host
          cfg.port (Unix.error_message err)
    | exception Failure msg ->
        Qp_error.invalid_instancef "serve: cannot bind %s:%d (%s)" cfg.host
          cfg.port msg
    | listen_fd ->
        Obs.Metrics.set_enabled (reg ()) true;
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        (* cfg.jobs solve workers need a pool of jobs + 1: the event
           loop is the submitting "domain" but never helps drain. *)
        let pool =
          if cfg.jobs = 1 then None
          else Some (Qp_par.Pool.create ~jobs:(cfg.jobs + 1))
        in
        let st =
          {
            cfg;
            listen_fd;
            conns = [];
            queue = Queue.create ();
            draining = false;
            listen_open = true;
            started = Obs.Core.now ();
            live =
              (match Live.of_spec cfg.default_spec with
              | Ok live -> Some live
              | Error _ -> None);
            cache = Lru.create ~capacity:cfg.cache_capacity;
            flights = Hashtbl.create 8;
            inflight_n = 0;
            pool;
            comp_m = Mutex.create ();
            completions = Queue.create ();
            wake_r;
            wake_w;
            loop_domain = Domain.self ();
            cache_hits = 0;
            cache_misses = 0;
            cache_joins = 0;
            evictions_reported = 0;
            slo = Obs.Slo.create ();
            requests_by_verb = Hashtbl.create 8;
            cache_lookups = Hashtbl.create 8;
            latency = lazy (latency_h ());
            queue_wait = lazy (queue_wait_h ());
          }
        in
        let port =
          match Unix.getsockname listen_fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> cfg.port
        in
        Atomic.set sigterm_requested false;
        let old_term =
          Sys.signal Sys.sigterm
            (Sys.Signal_handle (fun _ -> Atomic.set sigterm_requested true))
        in
        let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        Fun.protect
          ~finally:(fun () ->
            finish st;
            if st.listen_open then begin
              st.listen_open <- false;
              try Unix.close st.listen_fd with Unix.Unix_error _ -> ()
            end;
            Option.iter Qp_par.Pool.shutdown st.pool;
            (try Unix.close st.wake_r with Unix.Unix_error _ -> ());
            (try Unix.close st.wake_w with Unix.Unix_error _ -> ());
            Sys.set_signal Sys.sigterm old_term;
            Sys.set_signal Sys.sigpipe old_pipe)
          (fun () ->
            (match ready with Some f -> f port | None -> ());
            loop st;
            Ok ())
