module Obs = Qp_obs
module Json = Qp_obs.Json
module Qp_error = Qp_util.Qp_error
module Rng = Qp_util.Rng
module Stats = Qp_util.Stats

let ( let* ) = Qp_error.( let* )

type config = {
  host : string;
  port : int;
  connections : int;
  duration_s : float;
  mix : (Protocol.verb * float) list;
  spec : Qp_instance.Spec.t option;
  options : Protocol.options;
  seed : int;
  timeout_ms : int option;
  retries : int;
  drop_every : int option;
  trace_requests : bool;
  unique_specs : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = Server.default_config.Server.port;
    connections = 1;
    duration_s = 2.;
    mix = [ (Protocol.Solve, 8.); (Protocol.Info, 1.); (Protocol.Health, 1.) ];
    spec = None;
    options = Protocol.default_options;
    seed = 1;
    timeout_ms = None;
    retries = 3;
    drop_every = None;
    trace_requests = false;
    unique_specs = false;
  }

let mix_of_string s =
  let parse_one acc part =
    match acc with
    | Error _ as e -> e
    | Ok acc -> (
        match String.split_on_char '=' (String.trim part) with
        | [ name; w ] -> (
            match
              (Protocol.verb_of_name (String.trim name), float_of_string_opt w)
            with
            | Ok Protocol.Shutdown, _ ->
                Qp_error.invalid_instancef "mix: shutdown is not a load verb"
            | Ok Protocol.Update, _ ->
                Qp_error.invalid_instancef
                  "mix: update mutates the instance and is not a load verb"
            | Ok verb, Some weight when weight > 0. -> Ok ((verb, weight) :: acc)
            | Ok _, _ ->
                Qp_error.invalid_instancef "mix: weight %S must be positive" w
            | (Error _ as e), _ -> e)
        | _ ->
            Qp_error.invalid_instancef "mix entry %S (expected verb=weight)"
              part)
  in
  match List.fold_left parse_one (Ok []) (String.split_on_char ',' s) with
  | Error _ as e -> e
  | Ok [] -> Qp_error.invalid_instancef "mix must name at least one verb"
  | Ok entries -> Ok (List.rev entries)

type report = {
  connections : int;
  wall_s : float;
  completed : int;
  ok : int;
  rejected : int;
  transport_errors : int;
  reconnects : int;
  retried : int;
  throughput_rps : float;
  latencies_ms : float array;
  by_verb : (string * int) list;
  by_code : (string * int) list;
  sample_outcome : Json.t option;
  phases_ms : (string * float array) list;
}

(* Per-thread tally; merged single-threadedly after the joins, so no
   locking anywhere except the shared sample slot. *)
type tally = {
  mutable completed : int;
  mutable ok : int;
  mutable rejected : int;
  mutable transport_errors : int;
  mutable reconnects : int;
  mutable retried : int;
  mutable latencies : float list;
  verbs : (string, int) Hashtbl.t;
  codes : (string, int) Hashtbl.t;
  phases : (string, float list ref) Hashtbl.t;
      (* server-echoed phase durations in ms, per phase name *)
}

let fresh_tally () =
  {
    completed = 0;
    ok = 0;
    rejected = 0;
    transport_errors = 0;
    reconnects = 0;
    retried = 0;
    latencies = [];
    verbs = Hashtbl.create 8;
    codes = Hashtbl.create 8;
    phases = Hashtbl.create 8;
  }

let add_phase t name ms =
  match Hashtbl.find_opt t.phases name with
  | Some l -> l := ms :: !l
  | None -> Hashtbl.add t.phases name (ref [ ms ])

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let pick_verb rng mix total =
  let x = Rng.float rng total in
  let rec walk acc = function
    | [] -> fst (List.hd mix)
    | (verb, w) :: rest ->
        let acc = acc +. w in
        if x < acc then verb else walk acc rest
  in
  walk 0. mix

(* Workers ride a {!Client.Robust} connection: a dropped connection or
   a restarted server costs a reconnect, not the thread. A failed call
   (retries exhausted) is recorded and the loop keeps going, so a
   crash-recovery run shows service resuming after the restart. *)
let worker cfg ~total_weight ~t_end ~idx ~sample ~sample_lock () =
  let t = fresh_tally () in
  let client =
    Client.Robust.create ~host:cfg.host ?timeout_ms:cfg.timeout_ms
      ~retries:cfg.retries
      ~seed:(cfg.seed + (1000 * idx) + 7)
      ~port:cfg.port ()
  in
  let rng = Rng.create (cfg.seed + (1000 * idx)) in
  let n = ref 0 in
  while Obs.Core.now () < t_end do
    (match cfg.drop_every with
    | Some k when k > 0 && !n > 0 && !n mod k = 0 -> Client.Robust.drop client
    | _ -> ());
    let verb = pick_verb rng cfg.mix total_weight in
    (* Deterministic per-worker trace ids: a rerun with the same seed
       mints the same ids, so client/server JSONL joins are stable. *)
    let trace =
      if cfg.trace_requests then
        Some
          { Protocol.trace_id =
              Printf.sprintf "lg-%d-%d-%d" cfg.seed idx !n;
            parent_span = None }
      else None
    in
    (* [unique_specs] gives every request its own spec seed, so
       neither the placement cache nor single-flight dedup can
       coalesce the work — the run then measures raw solve
       throughput. *)
    let spec =
      match cfg.spec with
      | Some s when cfg.unique_specs ->
          Some
            { s with
              Qp_instance.Spec.seed =
                s.Qp_instance.Spec.seed + (idx * 100_000) + !n }
      | other -> other
    in
    let req =
      Protocol.request
        ~id:(Json.Int ((idx * 1_000_000) + !n))
        ?spec ~options:cfg.options ?trace verb
    in
    incr n;
    let ev =
      match trace with
      | Some tc when Obs.Trace.active Obs.Trace.wide ->
          let ev =
            Obs.Wide.start ~kind:"client_call" ~trace_id:tc.Protocol.trace_id
              ()
          in
          Obs.Wide.set_str ev "verb" (Protocol.verb_name verb);
          Obs.Wide.set_int ev "worker" idx;
          ev
      | _ -> Obs.Wide.start ~kind:"client_call" () (* inert *)
    in
    let t0 = Obs.Core.now () in
    match Client.Robust.call client req with
    | Error _ ->
        t.transport_errors <- t.transport_errors + 1;
        Obs.Wide.finish ~outcome:"transport_error" ev;
        (* The server may be down entirely (crash tests): breathe
           before offering the next request. *)
        Unix.sleepf 0.05
    | Ok resp ->
        let dt_ms = (Obs.Core.now () -. t0) *. 1000. in
        t.completed <- t.completed + 1;
        t.latencies <- dt_ms :: t.latencies;
        bump t.verbs resp.Protocol.verb;
        Obs.Wide.phase ev "call" (dt_ms /. 1000.);
        (match resp.Protocol.timing with
        | Some server_phases ->
            List.iter
              (fun (name, s) ->
                let ms = s *. 1000. in
                add_phase t name ms;
                Obs.Wide.phase ev ("server_" ^ name) s)
              server_phases
        | None -> ());
        (match resp.Protocol.payload with
        | Ok result ->
            t.ok <- t.ok + 1;
            Obs.Wide.finish ~outcome:"ok" ev;
            if verb = Protocol.Solve && Atomic.get sample = None then begin
              Mutex.lock sample_lock;
              if Atomic.get sample = None then Atomic.set sample (Some result);
              Mutex.unlock sample_lock
            end
        | Error e ->
            let code = Protocol.serve_error_code e in
            bump t.codes code;
            Obs.Wide.finish ~outcome:code ev;
            (match e with
            | Protocol.Overloaded _ | Protocol.Deadline_exceeded _ ->
                t.rejected <- t.rejected + 1
            | Protocol.Typed _ -> ()))
  done;
  t.reconnects <- Client.Robust.reconnects client;
  t.retried <- Client.Robust.retried client;
  Client.Robust.close client;
  t

let run (cfg : config) =
  if cfg.connections < 1 then
    Qp_error.invalid_instancef "loadgen: connections must be >= 1"
  else if not (cfg.duration_s > 0.) then
    Qp_error.invalid_instancef "loadgen: duration must be positive"
  else begin
    let total_weight = List.fold_left (fun a (_, w) -> a +. w) 0. cfg.mix in
    if total_weight <= 0. then
      Qp_error.invalid_instancef "loadgen: mix weights must be positive"
    else begin
      let sample = Atomic.make None in
      let sample_lock = Mutex.create () in
      let t_start = Obs.Core.now () in
      let t_end = t_start +. cfg.duration_s in
      let slots = Array.make cfg.connections None in
      let threads =
        List.init cfg.connections (fun idx ->
            Thread.create
              (fun () ->
                slots.(idx) <-
                  Some
                    (worker cfg ~total_weight ~t_end ~idx ~sample ~sample_lock
                       ()))
              ())
      in
      List.iter Thread.join threads;
      let tallies = List.filter_map Fun.id (Array.to_list slots) in
      let wall_s = Obs.Core.now () -. t_start in
      let merged = fresh_tally () in
      List.iter
        (fun t ->
          merged.completed <- merged.completed + t.completed;
          merged.ok <- merged.ok + t.ok;
          merged.rejected <- merged.rejected + t.rejected;
          merged.transport_errors <- merged.transport_errors + t.transport_errors;
          merged.reconnects <- merged.reconnects + t.reconnects;
          merged.retried <- merged.retried + t.retried;
          merged.latencies <- List.rev_append t.latencies merged.latencies;
          Hashtbl.iter
            (fun k v ->
              Hashtbl.replace merged.verbs k
                (v + Option.value ~default:0 (Hashtbl.find_opt merged.verbs k)))
            t.verbs;
          Hashtbl.iter
            (fun k v ->
              Hashtbl.replace merged.codes k
                (v + Option.value ~default:0 (Hashtbl.find_opt merged.codes k)))
            t.codes;
          Hashtbl.iter
            (fun name l -> List.iter (add_phase merged name) !l)
            t.phases)
        tallies;
      if merged.completed = 0 && merged.transport_errors >= cfg.connections
      then
        Qp_error.invalid_instancef
          "loadgen: no connection to %s:%d ever succeeded" cfg.host cfg.port
      else begin
        let sorted_counts tbl =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        Ok
          {
            connections = cfg.connections;
            wall_s;
            completed = merged.completed;
            ok = merged.ok;
            rejected = merged.rejected;
            transport_errors = merged.transport_errors;
            reconnects = merged.reconnects;
            retried = merged.retried;
            throughput_rps =
              (if wall_s > 0. then float_of_int merged.completed /. wall_s
               else 0.);
            latencies_ms = Array.of_list merged.latencies;
            by_verb = sorted_counts merged.verbs;
            by_code = sorted_counts merged.codes;
            sample_outcome = Atomic.get sample;
            phases_ms =
              Hashtbl.fold
                (fun name l acc -> (name, Array.of_list !l) :: acc)
                merged.phases []
              |> List.sort (fun (a, _) (b, _) -> String.compare a b);
          }
      end
    end
  end

let report_to_json r =
  let latency_fields =
    if Array.length r.latencies_ms = 0 then [ ("count", Json.Int 0) ]
    else
      [ ("count", Json.Int (Array.length r.latencies_ms));
        ("mean_ms", Json.Float (Stats.mean r.latencies_ms));
        ("p50_ms", Json.Float (Stats.percentile r.latencies_ms 50.));
        ("p95_ms", Json.Float (Stats.percentile r.latencies_ms 95.));
        ("p99_ms", Json.Float (Stats.percentile r.latencies_ms 99.));
        ("max_ms", Json.Float (Stats.max r.latencies_ms)) ]
  in
  let counts kvs =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)
  in
  Json.Obj
    ([ ("schema", Json.String "qp-loadgen/1");
      ("version", Json.String Obs.Build_info.version);
      ("connections", Json.Int r.connections);
      ("wall_s", Json.Float r.wall_s);
      ("completed", Json.Int r.completed);
      ("ok", Json.Int r.ok);
      ("rejected", Json.Int r.rejected);
      ("transport_errors", Json.Int r.transport_errors);
      ("reconnects", Json.Int r.reconnects);
      ("retried", Json.Int r.retried);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("latency", Json.Obj latency_fields);
      ("by_verb", counts r.by_verb);
      ("by_code", counts r.by_code) ]
    (* The phase breakdown appears only when the run collected server
       timing (trace_requests on), so default reports keep their
       pre-trace shape. *)
    @ (match r.phases_ms with
      | [] -> []
      | phases ->
          [ ( "phases",
              Json.Obj
                (List.map
                   (fun (name, samples) ->
                     ( name,
                       Json.Obj
                         [ ("count", Json.Int (Array.length samples));
                           ("mean_ms", Json.Float (Stats.mean samples));
                           ("p50_ms", Json.Float (Stats.percentile samples 50.));
                           ("p95_ms", Json.Float (Stats.percentile samples 95.));
                           ("p99_ms", Json.Float (Stats.percentile samples 99.))
                         ] ))
                   phases) ) ])
    @ [ ( "sample_outcome",
          match r.sample_outcome with Some j -> j | None -> Json.Null ) ])

(* ------------------------------------------------------------------ *)
(* Saturation sweep                                                    *)
(* ------------------------------------------------------------------ *)

type sweep_config = {
  base : config; (* per-cell settings; host/port/connections overridden *)
  server_spec : Qp_instance.Spec.t;
  server_jobs : int list;
  connections_sweep : int list;
  cache_capacity : int; (* 0 = cache off (pure solve-throughput scaling) *)
  queue_depth : int;
}

type sweep_cell = {
  sw_jobs : int;
  sw_connections : int;
  sw_report : report;
  sw_cache : (string * int) list;
      (* hits/misses/inflight_joins/evictions from the final health *)
}

(* One isolated server per cell: an in-process server thread on an
   ephemeral port, the closed-loop generator against it, a final
   health scrape for the cache counters, then shutdown + join — so
   every cell starts cold and its counters are absolute. *)
let run_cell sc ~jobs ~connections =
  let port_slot = Atomic.make None in
  let server_result = ref (Ok ()) in
  let srv =
    Thread.create
      (fun () ->
        server_result :=
          Server.run
            ~ready:(fun p -> Atomic.set port_slot (Some p))
            { Server.default_config with
              Server.host = "127.0.0.1";
              port = 0;
              queue_depth = sc.queue_depth;
              default_spec = sc.server_spec;
              jobs;
              cache_capacity = sc.cache_capacity })
      ()
  in
  let rec wait_port n =
    match Atomic.get port_slot with
    | Some p -> Ok p
    | None when n > 0 ->
        Unix.sleepf 0.005;
        wait_port (n - 1)
    | None -> Qp_error.invalid_instancef "sweep: server did not come up"
  in
  let finish () =
    (match Atomic.get port_slot with
    | Some port -> (
        match Client.connect ~port () with
        | Ok c ->
            ignore (Client.call c (Protocol.request Protocol.Shutdown));
            Client.close c
        | Error _ -> ())
    | None -> ());
    Thread.join srv
  in
  match
    let* port = wait_port 1000 in
    let* report =
      run { sc.base with host = "127.0.0.1"; port; connections }
    in
    let* health =
      let* c = Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let* resp = Client.call c (Protocol.request Protocol.Health) in
      match resp.Protocol.payload with
      | Ok h -> Ok h
      | Error e ->
          Qp_error.invalid_instancef "sweep: health failed (%s)"
            (Protocol.serve_error_message e)
    in
    let cache =
      match Json.member "solve_cache" health with
      | Some c ->
          List.filter_map
            (fun k ->
              Option.bind (Json.member k c) Json.to_int
              |> Option.map (fun v -> (k, v)))
            [ "hits"; "misses"; "inflight_joins"; "evictions"; "entries" ]
      | None -> []
    in
    Ok { sw_jobs = jobs; sw_connections = connections; sw_report = report;
         sw_cache = cache }
  with
  | result ->
      finish ();
      result
  | exception e ->
      finish ();
      raise e

let sweep sc =
  if sc.server_jobs = [] || sc.connections_sweep = [] then
    Qp_error.invalid_instancef "sweep: server_jobs and connections must be non-empty"
  else
    List.fold_left
      (fun acc jobs ->
        let* acc = acc in
        let* cells =
          List.fold_left
            (fun acc connections ->
              let* acc = acc in
              let* cell = run_cell sc ~jobs ~connections in
              Ok (cell :: acc))
            (Ok []) sc.connections_sweep
        in
        Ok (acc @ List.rev cells))
      (Ok []) sc.server_jobs
