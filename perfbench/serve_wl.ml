(* serve-churn: one qp_serve process (server-jobs 1, cache on, live
   instance waxman n=12 grid:2) driven over one connection by a seeded
   request stream, sent in rounds of ten requests:
   - 90% full-spec solves of hot specs drawn zipf, primed during
     set-up, so they hit the placement cache;
   - 8% spec-less solves of the live instance;
   - 2% updates that re-weight one edge of the live graph, bumping the
     generation so the next live solve misses the cache.
   The benchmark keeps a mirror of the live instance, applying the same
   deltas, to check live placements and to time Live.apply. *)

module Rng = Qp_util.Rng
module Qp_error = Qp_util.Qp_error
module Json = Qp_obs.Json
module Metric = Qp_graph.Metric
module Graph = Qp_graph.Graph
module Spec = Qp_instance.Spec
module Live = Qp_instance.Live
module Delta = Qp_instance.Delta
module Solver = Qp_place.Solver
module Serialize = Qp_place.Serialize
module Protocol = Qp_serve.Protocol
module Client = Qp_serve.Client
module Frame = Qp_serve.Frame
module Layers = Meter.Layers

let hot_count = 32
let zipf_exponent = 1.0
let cache_capacity = 256

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

let running = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  running := List.filter (( <> ) pid) !running

(* Kill whatever is still running when the driver exits, error or not. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !running)

type server = { pid : int; port : int; out : in_channel }

let spawn ~qplace ?metrics_file (live : Spec.t) =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ qplace; "serve"; "--port"; "0"; "--server-jobs"; "1"; "--cache-capacity";
      string_of_int cache_capacity; "--jobs"; "1"; "--topology"; live.topology;
      "--nodes"; string_of_int live.nodes; "--system"; live.system; "--seed";
      string_of_int live.seed ]
    @ match metrics_file with Some f -> [ "--metrics"; f ] | None -> []
  in
  let pid = Unix.create_process qplace (Array.of_list args) Unix.stdin w Unix.stderr in
  running := pid :: !running;
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec ready () =
    match input_line out with
    | line -> (
        match Scanf.sscanf_opt line "serving qp-serve/1 on %_s@:%d" Fun.id with
        | Some port -> port
        | None -> ready ())
    | exception End_of_file -> failwith "qplace serve exited before it was ready"
  in
  { pid; port = ready (); out }

(* ------------------------------------------------------------------ *)
(* The seeded plan: live spec, hot specs, request stream               *)
(* ------------------------------------------------------------------ *)

type plan = {
  live : Spec.t;
  hot : Spec.t array;
  weights : float array; (* zipf over hot ranks *)
  rng : Rng.t; (* the request stream *)
}

let plan ~seed =
  let rng = Rng.create seed in
  let seen = Hashtbl.create 32 in
  let rec spec () =
    let s = 1 + Rng.int rng 1_000_000_000 in
    if Hashtbl.mem seen s then spec ()
    else begin
      Hashtbl.add seen s ();
      { Spec.default with topology = "waxman"; nodes = 12; system = "grid:2"; seed = s; jobs = 1 }
    end
  in
  let live = spec () in
  let hot = Array.init hot_count (fun _ -> spec ()) in
  let weights =
    Array.init hot_count (fun k -> 1. /. (float_of_int (k + 1) ** zipf_exponent))
  in
  { live; hot; weights; rng = Rng.split rng }

(* Offline registry solves of the hot specs: the served bytes must equal
   these. Kept across sessions of one process. *)
let offline : (string, string * float) Hashtbl.t = Hashtbl.create 64

let expected spec =
  let key = Spec.canonical_key spec in
  match Hashtbl.find_opt offline key with
  | Some e -> e
  | None ->
      let p = Result.get_ok (Spec.build spec) in
      let params = Protocol.solver_params spec Protocol.default_options in
      let o =
        match (Solver.find_exn Protocol.default_options.algorithm).Solver.solve params p with
        | Ok o -> o
        | Error e -> failwith ("offline solve: " ^ Qp_error.to_string e)
      in
      let v = Checks.outcome p o in
      if not v.Meter.ok then failwith ("offline solve: " ^ v.Meter.why);
      let text = Json.to_string (Json.of_string (Serialize.outcome_to_string o)) in
      let e = (text, Option.value v.Meter.ratio ~default:1.) in
      Hashtbl.add offline key e;
      e

(* ------------------------------------------------------------------ *)
(* A session: one server, one connection, one mirror                   *)
(* ------------------------------------------------------------------ *)

type session = {
  server : server;
  client : Client.t;
  plan : plan;
  mirror : Live.t;
  base_edges : (int * int * float) array;
  mutable gen : int;
  mutable id : int;
  mutable pending : [ `Hot | `Live | `Update ] list; (* rest of the block *)
}

let request s ?spec ?delta verb =
  s.id <- s.id + 1;
  Protocol.request ~id:(Json.Int s.id) ?spec ?delta verb

let exchange s req =
  let text = Json.to_string (Protocol.request_to_json req) in
  match Client.send_raw s.client text with
  | Error e -> Error e
  | Ok () -> (
      match Client.recv s.client with
      | Ok (Some resp) -> Ok (text, resp)
      | Ok None -> Error (Qp_error.Internal "server closed the connection")
      | Error e -> Error e)

let payload_exn s verb =
  match exchange s (request s verb) with
  | Ok (_, { Protocol.payload = Ok j; _ }) -> j
  | _ -> failwith ("serve: " ^ Protocol.verb_name verb ^ " failed")

let int_at path j =
  let rec go j = function
    | [] -> Json.to_int j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  Option.value (go j path) ~default:0

(* Session-level exact counters: cache hits (health verb) and, when the
   server exports metrics, simplex pivots (metrics verb). *)
let session_counters s =
  let hits = int_at [ "solve_cache"; "hits" ] (payload_exn s Protocol.Health) in
  let body =
    Option.value ~default:""
      (Option.bind (Json.member "body" (payload_exn s Protocol.Metrics)) Json.to_str)
  in
  let pivots =
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf_opt line "qp_simplex_pivots_total %f" Fun.id with
        | Some v -> acc + int_of_float v
        | None -> acc)
      0 (String.split_on_char '\n' body)
  in
  [ ("serve.cache_hits", hits); ("lp.pivots", pivots) ]

let cache_counts s =
  let h = payload_exn s Protocol.Health in
  (int_at [ "solve_cache"; "hits" ] h, int_at [ "solve_cache"; "misses" ] h)

(* Set-up: start the server, connect, prime the cache with every hot
   spec and the live instance. *)
let open_ ~qplace ?metrics_file ~seed () =
  let plan = plan ~seed in
  let server = spawn ~qplace ?metrics_file plan.live in
  let client = Result.get_ok (Client.connect ~port:server.port ()) in
  let mirror = Result.get_ok (Live.of_spec plan.live) in
  let s =
    { server; client; plan; mirror; gen = 0; id = 0; pending = [];
      base_edges = Array.of_list (Graph.edges (Live.graph mirror)) }
  in
  Array.iter
    (fun spec ->
      ignore (expected spec);
      match exchange s (request s ~spec Protocol.Solve) with
      | Ok (_, { Protocol.payload = Ok _; _ }) -> ()
      | _ -> failwith "serve: priming solve failed")
    plan.hot;
  ignore (payload_exn s Protocol.Solve);
  s

let server_pid s = s.server.pid

let close s =
  (match exchange s (request s Protocol.Shutdown) with _ -> ());
  Client.close s.client;
  reap s.server.pid;
  close_in_noerr s.server.out

type kind = Hot of int | Live_solve | Update of Delta.op list

(* The stream runs in shuffled blocks of 50 requests: 45 hot-spec
   solves, 4 live solves and 1 update, so every run has the same mix and
   the same share of cache misses. *)
let block = Array.concat [ Array.make 45 `Hot; Array.make 4 `Live; [| `Update |] ]

(* One operation is a round of [round] requests sent one after another
   on the connection, each once the previous response is in: a client's
   burst of requests, timed as a whole. One round in five holds the cold
   solve that follows an update, so the 90th percentile of round times
   lies in the middle of the solve-bearing rounds and the median in the
   cache-path rounds. Timed one request at a time, 96% of requests are
   cache hits, and the 90th percentile sat in the hit path's scheduling
   tail (0.08-0.1 ms), whose weight moves with the host from run to run
   (IQR 25% of the median over ten seeds on a shared host). *)
let round = 10

let draw s =
  if s.pending = [] then begin
    let b = Array.copy block in
    Rng.shuffle s.plan.rng b;
    s.pending <- Array.to_list b
  end;
  let k = List.hd s.pending in
  s.pending <- List.tl s.pending;
  match k with
  | `Hot -> Hot (Rng.categorical s.plan.rng s.plan.weights)
  | `Live -> Live_solve
  | `Update ->
      let u, v, len = s.base_edges.(Rng.int s.plan.rng (Array.length s.base_edges)) in
      Update [ Delta.Set_edge { u; v; length = len *. (0.5 +. Rng.uniform s.plan.rng) } ]

(* The check of one response, outside the timed region. Updates are
   applied to the mirror here, timed into [layers] when traced. *)
let check s ?layers kind (resp : Protocol.response) =
  match (kind, resp.Protocol.payload) with
  | _, Error e ->
      Meter.fail ("serve: error response " ^ Protocol.serve_error_code e)
  | Hot h, Ok j ->
      let text, ratio = expected s.plan.hot.(h) in
      if String.equal (Json.to_string j) text then Meter.pass ~ratio ()
      else Meter.fail "served placement differs from the offline solve"
  | Live_solve, Ok j -> (
      match Serialize.outcome_of_json j with
      | Error e -> Meter.fail (Qp_error.to_string e)
      | Ok o -> Checks.outcome (Live.problem s.mirror) o)
  | Update ops, Ok j ->
      let _, _, partial0 = Metric.apsp_cache_stats () in
      let applied =
        match layers with
        | Some l -> Layers.time l "instance.live_apply" (fun () -> Live.apply s.mirror ops)
        | None -> Live.apply s.mirror ops
      in
      let _, _, partial1 = Metric.apsp_cache_stats () in
      s.gen <- s.gen + 1;
      if Result.is_error applied then Meter.fail "mirror rejected an update"
      else if int_at [ "generation" ] j <> s.gen then Meter.fail "update generation mismatch"
      else Meter.pass ~counters:[ ("graph.apsp_partial", partial1 - partial0) ] ()

(* The verdict of a round: its requests' checks in request order (the
   mirror follows the updates), the first failure, the mean ratio of
   its solves and the sum of each counter. *)
let check_round checks =
  let rec go ratios counters = function
    | [] ->
        let ratio =
          match ratios with
          | [] -> None
          | l -> Some (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))
        in
        let sum k = List.fold_left (fun a (k', n) -> if k = k' then a + n else a) 0 counters in
        let keys = List.sort_uniq compare (List.map fst counters) in
        Meter.pass ?ratio ~counters:(List.map (fun k -> (k, sum k)) keys) ()
    | c :: rest ->
        let v = c () in
        if not v.Meter.ok then v
        else
          go (Option.fold ~none:ratios ~some:(fun r -> r :: ratios) v.Meter.ratio)
            (v.Meter.counters @ counters) rest
  in
  go [] [] checks

let verb_request s = function
  | Hot h -> request s ~spec:s.plan.hot.(h) Protocol.Solve
  | Live_solve -> request s Protocol.Solve
  | Update delta -> request s ~delta Protocol.Update

(* Send each request of the round in turn; stop at the first transport
   error. [one kind] returns that request's check. *)
let send_round kinds one =
  let rec go acc = function
    | [] -> fun () -> check_round (List.rev acc)
    | kind :: rest -> (
        match one kind with
        | Ok c -> go (c :: acc) rest
        | Error e -> fun () -> Meter.fail (Qp_error.to_string e))
  in
  go [] kinds

let next s () =
  let kinds = List.init round (fun _ -> draw s) in
  {
    Meter.run =
      (fun () ->
        send_round kinds (fun kind ->
            Result.map
              (fun (_, resp) () -> check s kind resp)
              (exchange s (verb_request s kind))));
    traced =
      (fun layers ->
        send_round kinds (fun kind ->
            let req = verb_request s kind in
            let trace = { Protocol.trace_id = Printf.sprintf "perfbench-%d" s.id; parent_span = None } in
            let req = { req with Protocol.trace = Some trace } in
            Result.map
              (fun (text, resp) ->
                (* The server's two protocol steps, timed here on this
                   request's bytes and this response. *)
                ignore (Layers.time layers "serve.parse" (fun () -> Protocol.parse_request text));
                ignore
                  (Layers.time layers "serve.emit" (fun () ->
                       Frame.encode (Json.to_string (Protocol.response_to_json resp))));
                List.iter
                  (fun (phase, secs) ->
                    if phase = "queue" || phase = "handle" then
                      Layers.add layers ("serve." ^ phase) secs)
                  (Option.value resp.Protocol.timing ~default:[]);
                fun () ->
                  (* response bytes without the timing echo, which varies *)
                  let bytes =
                    String.length
                      (Json.to_string
                         (Protocol.response_to_json { resp with Protocol.timing = None }))
                  in
                  let v = check s ~layers kind resp in
                  { v with Meter.counters = ("serve.response_bytes", bytes) :: v.Meter.counters })
              (exchange s req)));
  }
