(* qp_serve: framing, protocol codecs, and in-process client/server
   round-trips. The server runs in a thread on an ephemeral port; the
   tests talk to it over real loopback sockets, so the admission,
   deadline, and drain paths are exercised end to end exactly as a
   remote client would see them. *)

module Obs = Qp_obs
module Json = Qp_obs.Json
module Qp_error = Qp_util.Qp_error
module Spec = Qp_instance.Spec
module Solver = Qp_place.Solver
module Serialize = Qp_place.Serialize
module Frame = Qp_serve.Frame
module Protocol = Qp_serve.Protocol
module Server = Qp_serve.Server
module Client = Qp_serve.Client
module Loadgen = Qp_serve.Loadgen

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Small and fast: grid:2 on 8 waxman nodes solves in ~10ms, so a
   whole suite of round-trips stays well under a second. *)
let test_spec =
  { Spec.topology = "waxman"; nodes = 8; system = "grid:2"; cap_slack = 1.0;
    seed = 3; jobs = 1 }

let get_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Qp_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Frame layer                                                         *)
(* ------------------------------------------------------------------ *)

let test_decoder_byte_by_byte () =
  let payload = {|{"verb":"health"}|} in
  let enc = Frame.encode payload in
  let d = Frame.Decoder.create () in
  let n = Bytes.length enc in
  for i = 0 to n - 2 do
    Frame.Decoder.feed d (Bytes.sub enc i 1) 1;
    match Frame.Decoder.next d with
    | `Await -> ()
    | `Frame _ -> Alcotest.fail "frame completed early"
    | `Error msg -> Alcotest.failf "decoder error mid-frame: %s" msg
  done;
  Frame.Decoder.feed d (Bytes.sub enc (n - 1) 1) 1;
  (match Frame.Decoder.next d with
  | `Frame p -> checks "payload" payload p
  | _ -> Alcotest.fail "expected a complete frame");
  match Frame.Decoder.next d with
  | `Await -> ()
  | _ -> Alcotest.fail "decoder must be empty after the frame"

let test_decoder_pipelined () =
  let p1 = "first" and p2 = {|{"k":[1,2,3]}|} in
  let enc = Bytes.cat (Frame.encode p1) (Frame.encode p2) in
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed d enc (Bytes.length enc);
  (match Frame.Decoder.next d with
  | `Frame p -> checks "first frame" p1 p
  | _ -> Alcotest.fail "expected first frame");
  (match Frame.Decoder.next d with
  | `Frame p -> checks "second frame" p2 p
  | _ -> Alcotest.fail "expected second frame");
  match Frame.Decoder.next d with
  | `Await -> ()
  | _ -> Alcotest.fail "expected Await after both frames"

let test_decoder_oversize_poisons () =
  let d = Frame.Decoder.create ~max_len:8 () in
  let enc = Frame.encode (String.make 100 'x') in
  Frame.Decoder.feed d enc (Bytes.length enc);
  (match Frame.Decoder.next d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "oversize length must be a decoder error");
  match Frame.Decoder.next d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "decoder must stay poisoned"

let test_decoder_negative_length () =
  let d = Frame.Decoder.create () in
  let b = Bytes.make 8 '\xff' in
  Frame.Decoder.feed d b 8;
  match Frame.Decoder.next d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "negative length must be a decoder error"

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let test_error_codec_roundtrip () =
  let cases =
    [ Qp_error.Invalid_instance "bad spec";
      Qp_error.Infeasible "no placement";
      Qp_error.Capacity_violation { node = 3; load = 2.5; cap = 1.0 };
      Qp_error.Internal "pivot budget exceeded" ]
  in
  List.iter
    (fun e ->
      let j = Serialize.error_to_json e in
      match Serialize.error_of_json j with
      | Ok e' ->
          checkb
            (Printf.sprintf "round-trip %s" (Serialize.error_code e))
            true (e = e')
      | Error d -> Alcotest.failf "decode failed: %s" (Qp_error.to_string d))
    cases;
  checks "codes" "invalid_instance,infeasible,capacity_violation,internal"
    (String.concat "," (List.map Serialize.error_code cases))

let test_request_codec () =
  let req =
    Protocol.request ~id:(Json.Int 7) ~spec:test_spec
      ~options:
        { Protocol.default_options with
          Protocol.deadline_ms = Some 250;
          pivot_budget = Some 9 }
      Protocol.Solve
  in
  let j = Protocol.request_to_json req in
  let req' = get_ok "request_of_json" (Protocol.request_of_json j) in
  checkb "id" true (req'.Protocol.id = Json.Int 7);
  checkb "verb" true (req'.Protocol.verb = Protocol.Solve);
  (match req'.Protocol.spec with
  | Some s -> checkb "spec" true (s = test_spec)
  | None -> Alcotest.fail "spec lost");
  checkb "options" true
    (req'.Protocol.options.Protocol.deadline_ms = Some 250
    && req'.Protocol.options.Protocol.pivot_budget = Some 9)

let test_request_defaults_and_errors () =
  let req =
    get_ok "minimal" (Protocol.request_of_json (Json.of_string {|{"verb":"health"}|}))
  in
  checkb "defaults" true
    (req.Protocol.id = Json.Null
    && req.Protocol.spec = None
    && req.Protocol.options = Protocol.default_options);
  (match Protocol.request_of_json (Json.of_string {|{"verb":"explode"}|}) with
  | Error (Qp_error.Invalid_instance _) -> ()
  | _ -> Alcotest.fail "unknown verb must be invalid_instance");
  (match Protocol.request_of_json (Json.of_string {|{"verb":"solve","spec":{"nodes":"many"}}|}) with
  | Error (Qp_error.Invalid_instance _) -> ()
  | _ -> Alcotest.fail "mistyped spec field must be invalid_instance");
  (match
     Protocol.request_of_json
       (Json.of_string {|{"verb":"solve","options":{"pivot_budget":-1}}|})
   with
  | Error (Qp_error.Invalid_instance _) -> ()
  | _ -> Alcotest.fail "negative pivot_budget must be invalid_instance");
  match Protocol.parse_request {|{"id":42,"verb":"nope"}|} with
  | Error (Json.Int 42, _) -> ()
  | _ -> Alcotest.fail "parse_request must recover the id"

let test_delta_codec () =
  let delta =
    [ Qp_instance.Delta.Set_edge { u = 0; v = 1; length = 2.5 };
      Qp_instance.Delta.Remove_edge { u = 2; v = 3 };
      Qp_instance.Delta.Set_capacity { node = 1; cap = 4. };
      Qp_instance.Delta.Set_cap_slack 1.5 ]
  in
  let req = Protocol.request ~id:(Json.Int 9) ~delta Protocol.Update in
  let j = Protocol.request_to_json req in
  let req' = get_ok "update request" (Protocol.request_of_json j) in
  checkb "verb" true (req'.Protocol.verb = Protocol.Update);
  checkb "delta round-trips" true (req'.Protocol.delta = Some delta);
  (* malformed deltas are typed errors, field by field *)
  let bad s =
    match Protocol.request_of_json (Json.of_string s) with
    | Error (Qp_error.Invalid_instance _) -> ()
    | _ -> Alcotest.failf "accepted malformed delta: %s" s
  in
  bad {|{"verb":"update","delta":"not an array"}|};
  bad {|{"verb":"update","delta":[{"op":"set_edge","u":0}]}|};
  bad {|{"verb":"update","delta":[{"op":"warp_core"}]}|};
  bad {|{"verb":"update","delta":[42]}|}

let test_partial_spec_defaults () =
  let base = test_spec in
  let s =
    get_ok "partial spec"
      (Protocol.spec_of_json ~base (Json.of_string {|{"seed":99}|}))
  in
  checkb "only seed overridden" true
    (s = { base with Spec.seed = 99 })

(* ------------------------------------------------------------------ *)
(* In-process server harness                                           *)
(* ------------------------------------------------------------------ *)

let string_contains hay sub =
  let n = String.length sub in
  let rec find i =
    i + n <= String.length hay && (String.sub hay i n = sub || find (i + 1))
  in
  find 0

let with_server ?(tweak = fun c -> c) f =
  let port = Atomic.make 0 in
  let cfg =
    tweak
      { Server.default_config with
        Server.port = 0;
        default_spec = test_spec }
  in
  let result = ref (Ok ()) in
  let th =
    Thread.create
      (fun () -> result := Server.run ~ready:(fun p -> Atomic.set port p) cfg)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  if Atomic.get port = 0 then Alcotest.fail "server never became ready";
  let p = Atomic.get port in
  Fun.protect
    ~finally:(fun () ->
      (match Client.connect ~port:p () with
      | Ok c ->
          ignore (Client.call c (Protocol.request Protocol.Shutdown));
          Client.close c
      | Error _ -> () (* already drained *));
      Thread.join th;
      match !result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "server exit: %s" (Qp_error.to_string e))
    (fun () -> f p)

let call_ok what client req =
  match get_ok what (Client.call client req) with
  | { Protocol.payload = Ok j; _ } -> j
  | { Protocol.payload = Error e; _ } ->
      Alcotest.failf "%s: server error %s: %s" what
        (Protocol.serve_error_code e)
        (Protocol.serve_error_message e)

let call_err what client req =
  match get_ok what (Client.call client req) with
  | { Protocol.payload = Error e; _ } -> e
  | { Protocol.payload = Ok _; _ } ->
      Alcotest.failf "%s: expected an error response" what

let member_string what j key =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "%s: missing string %S" what key

(* ------------------------------------------------------------------ *)
(* End-to-end verbs                                                    *)
(* ------------------------------------------------------------------ *)

let test_all_verbs () =
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* health: status + build version (the --version satellite, served) *)
  let h = call_ok "health" c (Protocol.request ~id:(Json.Int 1) Protocol.Health) in
  checks "health status" "ok" (member_string "health" h "status");
  checks "health version" Obs.Build_info.version (member_string "health" h "version");
  (* info: quorum-system description *)
  let i = call_ok "info" c (Protocol.request ~id:(Json.Int 2) Protocol.Info) in
  checki "info universe"
    (match Json.member "universe" i with Some (Json.Int n) -> n | _ -> -1)
    4;
  (* metrics: well-formed Prometheus text mentioning our series *)
  let m = call_ok "metrics" c (Protocol.request ~id:(Json.Int 3) Protocol.Metrics) in
  let body = member_string "metrics" m "body" in
  checkb "metrics exports request counter" true
    (let re = "qp_serve_requests_total" in
     let len = String.length re in
     let rec find i =
       i + len <= String.length body && (String.sub body i len = re || find (i + 1))
     in
     find 0);
  (* solve: echoes the id and returns a qp-solve/1 outcome *)
  let resp =
    get_ok "solve"
      (Client.call c (Protocol.request ~id:(Json.String "rq") Protocol.Solve))
  in
  checkb "solve id echoed" true (resp.Protocol.id = Json.String "rq");
  match resp.Protocol.payload with
  | Ok j -> checks "outcome schema" "qp-solve/1" (member_string "solve" j "schema")
  | Error e -> Alcotest.failf "solve: %s" (Protocol.serve_error_message e)

(* The acceptance property: a served placement is byte-identical to
   the offline solve of the same spec and options. *)
let test_served_equals_offline () =
  let offline =
    let solver = get_ok "find lp" (Solver.find "lp") in
    let problem = get_ok "build" (Spec.build test_spec) in
    let params = Protocol.solver_params test_spec Protocol.default_options in
    get_ok "offline solve" (solver.Solver.solve params problem)
  in
  let offline_str = Json.to_string (Serialize.outcome_to_json offline) in
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* once against the server's default spec, once with the spec on the
     wire: both must be the same bytes *)
  let served1 = call_ok "solve default" c (Protocol.request Protocol.Solve) in
  let served2 =
    call_ok "solve explicit" c (Protocol.request ~spec:test_spec Protocol.Solve)
  in
  checks "served(default spec) = offline" offline_str (Json.to_string served1);
  checks "served(wire spec) = offline" offline_str (Json.to_string served2)

let test_solve_typed_errors () =
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* unknown algorithm -> invalid_instance, connection stays usable *)
  let e =
    call_err "bad alg" c
      (Protocol.request
         ~options:{ Protocol.default_options with Protocol.algorithm = "nope" }
         Protocol.Solve)
  in
  checks "bad alg code" "invalid_instance" (Protocol.serve_error_code e);
  (* pivot-budget exhaustion -> typed internal error *)
  let e =
    call_err "tiny budget" c
      (Protocol.request
         ~options:{ Protocol.default_options with Protocol.pivot_budget = Some 1 }
         Protocol.Solve)
  in
  checks "pivot budget code" "internal" (Protocol.serve_error_code e);
  checkb "pivot budget message" true
    (let msg = Protocol.serve_error_message e in
     let has sub =
       let n = String.length sub in
       let rec find i =
         i + n <= String.length msg && (String.sub msg i n = sub || find (i + 1))
       in
       find 0
     in
     has "pivot");
  (* and the server is still healthy afterwards *)
  let h = call_ok "health after errors" c (Protocol.request Protocol.Health) in
  checks "still ok" "ok" (member_string "health" h "status")

let test_deadline_zero_rejected () =
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let e =
    call_err "deadline 0" c
      (Protocol.request
         ~options:{ Protocol.default_options with Protocol.deadline_ms = Some 0 }
         Protocol.Solve)
  in
  checks "deadline code" "deadline_exceeded" (Protocol.serve_error_code e)

(* The exhaustive solver on 16 nodes and majority:5:3 enumerates about
   a million placements (seconds of work); a 50 ms request deadline must
   cancel it mid-search and free the server's only worker. *)
let test_exact_deadline_cancels () =
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let e =
    call_err "exact under deadline" c
      (Protocol.request
         ~spec:{ Spec.default with Spec.nodes = 16; system = "majority:5:3"; seed = 1; jobs = 1 }
         ~options:
           { Protocol.default_options with
             Protocol.algorithm = "exact";
             deadline_ms = Some 50 }
         Protocol.Solve)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  checks "deadline code" "deadline_exceeded" (Protocol.serve_error_code e);
  checkb (Printf.sprintf "answered in %.3f s, well under 1 s" elapsed) true (elapsed < 1.)

(* A negative budget is an input error on the wire, not an internal
   "budget exceeded" failure of the solve. *)
let test_negative_pivot_budget_rejected () =
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let e =
    call_err "pivot budget -1" c
      (Protocol.request
         ~options:{ Protocol.default_options with Protocol.pivot_budget = Some (-1) }
         Protocol.Solve)
  in
  checks "pivot budget code" "invalid_instance" (Protocol.serve_error_code e)

(* Out-of-range ports used to wrap silently (70000 bound 4464). *)
let test_config_port_range () =
  let check port = Server.check_config { Server.default_config with Server.port } in
  List.iter
    (fun port ->
      match check port with
      | Error (Qp_error.Invalid_instance _) -> ()
      | _ -> Alcotest.failf "port %d must be rejected" port)
    [ -1; 65536; 70000 ];
  List.iter
    (fun port -> checkb (Printf.sprintf "port %d valid" port) true (check port = Ok ()))
    [ 0; 65535 ]

let test_malformed_gets_reply_not_hangup () =
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  get_ok "send garbage json" (Client.send_raw c "this is not json");
  (match get_ok "recv" (Client.recv c) with
  | Some { Protocol.payload = Error (Protocol.Typed (Qp_error.Invalid_instance _)); _ } ->
      ()
  | Some _ -> Alcotest.fail "expected invalid_instance reply"
  | None -> Alcotest.fail "server hung up instead of replying");
  (* same connection still serves requests *)
  let h = call_ok "health after garbage" c (Protocol.request Protocol.Health) in
  checks "still ok" "ok" (member_string "health" h "status")

(* ------------------------------------------------------------------ *)
(* Live updates                                                        *)
(* ------------------------------------------------------------------ *)

let generation what client =
  let h = call_ok what client (Protocol.request Protocol.Health) in
  match Json.member "generation" h with
  | Some (Json.Int g) -> g
  | _ -> Alcotest.failf "%s: health carries no generation" what

let test_update_verb () =
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  checki "initial generation" 0 (generation "gen0" c);
  let before = call_ok "solve before" c (Protocol.request Protocol.Solve) in
  (* a served solve with no spec is the live instance at generation 0:
     byte-identical to the spec route *)
  let explicit = call_ok "solve spec" c (Protocol.request ~spec:test_spec Protocol.Solve) in
  checks "live gen0 = spec solve" (Json.to_string explicit) (Json.to_string before);
  (* accepted delta: generation bumps, cache is invalidated *)
  let delta = [ Qp_instance.Delta.Set_edge { u = 0; v = 1; length = 9. } ] in
  let u = call_ok "update" c (Protocol.request ~delta Protocol.Update) in
  checki "update reports generation"
    (match Json.member "generation" u with Some (Json.Int g) -> g | _ -> -1)
    1;
  checki "generation after update" 1 (generation "gen1" c);
  let after = call_ok "solve after" c (Protocol.request Protocol.Solve) in
  (* the served solve now matches an offline solve of the mutated
     instance, not of the original spec *)
  let offline =
    let live = get_ok "live" (Qp_instance.Live.of_spec test_spec) in
    get_ok "offline apply" (Qp_instance.Live.apply live delta);
    let solver = get_ok "find lp" (Solver.find "lp") in
    let params = Protocol.solver_params test_spec Protocol.default_options in
    get_ok "offline solve"
      (solver.Solver.solve params (Qp_instance.Live.problem live))
  in
  checks "solve reflects the mutated instance"
    (Json.to_string (Serialize.outcome_to_json offline))
    (Json.to_string after);
  (* repeat solve is served from the refreshed cache: same bytes *)
  let again = call_ok "solve cached" c (Protocol.request Protocol.Solve) in
  checks "cached solve identical" (Json.to_string after) (Json.to_string again);
  (* the stranded generation's lookup series are dropped with it; the
     current generation's are exported *)
  let body =
    member_string "metrics" (call_ok "metrics" c (Protocol.request Protocol.Metrics)) "body"
  in
  checkb "generation 0 series dropped" false (string_contains body {|generation="0"|});
  checkb "generation 1 series exported" true (string_contains body {|generation="1"|});
  (* rejected deltas leave the generation alone *)
  let reject what delta =
    let e = call_err what c (Protocol.request ?delta Protocol.Update) in
    checks (what ^ " code") "invalid_instance" (Protocol.serve_error_code e);
    checki (what ^ " generation unchanged") 1 (generation what c)
  in
  reject "missing delta" None;
  reject "empty delta" (Some []);
  reject "out-of-range node"
    (Some [ Qp_instance.Delta.Set_capacity { node = 99; cap = 1. } ])

(* Fuzz: random — frequently malformed — update deltas never crash the
   server, and a rejected delta never moves the generation (Live.apply
   is all-or-nothing). *)
let fuzz_update_port = Atomic.make 0

let rand_delta_json rng =
  let rand_op () =
    match Qp_util.Rng.int rng 8 with
    | 0 ->
        Json.Obj
          [ ("op", Json.String "set_edge"); ("u", Json.Int (Qp_util.Rng.int rng 8));
            ("v", Json.Int (Qp_util.Rng.int rng 8));
            ("length", Json.Float (Qp_util.Rng.float rng 4. -. 1.)) ]
    | 1 ->
        Json.Obj
          [ ("op", Json.String "remove_edge"); ("u", Json.Int (Qp_util.Rng.int rng 10));
            ("v", Json.Int (Qp_util.Rng.int rng 10)) ]
    | 2 ->
        Json.Obj
          [ ("op", Json.String "set_capacity");
            ("node", Json.Int (Qp_util.Rng.int rng 12 - 2));
            ("cap", Json.Float (Qp_util.Rng.float rng 5. -. 1.)) ]
    | 3 ->
        Json.Obj
          [ ("op", Json.String "set_cap_slack");
            ("slack", Json.Float (Qp_util.Rng.float rng 3. -. 0.5)) ]
    | 4 -> Json.Obj [ ("op", Json.String "set_edge"); ("u", Json.Int 0) ]
    | 5 -> Json.Obj [ ("op", Json.String "warp_core") ]
    | 6 -> Json.Int 42
    | _ ->
        Json.Obj
          [ ("op", Json.String "set_edge"); ("u", Json.Int 3); ("v", Json.Int 3);
            ("length", Json.Float 1.) ]
  in
  match Qp_util.Rng.int rng 10 with
  | 0 -> Json.String "not an array"
  | 1 -> Json.List []
  | _ -> Json.List (List.init (1 + Qp_util.Rng.int rng 3) (fun _ -> rand_op ()))

let fuzz_update_survives =
  QCheck.Test.make ~count:40
    ~name:"serve: fuzzed update deltas never crash or corrupt the instance"
    QCheck.small_int (fun seed ->
      match Atomic.get fuzz_update_port with
      | 0 -> QCheck.Test.fail_report "fuzz server not running"
      | port ->
          let rng = Qp_util.Rng.create (seed + 31) in
          let c =
            match Client.connect ~port () with
            | Ok c -> c
            | Error e ->
                QCheck.Test.fail_reportf "connect: %s" (Qp_error.to_string e)
          in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let gen_before = generation "fuzz before" c in
          let payload =
            Json.to_string
              (Json.Obj
                 [ ("verb", Json.String "update"); ("delta", rand_delta_json rng) ])
          in
          ignore (Client.send_raw c payload);
          let accepted =
            match get_ok "fuzz recv" (Client.recv c) with
            | Some { Protocol.payload = Ok _; _ } -> true
            | Some { Protocol.payload = Error _; _ } -> false
            | None -> QCheck.Test.fail_report "server hung up on an update"
          in
          let gen_after = generation "fuzz after" c in
          (* generation moves iff the delta was accepted, and the
             instance still solves either way *)
          gen_after = gen_before + (if accepted then 1 else 0)
          && match Client.call c (Protocol.request Protocol.Solve) with
             | Ok { Protocol.payload = Ok _; _ } -> true
             | _ -> false)

let test_update_fuzz () =
  with_server @@ fun port ->
  Atomic.set fuzz_update_port port;
  Fun.protect ~finally:(fun () -> Atomic.set fuzz_update_port 0) @@ fun () ->
  QCheck.Test.check_exn fuzz_update_survives

(* ------------------------------------------------------------------ *)
(* Robust client                                                       *)
(* ------------------------------------------------------------------ *)

let test_robust_client_reconnects () =
  with_server @@ fun port ->
  let r = Client.Robust.create ~port ~timeout_ms:2000 ~retries:2 () in
  Fun.protect ~finally:(fun () -> Client.Robust.close r) @@ fun () ->
  (match Client.Robust.call r (Protocol.request Protocol.Health) with
  | Ok { Protocol.payload = Ok _; _ } -> ()
  | _ -> Alcotest.fail "first health failed");
  checki "no reconnects yet" 0 (Client.Robust.reconnects r);
  (* kill the connection under the client's feet: the next call must
     transparently reconnect and succeed *)
  Client.Robust.drop r;
  (match Client.Robust.call r (Protocol.request Protocol.Health) with
  | Ok { Protocol.payload = Ok _; _ } -> ()
  | _ -> Alcotest.fail "health after drop failed");
  checki "one reconnect" 1 (Client.Robust.reconnects r)

let test_robust_client_gives_up () =
  (* a port with no listener: every attempt fails, the typed error
     surfaces after the retry budget instead of hanging *)
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close fd;
  let r = Client.Robust.create ~port ~timeout_ms:200 ~retries:1 ~backoff_ms:1. () in
  Fun.protect ~finally:(fun () -> Client.Robust.close r) @@ fun () ->
  match Client.Robust.call r (Protocol.request Protocol.Health) with
  | Error _ -> checki "retried once" 1 (Client.Robust.retried r)
  | Ok _ -> Alcotest.fail "call to a dead port succeeded"

(* ------------------------------------------------------------------ *)
(* Admission control and drain                                         *)
(* ------------------------------------------------------------------ *)

(* Raw pipelined burst on one socket: all frames land in the server's
   read buffer together, so the admission decision is deterministic. *)
let burst port payloads =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  let buf = Buffer.create 256 in
  List.iter (fun p -> Buffer.add_bytes buf (Frame.encode p)) payloads;
  let b = Buffer.to_bytes buf in
  let n = Unix.write fd b 0 (Bytes.length b) in
  checki "burst written in one call" (Bytes.length b) n;
  fd

let read_responses fd n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Frame.read fd with
      | Some payload ->
          let j = Json.of_string payload in
          go (get_ok "response_of_json" (Protocol.response_of_json j) :: acc)
            (k - 1)
      | None -> Alcotest.failf "EOF after %d responses" (n - k)
  in
  go [] n

let solve_req id =
  Json.to_string
    (Protocol.request_to_json (Protocol.request ~id:(Json.Int id) Protocol.Solve))

let test_queue_full_rejection () =
  with_server ~tweak:(fun c -> { c with Server.queue_depth = 1 })
  @@ fun port ->
  let fd = burst port [ solve_req 1; solve_req 2; solve_req 3 ] in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let resps = read_responses fd 3 in
  let by_id id =
    match List.find_opt (fun r -> r.Protocol.id = Json.Int id) resps with
    | Some r -> r
    | None -> Alcotest.failf "no response for id %d" id
  in
  (* the first request of the burst is admitted and solved... *)
  (match (by_id 1).Protocol.payload with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "admitted request failed: %s" (Protocol.serve_error_message e));
  (* ...the overflow is rejected immediately with the typed code *)
  List.iter
    (fun id ->
      match (by_id id).Protocol.payload with
      | Error (Protocol.Overloaded _) -> ()
      | _ -> Alcotest.failf "id %d should be overloaded" id)
    [ 2; 3 ];
  (* rejections are written during the read phase, before the solve *)
  match List.map (fun r -> r.Protocol.id) resps with
  | [ Json.Int 2; Json.Int 3; Json.Int 1 ] -> ()
  | _ -> Alcotest.fail "rejections must precede the admitted reply on the wire"

let test_graceful_drain_ordering () =
  with_server @@ fun port ->
  let shutdown_req =
    Json.to_string
      (Protocol.request_to_json (Protocol.request ~id:(Json.Int 2) Protocol.Shutdown))
  in
  let health_req =
    Json.to_string
      (Protocol.request_to_json (Protocol.request ~id:(Json.Int 3) Protocol.Health))
  in
  let fd = burst port [ solve_req 1; shutdown_req; health_req ] in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let resps = read_responses fd 3 in
  (* everything admitted before the shutdown is answered, in order *)
  (match List.map (fun r -> (r.Protocol.id, Result.is_ok r.Protocol.payload)) resps with
  | [ (Json.Int 1, true); (Json.Int 2, true); (Json.Int 3, true) ] -> ()
  | _ -> Alcotest.fail "drain must answer the whole admitted queue in order");
  (* the health request dispatched after shutdown reports draining *)
  (match (List.nth resps 2).Protocol.payload with
  | Ok j -> checks "draining status" "draining" (member_string "drain" j "status")
  | Error _ -> Alcotest.fail "health during drain failed");
  (* then the server closes the connection... *)
  (match Frame.read fd with
  | None -> ()
  | Some _ -> Alcotest.fail "expected EOF after drain");
  (* ...and stops listening *)
  match Client.connect ~port () with
  | Error _ -> ()
  | Ok c ->
      (* accept backlog may race the close; a dead socket is also fine *)
      let alive =
        match Client.call c (Protocol.request Protocol.Health) with
        | Ok _ -> true
        | Error _ -> false
      in
      Client.close c;
      checkb "no service after drain" false alive

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation                                            *)
(* ------------------------------------------------------------------ *)

let test_simplex_deadline_cancels () =
  (* Deterministic via the fake clock: the deadline is already in the
     past when the solver starts, so the very first pivot-loop check
     must abort with a typed internal error. *)
  Obs.Core.set_clock (fun () -> 100.);
  Fun.protect
    ~finally:(fun () ->
      Qp_lp.Simplex.set_deadline None;
      Obs.Core.default_clock ())
  @@ fun () ->
  Qp_lp.Simplex.set_deadline (Some 50.);
  let solver = get_ok "find lp" (Solver.find "lp") in
  let problem = get_ok "build" (Spec.build test_spec) in
  let params = Protocol.solver_params test_spec Protocol.default_options in
  match solver.Solver.solve params problem with
  | Error (Qp_error.Internal msg) ->
      checkb "mentions deadline" true
        (let sub = "deadline" in
         let n = String.length sub in
         let rec find i =
           i + n <= String.length msg
           && (String.sub msg i n = sub || find (i + 1))
         in
         find 0)
  | Ok _ -> Alcotest.fail "expired deadline must cancel the solve"
  | Error e -> Alcotest.failf "wrong error: %s" (Qp_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Fuzz: arbitrary bytes never kill the server                         *)
(* ------------------------------------------------------------------ *)

let fuzz_port = Atomic.make 0

let fuzz_server_survives =
  QCheck.Test.make ~count:20 ~name:"serve: arbitrary frames never crash the server"
    QCheck.(string_of_size (Gen.int_range 0 2048))
    (fun garbage ->
      match Atomic.get fuzz_port with
      | 0 -> QCheck.Test.fail_report "fuzz server not running"
      | port ->
          (* framed garbage payload on its own connection *)
          (match Client.connect ~port () with
          | Ok c ->
              ignore (Client.send_raw c garbage);
              ignore (Client.recv c);
              Client.close c
          | Error _ -> ());
          (* raw unframed garbage too *)
          (try
             let fd =
               Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0
             in
             Unix.connect fd
               (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
             let b = Bytes.of_string garbage in
             if Bytes.length b > 0 then
               ignore (Unix.write fd b 0 (Bytes.length b));
             Unix.close fd
           with Unix.Unix_error _ -> ());
          (* the server must still answer a well-formed health check *)
          let c' =
            match Client.connect ~port () with
            | Ok c -> c
            | Error e ->
                QCheck.Test.fail_reportf "reconnect failed: %s"
                  (Qp_error.to_string e)
          in
          let ok =
            match Client.call c' (Protocol.request Protocol.Health) with
            | Ok { Protocol.payload = Ok _; _ } -> true
            | _ -> false
          in
          Client.close c';
          ok)

let test_fuzz () =
  with_server @@ fun port ->
  Atomic.set fuzz_port port;
  Fun.protect ~finally:(fun () -> Atomic.set fuzz_port 0) @@ fun () ->
  QCheck.Test.check_exn fuzz_server_survives

(* ------------------------------------------------------------------ *)
(* Loadgen                                                             *)
(* ------------------------------------------------------------------ *)

let test_mix_of_string () =
  (match Loadgen.mix_of_string "solve=8,info=1,health=1" with
  | Ok [ (Protocol.Solve, 8.); (Protocol.Info, 1.); (Protocol.Health, 1.) ] -> ()
  | Ok _ -> Alcotest.fail "wrong mix"
  | Error e -> Alcotest.failf "mix: %s" (Qp_error.to_string e));
  (match Loadgen.mix_of_string "shutdown=1" with
  | Error (Qp_error.Invalid_instance _) -> ()
  | _ -> Alcotest.fail "shutdown must be rejected in a mix");
  match Loadgen.mix_of_string "solve=-1" with
  | Error (Qp_error.Invalid_instance _) -> ()
  | _ -> Alcotest.fail "negative weight must be rejected"

let test_loadgen_against_server () =
  with_server @@ fun port ->
  let cfg =
    { Loadgen.default_config with
      Loadgen.port;
      connections = 2;
      duration_s = 0.4;
      spec = Some test_spec;
      seed = 42 }
  in
  let report = get_ok "loadgen" (Loadgen.run cfg) in
  checkb "completed requests" true (report.Loadgen.completed > 0);
  checki "no transport errors" 0 report.Loadgen.transport_errors;
  checki "latencies recorded" report.Loadgen.completed
    (Array.length report.Loadgen.latencies_ms);
  (* report JSON is a qp-loadgen/1 document *)
  let j = Loadgen.report_to_json report in
  checks "report schema" "qp-loadgen/1" (member_string "report" j "schema");
  match report.Loadgen.sample_outcome with
  | Some outcome ->
      checks "sample outcome schema" "qp-solve/1"
        (member_string "sample" outcome "schema")
  | None -> Alcotest.fail "solve-heavy mix must capture a sample outcome"

(* ------------------------------------------------------------------ *)
(* Trace propagation, timing echo, and wide-event observability        *)
(* ------------------------------------------------------------------ *)

let test_trace_and_timing_codec () =
  let trace = { Protocol.trace_id = "t-7"; parent_span = Some "s-1" } in
  let req = Protocol.request ~id:(Json.Int 1) ~trace Protocol.Health in
  let req' =
    get_ok "request" (Protocol.request_of_json (Protocol.request_to_json req))
  in
  checkb "trace round-trips" true (req'.Protocol.trace = Some trace);
  (* a request without a context adds no key at all *)
  let plain = Protocol.request ~id:(Json.Int 1) Protocol.Health in
  checkb "no trace key" true
    (Json.member "trace" (Protocol.request_to_json plain) = None);
  (* response timing round-trips; absent timing adds no key *)
  let resp =
    Protocol.response
      ~timing:[ ("parse", 0.001); ("queue", 0.002) ]
      ~id:(Json.Int 1) ~verb:"health"
      (Ok (Json.Obj []))
  in
  let j = Protocol.response_to_json resp in
  let resp' = get_ok "response" (Protocol.response_of_json j) in
  checkb "timing round-trips" true
    (resp'.Protocol.timing = Some [ ("parse", 0.001); ("queue", 0.002) ]);
  let bare = Protocol.response ~id:(Json.Int 1) ~verb:"health" (Ok (Json.Obj [])) in
  checkb "no timing key" true
    (Json.member "timing" (Protocol.response_to_json bare) = None);
  match
    Protocol.response_of_json
      (Json.of_string {|{"id":1,"verb":"health","ok":{},"timing":{"parse":"x"}}|})
  with
  | Error (Qp_error.Invalid_instance _) -> ()
  | _ -> Alcotest.fail "mistyped timing must be invalid_instance"

(* The tree writer's bytes for one response: every frame the server
   writes must equal them. *)
let tree_bytes ?timing ~id ~verb payload =
  Json.to_string
    (Protocol.response_to_json (Protocol.response ?timing ~id ~verb payload))

(* Random responses: results and ids of any shape (floats from raw
   bits, strings with control and non-ASCII bytes), optional timings,
   and each kind of error. The writer the server uses must give the
   tree writer's bytes. *)
let response_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:(oneof [ char_range '\000' '\255'; printable ]) (int_range 0 6) in
  let float = oneof [ map Int64.float_of_bits ui64; float_range (-1e3) 1e3 ] in
  let scalar =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int; map (fun f -> Json.Float f) float;
        map (fun s -> Json.String s) str ]
  in
  let json =
    fix
      (fun self depth ->
        if depth = 0 then scalar
        else
          frequency
            [ (2, scalar);
              (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (depth - 1))));
              ( 1,
                map (fun kv -> Json.Obj kv)
                  (list_size (int_range 0 4) (pair str (self (depth - 1)))) ) ])
  in
  let error =
    oneof
      [ map (fun m -> Protocol.Overloaded m) str;
        map (fun m -> Protocol.Deadline_exceeded m) str;
        map (fun m -> Protocol.Typed (Qp_error.Invalid_instance m)) str;
        map (fun m -> Protocol.Typed (Qp_error.Infeasible m)) str;
        map (fun m -> Protocol.Typed (Qp_error.Internal m)) str;
        map3
          (fun node load cap -> Protocol.Typed (Qp_error.Capacity_violation { node; load; cap }))
          small_nat float float ]
  in
  let payload =
    frequency [ (3, map (fun r -> Ok r) (json 3)); (1, map (fun e -> Error e) error) ]
  in
  let timing = opt (list_size (int_range 0 3) (pair str float)) in
  map3 (fun (id, verb) timing payload -> (id, verb, timing, payload))
    (pair (json 1) str) timing payload

let prop_writer_equals_tree_writer =
  QCheck.Test.make ~name:"response writer = tree writer" ~count:500
    (QCheck.make
       ~print:(fun (id, verb, timing, payload) -> tree_bytes ?timing ~id ~verb payload)
       response_gen)
    (fun (id, verb, timing, payload) ->
      Protocol.encode_response ?timing ~id ~verb (Result.map Json.to_string payload)
      = tree_bytes ?timing ~id ~verb payload)

let with_wide_sink f =
  let sink, read = Obs.Trace.memory () in
  Fun.protect
    ~finally:(fun () -> Obs.Trace.uninstall Obs.Trace.wide)
    (fun () ->
      Obs.Trace.install Obs.Trace.wide sink;
      f read)

let test_trace_propagation_end_to_end () =
  with_wide_sink @@ fun read ->
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* traced request: the response echoes phase timing... *)
  let trace = { Protocol.trace_id = "client-trace-1"; parent_span = None } in
  let resp =
    get_ok "traced solve"
      (Client.call c (Protocol.request ~id:(Json.Int 1) ~trace Protocol.Solve))
  in
  checkb "solve ok" true (Result.is_ok resp.Protocol.payload);
  (match resp.Protocol.timing with
  | Some timing ->
      List.iter
        (fun phase ->
          checkb (phase ^ " echoed") true (List.mem_assoc phase timing);
          checkb (phase ^ " sane") true (List.assoc phase timing >= 0.))
        [ "parse"; "queue"; "handle" ]
  | None -> Alcotest.fail "traced request must carry a timing echo");
  (* ...an untraced request must not (byte-identical default shape) *)
  let resp' =
    get_ok "plain solve" (Client.call c (Protocol.request ~id:(Json.Int 2) Protocol.Solve))
  in
  checkb "no timing on untraced" true (resp'.Protocol.timing = None);
  checkb "no timing key on the wire" true
    (Json.member "timing" (Protocol.response_to_json resp') = None);
  (* the server's wide event adopted the client's trace id and timed
     every phase of the request's life *)
  let wides =
    List.filter
      (fun r ->
        Option.bind (Json.member "type" r) Json.to_str = Some "wide"
        && Option.bind (Json.member "kind" r) Json.to_str = Some "serve_request")
      (read ())
  in
  match
    List.find_opt
      (fun r ->
        Option.bind (Json.member "trace_id" r) Json.to_str = Some "client-trace-1")
      wides
  with
  | None -> Alcotest.fail "no server wide event joined the client trace id"
  | Some r ->
      checks "verb attr" "solve" (member_string "wide" r "verb");
      checks "outcome" "ok" (member_string "wide" r "outcome");
      let phases = Option.get (Json.member "phases" r) in
      List.iter
        (fun phase ->
          checkb (phase ^ " phase present") true
            (match Option.bind (Json.member phase phases) Json.to_float with
            | Some d -> d >= 0.
            | None -> false))
        [ "parse"; "queue"; "handle"; "serialize"; "write" ]

let test_health_and_metrics_observability () =
  with_server @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* prime the solve cache: one miss, then one hit *)
  ignore (call_ok "solve 1" c (Protocol.request Protocol.Solve));
  ignore (call_ok "solve 2" c (Protocol.request Protocol.Solve));
  let h = call_ok "health" c (Protocol.request Protocol.Health) in
  checki "idle queue" 0
    (match Json.member "queue_len" h with Some (Json.Int n) -> n | _ -> -1);
  (match Json.member "solve_cache" h with
  | Some cache ->
      let get k =
        match Option.bind (Json.member k cache) Json.to_int with
        | Some n -> n
        | None -> Alcotest.failf "solve_cache missing %s" k
      in
      checkb "hits and misses counted" true (get "hits" >= 1 && get "misses" >= 1)
  | None -> Alcotest.fail "health must report the solve cache");
  (match Json.member "slo" h with
  | Some slo ->
      (match Json.member "windows" slo with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "slo must report windows");
      checkb "no burn while healthy" true
        (match Json.member "windows" slo with
        | Some (Json.List ws) ->
            List.for_all
              (fun w ->
                match Option.bind (Json.member "burn_rate" w) Json.to_float with
                | Some b -> b = 0.
                | None -> false)
              ws
        | _ -> false)
  | None -> Alcotest.fail "health must report slo state");
  let m = call_ok "metrics" c (Protocol.request Protocol.Metrics) in
  let body = member_string "metrics" m "body" in
  let has sub =
    let n = String.length sub in
    let rec find i =
      i + n <= String.length body && (String.sub body i n = sub || find (i + 1))
    in
    find 0
  in
  checkb "uptime gauge" true (has "process_uptime_seconds");
  checkb "build info gauge" true
    (has ("qp_build_info{version=\"" ^ Obs.Build_info.version ^ "\"} 1"));
  checkb "queue-wait histogram" true (has "qp_serve_queue_wait_seconds")

(* ------------------------------------------------------------------ *)
(* Pooled dispatch and the placement cache                              *)
(* ------------------------------------------------------------------ *)

let connect_raw port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let send_frame fd payload =
  let b = Frame.encode payload in
  checki "frame written in one call" (Bytes.length b)
    (Unix.write fd b 0 (Bytes.length b))

let read_raw fd =
  match Frame.read fd with
  | Some p -> p
  | None -> Alcotest.fail "unexpected EOF"

let solve_req_spec id seed =
  Json.to_string
    (Protocol.request_to_json
       (Protocol.request ~id:(Json.Int id)
          ~spec:{ test_spec with Spec.seed }
          Protocol.Solve))

(* Health-reported cache counters, read over a fresh connection (the
   health verb itself never touches the solve cache). *)
let cache_counters port =
  let c = get_ok "counters connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let h = call_ok "counters health" c (Protocol.request Protocol.Health) in
  match Json.member "solve_cache" h with
  | Some cache ->
      fun k ->
        (match Option.bind (Json.member k cache) Json.to_int with
        | Some n -> n
        | None -> Alcotest.failf "solve_cache missing %s" k)
  | None -> Alcotest.fail "health must report the solve cache"

let test_cache_hit_serves_identical_bytes () =
  with_server @@ fun port ->
  let fd = connect_raw port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* sequential identical solves: the first misses and fills the
     cache, the second is answered from it — same bytes on the wire *)
  let req = solve_req 1 in
  send_frame fd req;
  let fresh = read_raw fd in
  send_frame fd req;
  let cached = read_raw fd in
  checks "cache hit = fresh bytes" fresh cached;
  let g = cache_counters port in
  checki "one miss" 1 (g "misses");
  checki "one hit" 1 (g "hits");
  checki "one entry" 1 (g "entries")

let test_single_flight_dedup () =
  with_server ~tweak:(fun c -> { c with Server.jobs = 4 }) @@ fun port ->
  (* two identical solves land in the server's read buffer together;
     dispatch sends the first to a worker and the second must join its
     flight rather than solve again *)
  let fd = burst port [ solve_req 1; solve_req 2 ] in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let resps = read_responses fd 2 in
  (match
     List.map (fun r -> (r.Protocol.id, Result.is_ok r.Protocol.payload)) resps
   with
  | [ (Json.Int 1, true); (Json.Int 2, true) ] -> ()
  | _ -> Alcotest.fail "both pipelined solves must succeed, in order");
  let payload r =
    match r.Protocol.payload with
    | Ok j -> Json.to_string j
    | Error _ -> Alcotest.fail "expected ok payload"
  in
  checks "identical payloads" (payload (List.nth resps 0))
    (payload (List.nth resps 1));
  let g = cache_counters port in
  checki "one solve ran" 1 (g "misses");
  checki "the second was absorbed" 1 (g "hits" + g "inflight_joins")

let test_cache_eviction_bound () =
  with_server ~tweak:(fun c -> { c with Server.cache_capacity = 2 })
  @@ fun port ->
  let c = get_ok "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let solve_seed seed =
    ignore
      (call_ok
         (Printf.sprintf "solve seed %d" seed)
         c
         (Protocol.request ~spec:{ test_spec with Spec.seed } Protocol.Solve))
  in
  List.iter solve_seed [ 11; 12; 13 ];
  let g = cache_counters port in
  checki "three distinct misses" 3 (g "misses");
  checki "entries bounded by capacity" 2 (g "entries");
  checki "one capacity eviction" 1 (g "evictions");
  (* the evicted (least-recently-used) key must miss again *)
  solve_seed 11;
  let g = cache_counters port in
  checki "evicted key re-misses" 4 (g "misses");
  checki "still bounded" 2 (g "entries");
  (* the eviction counter is exported as a monotone Prometheus series *)
  let m = call_ok "metrics" c (Protocol.request Protocol.Metrics) in
  let body = member_string "metrics" m "body" in
  checkb "evictions series exported" true
    (string_contains body "qp_serve_solve_cache_evictions_total")

let test_pooled_deadline_cancellation () =
  with_server ~tweak:(fun c -> { c with Server.jobs = 4 }) @@ fun port ->
  (* A carries a 1 ms budget that its solve cannot meet (16 nodes,
     grid:3: some 300 ms, and LP blocks above the size the block cache
     keeps, so no earlier solve makes it faster) — it must come back
     deadline_exceeded (cancelled mid-solve on its worker, or at
     dispatch if the queue already ate the budget). B runs
     concurrently with no deadline on another worker and must be
     untouched: the deadline is domain-local, not process-global. *)
  let fd_a = connect_raw port and fd_b = connect_raw port in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ fd_a; fd_b ])
  @@ fun () ->
  let req_a =
    Json.to_string
      (Protocol.request_to_json
         (Protocol.request ~id:(Json.Int 1)
            ~spec:{ test_spec with Spec.nodes = 16; system = "grid:3" }
            ~options:
              { Protocol.default_options with Protocol.deadline_ms = Some 1 }
            Protocol.Solve))
  in
  send_frame fd_a req_a;
  send_frame fd_b (solve_req_spec 2 77);
  (match (List.hd (read_responses fd_b 1)).Protocol.payload with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "concurrent no-deadline solve was cancelled: %s"
        (Protocol.serve_error_message e));
  (match (List.hd (read_responses fd_a 1)).Protocol.payload with
  | Error (Protocol.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "a 1 ms budget must cancel the solve"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Protocol.serve_error_code e));
  (* the worker that cancelled is reusable: a fresh solve succeeds *)
  send_frame fd_a (solve_req 3);
  match (List.hd (read_responses fd_a 1)).Protocol.payload with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "server unhealthy after cancellation: %s"
        (Protocol.serve_error_message e)

let test_drain_with_inflight_pooled_solves () =
  with_server ~tweak:(fun c -> { c with Server.jobs = 4 }) @@ fun port ->
  (* three distinct-spec solves go inflight on worker domains, then a
     shutdown lands behind them: the drain must wait for every pooled
     solve and the responses must still arrive in request order *)
  let shutdown_req =
    Json.to_string
      (Protocol.request_to_json
         (Protocol.request ~id:(Json.Int 4) Protocol.Shutdown))
  in
  let fd =
    burst port
      [ solve_req_spec 1 31; solve_req_spec 2 32; solve_req_spec 3 33;
        shutdown_req ]
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let resps = read_responses fd 4 in
  (match
     List.map (fun r -> (r.Protocol.id, Result.is_ok r.Protocol.payload)) resps
   with
  | [ (Json.Int 1, true); (Json.Int 2, true); (Json.Int 3, true);
      (Json.Int 4, true) ] ->
      ()
  | _ ->
      Alcotest.fail
        "drain must answer every inflight pooled solve, in request order");
  match Frame.read fd with
  | None -> ()
  | Some _ -> Alcotest.fail "expected EOF after drain"

let test_served_bytes_identical_across_jobs () =
  let serve_twice jobs =
    with_server ~tweak:(fun c -> { c with Server.jobs }) @@ fun port ->
    let fd = connect_raw port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    send_frame fd (solve_req 1);
    let fresh = read_raw fd in
    send_frame fd (solve_req 1);
    let cached = read_raw fd in
    (fresh, cached)
  in
  let f1, c1 = serve_twice 1 in
  let f4, c4 = serve_twice 4 in
  checks "cache hit = fresh (jobs=1)" f1 c1;
  checks "cache hit = fresh (jobs=4)" f4 c4;
  checks "jobs=4 = jobs=1 on the wire" f1 f4

(* A frame whose payload the test cannot predict (an error message,
   the uptime in a health report) must still be the tree writer's
   bytes of the response it parses to. *)
let check_tree_bytes what raw =
  let r = get_ok what (Protocol.response_of_json (Json.of_string raw)) in
  checks what (tree_bytes ?timing:r.Protocol.timing ~id:r.Protocol.id
                 ~verb:r.Protocol.verb r.Protocol.payload) raw;
  r

let test_served_bytes_equal_tree_writer () =
  let offline =
    let solver = get_ok "find lp" (Solver.find "lp") in
    let problem = get_ok "build" (Spec.build test_spec) in
    let params = Protocol.solver_params test_spec Protocol.default_options in
    Serialize.outcome_to_json (get_ok "offline solve" (solver.Solver.solve params problem))
  in
  let expect ?timing id =
    tree_bytes ?timing ~id:(Json.Int id) ~verb:"solve" (Ok offline)
  in
  with_server ~tweak:(fun c -> { c with Server.jobs = 4 }) @@ fun port ->
  (* a fresh solve and an identical one behind it in the same read:
     the second joins the first's flight (or, if the solve already
     finished, hits the cache) *)
  let fd = burst port [ solve_req 1; solve_req 2 ] in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  checks "fresh miss" (expect 1) (read_raw fd);
  checks "single-flight joiner" (expect 2) (read_raw fd);
  send_frame fd (solve_req 3);
  checks "cache hit" (expect 3) (read_raw fd);
  let send req = send_frame fd (Json.to_string (Protocol.request_to_json req)) in
  (* a traced hit echoes its timing between the envelope and the
     cached result *)
  send
    (Protocol.request ~id:(Json.Int 4)
       ~trace:{ Protocol.trace_id = "bytes-4"; parent_span = None }
       Protocol.Solve);
  let raw = read_raw fd in
  let timing =
    (get_ok "traced response" (Protocol.response_of_json (Json.of_string raw)))
      .Protocol.timing
  in
  checkb "timing echoed" true (timing <> None);
  checks "traced cache hit" (expect ?timing 4) raw;
  send
    (Protocol.request ~id:(Json.Int 5)
       ~options:{ Protocol.default_options with Protocol.algorithm = "no-such-alg" }
       Protocol.Solve);
  checkb "error response" true
    (Result.is_error (check_tree_bytes "error" (read_raw fd)).Protocol.payload);
  send (Protocol.request ~id:(Json.Int 6) Protocol.Health);
  ignore (check_tree_bytes "health" (read_raw fd));
  send
    (Protocol.request ~id:(Json.String "seven")
       ~delta:[ Qp_instance.Delta.Set_edge { u = 0; v = 1; length = 2.5 } ]
       Protocol.Update);
  checkb "update applied" true
    (Result.is_ok (check_tree_bytes "update" (read_raw fd)).Protocol.payload);
  let g = cache_counters port in
  checki "the spec solve and the unknown algorithm missed" 2 (g "misses");
  checki "joiner, repeat and traced repeat absorbed" 3
    (g "hits" + g "inflight_joins")

let test_loadgen_trace_requests () =
  with_wide_sink @@ fun read ->
  with_server @@ fun port ->
  let cfg =
    { Loadgen.default_config with
      Loadgen.port;
      connections = 2;
      duration_s = 0.4;
      spec = Some test_spec;
      seed = 42;
      trace_requests = true }
  in
  let report = get_ok "loadgen" (Loadgen.run cfg) in
  (* barrier: the server emits a request's wide event just after
     writing its response, so the last loadgen reply can race our
     read. The dispatch loop is sequential — once this health call is
     answered, every earlier event has been emitted. *)
  (let c = get_ok "barrier connect" (Client.connect ~port ()) in
   Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
   ignore (call_ok "barrier" c (Protocol.request Protocol.Health)));
  checkb "completed requests" true (report.Loadgen.completed > 0);
  (* the server's timing echo surfaces as per-phase samples *)
  List.iter
    (fun phase ->
      match List.assoc_opt phase report.Loadgen.phases_ms with
      | Some samples ->
          checkb (phase ^ " sampled") true (Array.length samples > 0);
          checkb (phase ^ " non-negative") true (Array.for_all (fun d -> d >= 0.) samples)
      | None -> Alcotest.failf "report lost the %s phase" phase)
    [ "parse"; "queue"; "handle" ];
  (match Json.member "phases" (Loadgen.report_to_json report) with
  | Some (Json.Obj (_ :: _)) -> ()
  | _ -> Alcotest.fail "report json must carry a phases object");
  (* client and server wide events join on trace ids *)
  let by_kind k =
    List.filter_map
      (fun r ->
        if Option.bind (Json.member "kind" r) Json.to_str = Some k then
          Option.bind (Json.member "trace_id" r) Json.to_str
        else None)
      (read ())
  in
  let client_ids = by_kind "client_call" in
  let server_ids = by_kind "serve_request" in
  checkb "client events emitted" true (client_ids <> []);
  List.iter
    (fun id ->
      checkb ("server side of " ^ id) true (List.mem id server_ids))
    client_ids

let suites =
  [ ( "serve.frame",
      [ Alcotest.test_case "decoder byte-by-byte" `Quick test_decoder_byte_by_byte;
        Alcotest.test_case "decoder pipelined frames" `Quick test_decoder_pipelined;
        Alcotest.test_case "decoder oversize poisons" `Quick test_decoder_oversize_poisons;
        Alcotest.test_case "decoder negative length" `Quick test_decoder_negative_length ] );
    ( "serve.protocol",
      [ Alcotest.test_case "error codec round-trip" `Quick test_error_codec_roundtrip;
        Alcotest.test_case "request codec round-trip" `Quick test_request_codec;
        Alcotest.test_case "request defaults and errors" `Quick test_request_defaults_and_errors;
        Alcotest.test_case "delta codec" `Quick test_delta_codec;
        Alcotest.test_case "partial spec defaults" `Quick test_partial_spec_defaults;
        QCheck_alcotest.to_alcotest prop_writer_equals_tree_writer ] );
    ( "serve.server",
      [ Alcotest.test_case "all verbs round-trip" `Quick test_all_verbs;
        Alcotest.test_case "served solve = offline solve" `Quick test_served_equals_offline;
        Alcotest.test_case "typed solve errors" `Quick test_solve_typed_errors;
        Alcotest.test_case "deadline 0 rejected" `Quick test_deadline_zero_rejected;
        Alcotest.test_case "exact honours the deadline" `Quick test_exact_deadline_cancels;
        Alcotest.test_case "malformed request gets a reply" `Quick test_malformed_gets_reply_not_hangup;
        Alcotest.test_case "queue-full rejection" `Quick test_queue_full_rejection;
        Alcotest.test_case "graceful drain ordering" `Quick test_graceful_drain_ordering;
        Alcotest.test_case "simplex deadline cancels" `Quick test_simplex_deadline_cancels;
        Alcotest.test_case "fuzz: garbage never crashes" `Quick test_fuzz;
        Alcotest.test_case "update verb end to end" `Quick test_update_verb;
        Alcotest.test_case "fuzz: update deltas" `Quick test_update_fuzz;
        Alcotest.test_case "robust client reconnects" `Quick test_robust_client_reconnects;
        Alcotest.test_case "robust client gives up" `Quick test_robust_client_gives_up;
        Alcotest.test_case "trace/timing codecs" `Quick test_trace_and_timing_codec;
        Alcotest.test_case "trace propagation end to end" `Quick
          test_trace_propagation_end_to_end;
        Alcotest.test_case "health/metrics observability" `Quick
          test_health_and_metrics_observability;
        Alcotest.test_case "negative pivot budget rejected" `Quick
          test_negative_pivot_budget_rejected;
        Alcotest.test_case "config port range" `Quick test_config_port_range ] );
    ( "serve.pool_cache",
      [ Alcotest.test_case "cache hit serves identical bytes" `Quick
          test_cache_hit_serves_identical_bytes;
        Alcotest.test_case "single-flight dedup" `Quick test_single_flight_dedup;
        Alcotest.test_case "LRU eviction bound" `Quick test_cache_eviction_bound;
        Alcotest.test_case "pooled deadline cancellation" `Quick
          test_pooled_deadline_cancellation;
        Alcotest.test_case "drain with inflight pooled solves" `Quick
          test_drain_with_inflight_pooled_solves;
        Alcotest.test_case "served bytes = tree writer bytes" `Quick
          test_served_bytes_equal_tree_writer;
        Alcotest.test_case "served bytes identical across jobs" `Quick
          test_served_bytes_identical_across_jobs ] );
    ( "serve.loadgen",
      [ Alcotest.test_case "mix parser" `Quick test_mix_of_string;
        Alcotest.test_case "closed-loop run" `Quick test_loadgen_against_server;
        Alcotest.test_case "traced run joins client and server" `Quick
          test_loadgen_trace_requests ] ) ]
