module Json = Qp_obs.Json
module Qp_error = Qp_util.Qp_error
module Spec = Qp_instance.Spec
module Delta = Qp_instance.Delta
module Serialize = Qp_place.Serialize

let ( let* ) = Qp_error.( let* )

let schema = "qp-serve/1"

type verb = Solve | Update | Info | Metrics | Health | Shutdown

let verb_name = function
  | Solve -> "solve"
  | Update -> "update"
  | Info -> "info"
  | Metrics -> "metrics"
  | Health -> "health"
  | Shutdown -> "shutdown"

let verb_of_name = function
  | "solve" -> Ok Solve
  | "update" -> Ok Update
  | "info" -> Ok Info
  | "metrics" -> Ok Metrics
  | "health" -> Ok Health
  | "shutdown" -> Ok Shutdown
  | other ->
      Qp_error.invalid_instancef
        "unknown verb %S (solve|update|info|metrics|health|shutdown)" other

type options = {
  algorithm : string;
  alpha : float;
  deadline_ms : int option;
  pivot_budget : int option;
}

let default_options =
  { algorithm = "lp"; alpha = 2.; deadline_ms = None; pivot_budget = None }

(* Wire trace context: a client-minted id that the server adopts, so
   client- and server-side wide events for one request join on
   [trace_id] across processes. *)
type trace_ctx = { trace_id : string; parent_span : string option }

type request = {
  id : Json.t;
  verb : verb;
  spec : Spec.t option;
  delta : Delta.op list option;
  options : options;
  trace : trace_ctx option;
}

let request ?(id = Json.Null) ?spec ?delta ?(options = default_options) ?trace
    verb =
  { id; verb; spec; delta; options; trace }

(* ------------------------------------------------------------------ *)
(* Spec codec                                                          *)
(* ------------------------------------------------------------------ *)

let spec_to_json (s : Spec.t) =
  Json.Obj
    [ ("topology", Json.String s.Spec.topology);
      ("nodes", Json.Int s.Spec.nodes);
      ("system", Json.String s.Spec.system);
      ("cap_slack", Json.Float s.Spec.cap_slack);
      ("seed", Json.Int s.Spec.seed) ]

(* Typed field accessors: a missing field falls back to [base], a
   present field of the wrong type is a protocol error (silently
   ignoring it would solve a different instance than the client
   named). *)
let field_str j key fallback =
  match Json.member key j with
  | None | Some Json.Null -> Ok fallback
  | Some v -> (
      match Json.to_str v with
      | Some s -> Ok s
      | None -> Qp_error.invalid_instancef "spec field %S must be a string" key)

let field_int j key fallback =
  match Json.member key j with
  | None | Some Json.Null -> Ok fallback
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None -> Qp_error.invalid_instancef "spec field %S must be an integer" key)

let field_float j key fallback =
  match Json.member key j with
  | None | Some Json.Null -> Ok fallback
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok f
      | None -> Qp_error.invalid_instancef "spec field %S must be a number" key)

let spec_of_json ?(base = { Spec.default with Spec.jobs = 1 }) j =
  match j with
  | Json.Obj _ ->
      let* topology = field_str j "topology" base.Spec.topology in
      let* nodes = field_int j "nodes" base.Spec.nodes in
      let* system = field_str j "system" base.Spec.system in
      let* cap_slack = field_float j "cap_slack" base.Spec.cap_slack in
      let* seed = field_int j "seed" base.Spec.seed in
      Ok { Spec.topology; nodes; system; cap_slack; seed; jobs = base.Spec.jobs }
  | _ -> Qp_error.invalid_instancef "spec must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Delta codec                                                         *)
(* ------------------------------------------------------------------ *)

let delta_op_to_json = function
  | Delta.Set_edge { u; v; length } ->
      Json.Obj
        [ ("op", Json.String "set_edge"); ("u", Json.Int u); ("v", Json.Int v);
          ("length", Json.Float length) ]
  | Delta.Remove_edge { u; v } ->
      Json.Obj
        [ ("op", Json.String "remove_edge"); ("u", Json.Int u);
          ("v", Json.Int v) ]
  | Delta.Set_capacity { node; cap } ->
      Json.Obj
        [ ("op", Json.String "set_capacity"); ("node", Json.Int node);
          ("cap", Json.Float cap) ]
  | Delta.Set_cap_slack slack ->
      Json.Obj
        [ ("op", Json.String "set_cap_slack"); ("slack", Json.Float slack) ]

let delta_to_json ops = Json.List (List.map delta_op_to_json ops)

(* Required typed fields: a delta op with a missing field has no sane
   default — defaulting an endpoint or a length would apply an edit
   the client never asked for. *)
let req_int j key =
  match Option.bind (Json.member key j) Json.to_int with
  | Some i -> Ok i
  | None -> Qp_error.invalid_instancef "delta op: missing integer field %S" key

let req_float j key =
  match Option.bind (Json.member key j) Json.to_float with
  | Some f -> Ok f
  | None -> Qp_error.invalid_instancef "delta op: missing number field %S" key

let delta_op_of_json j =
  match j with
  | Json.Obj _ -> (
      match Option.bind (Json.member "op" j) Json.to_str with
      | Some "set_edge" ->
          let* u = req_int j "u" in
          let* v = req_int j "v" in
          let* length = req_float j "length" in
          Ok (Delta.Set_edge { u; v; length })
      | Some "remove_edge" ->
          let* u = req_int j "u" in
          let* v = req_int j "v" in
          Ok (Delta.Remove_edge { u; v })
      | Some "set_capacity" ->
          let* node = req_int j "node" in
          let* cap = req_float j "cap" in
          Ok (Delta.Set_capacity { node; cap })
      | Some "set_cap_slack" ->
          let* slack = req_float j "slack" in
          Ok (Delta.Set_cap_slack slack)
      | Some other ->
          Qp_error.invalid_instancef
            "delta op %S (set_edge|remove_edge|set_capacity|set_cap_slack)"
            other
      | None ->
          Qp_error.invalid_instancef "delta op: missing string field \"op\"")
  | _ -> Qp_error.invalid_instancef "delta op must be a JSON object"

let delta_of_json j =
  match j with
  | Json.List ops ->
      List.fold_left
        (fun acc op ->
          let* acc = acc in
          let* op = delta_op_of_json op in
          Ok (op :: acc))
        (Ok []) ops
      |> Result.map List.rev
  | _ -> Qp_error.invalid_instancef "delta must be a JSON array of ops"

(* ------------------------------------------------------------------ *)
(* Request codec                                                       *)
(* ------------------------------------------------------------------ *)

let options_to_json (o : options) =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [ ("alg", Json.String o.algorithm);
      ("alpha", Json.Float o.alpha);
      ("deadline_ms", opt (fun v -> Json.Int v) o.deadline_ms);
      ("pivot_budget", opt (fun v -> Json.Int v) o.pivot_budget) ]

let check_options o =
  match o.pivot_budget with
  | Some b when b < 0 ->
      Qp_error.invalid_instancef "pivot budget must be >= 0 (got %d)" b
  | _ -> Ok o

let options_of_json j =
  match j with
  | Json.Obj _ ->
      let* algorithm = field_str j "alg" default_options.algorithm in
      let* alpha = field_float j "alpha" default_options.alpha in
      let opt_int key =
        match Json.member key j with
        | None | Some Json.Null -> Ok None
        | Some v -> (
            match Json.to_int v with
            | Some i -> Ok (Some i)
            | None ->
                Qp_error.invalid_instancef "option %S must be an integer" key)
      in
      let* deadline_ms = opt_int "deadline_ms" in
      let* pivot_budget = opt_int "pivot_budget" in
      check_options { algorithm; alpha; deadline_ms; pivot_budget }
  | _ -> Qp_error.invalid_instancef "options must be a JSON object"

let trace_ctx_to_json (t : trace_ctx) =
  Json.Obj
    (("trace_id", Json.String t.trace_id)
    ::
    (match t.parent_span with
    | Some p -> [ ("parent_span", Json.String p) ]
    | None -> []))

let trace_ctx_of_json j =
  match j with
  | Json.Obj _ -> (
      match Option.bind (Json.member "trace_id" j) Json.to_str with
      | Some trace_id ->
          let* parent_span =
            match Json.member "parent_span" j with
            | None | Some Json.Null -> Ok None
            | Some v -> (
                match Json.to_str v with
                | Some s -> Ok (Some s)
                | None ->
                    Qp_error.invalid_instancef
                      "trace field \"parent_span\" must be a string")
          in
          Ok { trace_id; parent_span }
      | None ->
          Qp_error.invalid_instancef
            "trace: missing string field \"trace_id\"")
  | _ -> Qp_error.invalid_instancef "trace must be a JSON object"

let request_to_json (r : request) =
  Json.Obj
    ([ ("schema", Json.String schema); ("verb", Json.String (verb_name r.verb)) ]
    @ (match r.id with Json.Null -> [] | id -> [ ("id", id) ])
    @ (match r.spec with Some s -> [ ("spec", spec_to_json s) ] | None -> [])
    @ (match r.delta with
      | Some ops -> [ ("delta", delta_to_json ops) ]
      | None -> [])
    @ (match r.trace with
      | Some t -> [ ("trace", trace_ctx_to_json t) ]
      | None -> [])
    @ [ ("options", options_to_json r.options) ])

let request_of_json j =
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  let* () =
    match Json.member "schema" j with
    | None -> Ok () (* schema field optional on requests *)
    | Some s -> (
        match Json.to_str s with
        | Some v when v = schema -> Ok ()
        | Some v ->
            Qp_error.invalid_instancef "request schema %S (expected %S)" v schema
        | None -> Qp_error.invalid_instancef "request schema must be a string")
  in
  let* verb =
    match Option.bind (Json.member "verb" j) Json.to_str with
    | Some name -> verb_of_name name
    | None -> Qp_error.invalid_instancef "request: missing string field \"verb\""
  in
  let* spec =
    match Json.member "spec" j with
    | None | Some Json.Null -> Ok None
    | Some sj ->
        let* s = spec_of_json sj in
        Ok (Some s)
  in
  let* delta =
    match Json.member "delta" j with
    | None | Some Json.Null -> Ok None
    | Some dj ->
        let* ops = delta_of_json dj in
        Ok (Some ops)
  in
  let* options =
    match Json.member "options" j with
    | None | Some Json.Null -> Ok default_options
    | Some oj -> options_of_json oj
  in
  let* trace =
    match Json.member "trace" j with
    | None | Some Json.Null -> Ok None
    | Some tj ->
        let* t = trace_ctx_of_json tj in
        Ok (Some t)
  in
  Ok { id; verb; spec; delta; options; trace }

let parse_request payload =
  match Json.of_string payload with
  | exception Json.Parse_error msg ->
      Error (Json.Null, Qp_error.Invalid_instance ("request JSON: " ^ msg))
  | j -> (
      match request_of_json j with
      | Ok r -> Ok r
      | Error e ->
          Error (Option.value (Json.member "id" j) ~default:Json.Null, e))

(* ------------------------------------------------------------------ *)
(* Response codec                                                      *)
(* ------------------------------------------------------------------ *)

type serve_error =
  | Typed of Qp_error.t
  | Overloaded of string
  | Deadline_exceeded of string

let serve_error_code = function
  | Typed e -> Serialize.error_code e
  | Overloaded _ -> "overloaded"
  | Deadline_exceeded _ -> "deadline_exceeded"

let serve_error_message = function
  | Typed e -> Qp_error.to_string e
  | Overloaded msg | Deadline_exceeded msg -> msg

let serve_error_to_json = function
  | Typed e -> Serialize.error_to_json e
  | (Overloaded msg | Deadline_exceeded msg) as e ->
      Json.Obj
        [ ("code", Json.String (serve_error_code e));
          ("message", Json.String msg) ]

type response = {
  id : Json.t;
  verb : string;
  payload : (Json.t, serve_error) result;
  (* Server-side phase durations in seconds (parse/queue/handle),
     echoed only when the request carried a trace context so default
     responses stay byte-identical. Serialize/write phases cannot
     appear here — they happen after this record is encoded — and are
     only in the server's wide event. *)
  timing : (string * float) list option;
}

let response ?timing ~id ~verb payload = { id; verb; payload; timing }

(* Every field before the result or the error, in wire order. *)
let envelope ?timing ~id ~verb ok =
  [ ("schema", Json.String schema); ("id", id); ("verb", Json.String verb) ]
  @ (match timing with
    | None | Some [] -> []
    | Some phases ->
        [ ("timing",
           Json.Obj (List.map (fun (n, d) -> (n, Json.Float d)) phases)) ])
  @ [ ("ok", Json.Bool ok) ]

let response_to_json (r : response) =
  let envelope = envelope ?timing:r.timing ~id:r.id ~verb:r.verb in
  match r.payload with
  | Ok result -> Json.Obj (envelope true @ [ ("result", result) ])
  | Error e -> Json.Obj (envelope false @ [ ("error", serve_error_to_json e) ])

let encode_response ?timing ~id ~verb payload =
  match payload with
  | Error e -> Json.to_string (response_to_json (response ?timing ~id ~verb (Error e)))
  | Ok result ->
      let buf = Buffer.create 512 in
      Json.write buf (Json.Obj (envelope ?timing ~id ~verb true));
      (* Reopen the envelope at its closing brace and splice the result
         text in as the last field. *)
      Buffer.truncate buf (Buffer.length buf - 1);
      Buffer.add_string buf {|,"result":|};
      Buffer.add_string buf result;
      Buffer.add_char buf '}';
      Buffer.contents buf

let response_of_json j =
  let* () =
    match Option.bind (Json.member "schema" j) Json.to_str with
    | Some v when v = schema -> Ok ()
    | Some v ->
        Qp_error.invalid_instancef "response schema %S (expected %S)" v schema
    | None -> Qp_error.invalid_instancef "response: missing string field \"schema\""
  in
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  let* verb =
    match Option.bind (Json.member "verb" j) Json.to_str with
    | Some v -> Ok v
    | None -> Qp_error.invalid_instancef "response: missing string field \"verb\""
  in
  let* timing =
    match Json.member "timing" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (name, v) ->
            let* acc = acc in
            match Json.to_float v with
            | Some d -> Ok ((name, d) :: acc)
            | None ->
                Qp_error.invalid_instancef
                  "response timing field %S must be a number" name)
          (Ok []) fields
        |> Result.map (fun ps -> Some (List.rev ps))
    | Some _ -> Qp_error.invalid_instancef "response timing must be an object"
  in
  match Json.member "ok" j with
  | Some (Json.Bool true) -> (
      match Json.member "result" j with
      | Some result -> Ok { id; verb; payload = Ok result; timing }
      | None -> Qp_error.invalid_instancef "response: ok without \"result\"")
  | Some (Json.Bool false) -> (
      match Json.member "error" j with
      | Some ej -> (
          let msg =
            match Option.bind (Json.member "message" ej) Json.to_str with
            | Some m -> m
            | None -> ""
          in
          match Option.bind (Json.member "code" ej) Json.to_str with
          | Some "overloaded" ->
              Ok { id; verb; payload = Error (Overloaded msg); timing }
          | Some "deadline_exceeded" ->
              Ok { id; verb; payload = Error (Deadline_exceeded msg); timing }
          | Some _ ->
              let* e = Serialize.error_of_json ej in
              Ok { id; verb; payload = Error (Typed e); timing }
          | None ->
              Qp_error.invalid_instancef "response error: missing string field \"code\"")
      | None -> Qp_error.invalid_instancef "response: not ok without \"error\"")
  | _ -> Qp_error.invalid_instancef "response: missing boolean field \"ok\""

(* ------------------------------------------------------------------ *)
(* Shared solve semantics                                              *)
(* ------------------------------------------------------------------ *)

let solver_params (spec : Spec.t) (o : options) =
  let topology_hint, system_hint = Spec.solver_hints spec in
  { Qp_place.Solver.default_params with
    Qp_place.Solver.alpha = o.alpha;
    seed = spec.Spec.seed + 1;
    pivot_budget = o.pivot_budget;
    topology_hint;
    system_hint }
