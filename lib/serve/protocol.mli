(** The [qp-serve/1] request/response protocol.

    One frame ({!Frame}) carries one JSON document. A request names a
    verb, an optional instance {!Qp_instance.Spec.t} (missing fields
    default to the server's spec) and per-request options; a response
    echoes the request [id] verbatim and carries either a result
    object or a typed error payload with a stable [code]. Servers
    answer {e every} parseable frame — malformed requests come back as
    [invalid_instance] errors, overload as [overloaded], expired
    deadlines as [deadline_exceeded]; a connection is only dropped on
    a framing violation.

    Request:
    {v
    {"schema":"qp-serve/1","verb":"solve","id":1,
     "spec":{"topology":"waxman","nodes":16,"system":"grid:3",
             "cap_slack":1.0,"seed":1},
     "options":{"alg":"lp","alpha":2.0,"deadline_ms":500,
                "pivot_budget":100000}}
    v}

    Response:
    {v
    {"schema":"qp-serve/1","id":1,"verb":"solve","ok":true,
     "result":{...qp-solve/1 outcome...}}
    {"schema":"qp-serve/1","id":1,"verb":"solve","ok":false,
     "error":{"code":"overloaded","message":"..."}}
    v} *)

module Json := Qp_obs.Json
module Qp_error := Qp_util.Qp_error
module Spec := Qp_instance.Spec
module Delta := Qp_instance.Delta

val schema : string
(** ["qp-serve/1"] — bumped on any shape change. *)

type verb = Solve | Update | Info | Metrics | Health | Shutdown

val verb_name : verb -> string
val verb_of_name : string -> (verb, Qp_error.t) result

type options = {
  algorithm : string; (* solver registry name; default "lp" *)
  alpha : float; (* Theorem 3.7 rounding parameter; default 2. *)
  deadline_ms : int option;
      (* per-request deadline override (None = the server default) *)
  pivot_budget : int option;
      (* work cap: simplex pivots on the LP route, search nodes on
         the tree route *)
}

val default_options : options

val check_options : options -> (options, Qp_error.t) result
(** The options check shared by the wire ({!request_of_json}) and
    [qplace solve]/[loadgen]: [Error (Invalid_instance _)] when
    [pivot_budget < 0]. *)

type trace_ctx = {
  trace_id : string;
      (* client-minted id adopted by the server's wide event *)
  parent_span : string option; (* client-side span, for nesting *)
}

type request = {
  id : Json.t; (* echoed verbatim in the response; Null when absent *)
  verb : verb;
  spec : Spec.t option; (* None = the server's live instance *)
  delta : Delta.op list option; (* [update] payload *)
  options : options;
  trace : trace_ctx option;
      (* optional wire trace context; requests without one get no
         timing echo and responses stay byte-identical to qp-serve/1
         before trace propagation *)
}

val request :
  ?id:Json.t ->
  ?spec:Spec.t ->
  ?delta:Delta.op list ->
  ?options:options ->
  ?trace:trace_ctx ->
  verb ->
  request

val request_to_json : request -> Json.t

val request_of_json : Json.t -> (request, Qp_error.t) result

val parse_request : string -> (request, Json.t * Qp_error.t) result
(** Parse one frame payload. On error the best-effort request [id]
    (Null when unrecoverable) rides along so the server can still
    correlate the error reply. *)

(** {2 Spec codec} *)

val spec_of_json : ?base:Spec.t -> Json.t -> (Spec.t, Qp_error.t) result
(** Missing fields default to [base] (default {!Spec.default} with
    [jobs = 1]); value validation happens later in {!Spec.build}. *)

(** {2 Delta codec}

    The [update] verb carries a [delta] array, one object per
    {!Qp_instance.Delta.op}:
    {v
    [{"op":"set_edge","u":0,"v":1,"length":2.5},
     {"op":"remove_edge","u":3,"v":4},
     {"op":"set_capacity","node":2,"cap":4.0},
     {"op":"set_cap_slack","slack":1.5}]
    v}
    Fields are required — a delta op with a missing endpoint or value
    is a protocol error, never defaulted. *)

(** {2 Responses} *)

type serve_error =
  | Typed of Qp_error.t (* library errors, wire codes from {!Qp_place.Serialize.error_code} *)
  | Overloaded of string (* admission control rejected the request *)
  | Deadline_exceeded of string (* deadline passed in queue or mid-solve *)

val serve_error_code : serve_error -> string
val serve_error_message : serve_error -> string

type response = {
  id : Json.t;
  verb : string;
  payload : (Json.t, serve_error) result;
  timing : (string * float) list option;
      (* server phase durations in seconds (parse/queue/handle),
         present only when the request carried a trace context *)
}

val response :
  ?timing:(string * float) list ->
  id:Json.t ->
  verb:string ->
  (Json.t, serve_error) result ->
  response

val response_to_json : response -> Json.t
(** [timing] is emitted as an object of numbers and omitted entirely
    when [None] or empty, keeping trace-free responses byte-identical
    to the pre-trace protocol. *)

val encode_response :
  ?timing:(string * float) list ->
  id:Json.t ->
  verb:string ->
  (string, serve_error) result ->
  string
(** The server's one response writer. A successful result comes as
    its serialized text and is copied in verbatim, so a result
    serialized once can be served any number of times:
    [encode_response ?timing ~id ~verb (Ok (Json.to_string j))] is
    byte-equal to
    [Json.to_string (response_to_json (response ?timing ~id ~verb (Ok j)))],
    and an error response to its {!response_to_json} bytes. *)

val response_of_json : Json.t -> (response, Qp_error.t) result

(** {2 Shared solve semantics} *)

val solver_params : Spec.t -> options -> Qp_place.Solver.params
(** The one spec-to-params mapping shared by [qplace solve] and the
    server, so a served placement is byte-identical to the offline
    result: [alpha]/[pivot_budget] from the options, solver seed
    [spec.seed + 1] (instance construction uses [spec.seed]). *)
