(** Minimal dependency-free JSON tree used by the telemetry layer
    (JSONL traces, metric dumps, bench artifacts).

    Non-finite floats serialize as [null]: JSON has no representation
    for them and the metrics layer rejects non-finite observations. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (one trace record per line). Finite
    floats round-trip exactly through {!of_string}: each is written
    with [%.12g] when that reads back equal, else with [%.17g]. *)

val write : Buffer.t -> t -> unit
(** [write buf v] appends the bytes of [to_string v] to [buf]. *)

exception Parse_error of string

val of_string : string -> t
(** Strict parser (full string must be one JSON value).
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] on missing key or non-object. *)

val to_float : t -> float option
(** Numeric accessor; [Int] widens to float. *)

val to_int : t -> int option
val to_str : t -> string option
