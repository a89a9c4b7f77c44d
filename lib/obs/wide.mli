(** Wide events — one canonical JSONL record per unit of work.

    A wide event aggregates everything known about one unit (a served
    request, a migration episode, a bench experiment) into a single
    record: trace id, phase durations, outcome, counters. Records are
    written to the {!Trace.wide} slot as one JSON object per line with
    ["type":"wide"].

    Each event is a {!Span} root. Work run under {!within} needs no
    timing code of its own: every span closing there adds its duration
    to the event's phases under its dotted path from the root
    (["solve.qpp_solve.candidate.lp_solve.simplex"]), also from pool
    workers. When the slot is empty every entry point is a one-branch
    no-op. *)

type t
(** An in-flight event builder. Builders made while no sink is
    installed are inert: mutations cost one branch. *)

val start :
  kind:string -> ?trace_id:string -> ?parent_span:string -> unit -> t
(** Begin a unit of work of the given [kind]. [trace_id]/[parent_span]
    propagate wire context. *)

val within : t -> (unit -> 'a) -> 'a
(** [within t f] runs [f] with [t] as the domain-local span root.
    Inert builders run [f] unchanged. *)

val set : t -> string -> Json.t -> unit
(** Attach an attribute (last write appears in record order). *)

val set_str : t -> string -> string -> unit
val set_int : t -> string -> int -> unit

val phase : t -> string -> float -> unit
(** Add a duration in seconds to phase [name], for times taken outside
    any span (the server's parse/queue/handle timestamps). *)

val finish : ?outcome:string -> t -> unit
(** Close the unit and emit its record (outcome defaults to ["ok"]).
    Idempotent; inert builders emit nothing. *)

val fresh_trace_id : unit -> string
(** A process-unique trace id for units that did not inherit one from
    the wire. *)
