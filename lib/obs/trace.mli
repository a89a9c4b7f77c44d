(** Telemetry sinks and the slots that hold them.

    A {!slot} is the destination of one JSONL schema: {!spans} carries
    the span/event stream ([qp-trace/1]), {!wide} the wide events
    ([qp-wide/1]). Each slot holds at most one sink. Installing into
    either flips the process-wide flag checked by every
    {!Span.with_}, so with both slots empty instrumented code pays a
    single branch. Writes are serialized, so every record is one whole
    line even when pool workers emit concurrently. *)

type sink

val to_file : string -> sink
(** Opens [path] for writing, one JSON record per line; uninstalling
    closes it. *)

val memory : unit -> sink * (unit -> Json.t list)
(** In-memory sink for tests; the thunk returns records in emission
    order. *)

type slot

val spans : slot
(** The span/event trace, schema [qp-trace/1]. *)

val wide : slot
(** The wide events, schema [qp-wide/1]. *)

val install : slot -> sink -> unit
(** Make [sink] the slot's destination, closing any previous one.
    Installing into {!spans} also resets span ids. *)

val uninstall : slot -> unit
(** Close the slot's sink and empty it. Idempotent. *)

val active : slot -> bool

val emit : slot -> Json.t -> unit
(** Write one record (no-op when the slot is empty). *)

val header : slot -> (string * Json.t) list -> unit
(** Emit the run-metadata record
    [{"type":"meta","schema":...,"version":...,...fields}] with the
    slot's schema — the first line of every artifact, making runs
    reproducible from the artifact alone. No-op when the slot is
    empty. *)

val next_id : unit -> int
(** Fresh monotone record id (reset by installing into {!spans}); used
    by {!Span}. *)
