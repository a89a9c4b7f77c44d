(** Global switchboard for the telemetry layer: the telemetry flag
    (owned by {!Trace}) and the pluggable clock. *)

val enabled : bool ref
(** True while a sink is installed in any {!Trace} slot. Flipped by
    {!Trace.install}/{!Trace.uninstall}; instrumented code only ever
    reads it. *)

val now : unit -> float
(** Current time from the configured clock (seconds). *)

val set_clock : (unit -> float) -> unit
(** Install a clock — tests use a fake counter for deterministic span
    timings. The default is [Unix.gettimeofday] (best available
    without external monotonic-clock packages). *)

val default_clock : unit -> unit
(** Restore [Unix.gettimeofday]. *)

val clock : (unit -> float) ref

val max_rss_kb : unit -> int option
(** Peak resident set size (high-water mark) of this process in kB,
    read from [/proc/self/status] ([VmHWM]). [None] when the proc
    interface is unavailable (non-Linux) or unparsable — best-effort
    telemetry, never an error. *)
