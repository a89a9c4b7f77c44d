(* Global switchboard for the telemetry layer.

   Everything in qp_obs is a no-op unless explicitly enabled, so
   instrumented hot paths pay a single mutable-bool load per
   operation. Spans and metrics are gated independently: [enabled] is
   true while any {!Trace} slot (the span trace or the wide events)
   has a sink installed; each metrics registry carries its own enabled
   flag (the shared default registry starts disabled). *)

let enabled = ref false

(* Wall-clock used for span timestamps and bench timings. OCaml's
   stdlib has no monotonic clock without external packages, so the
   default is [Unix.gettimeofday]; tests (and callers that do have a
   monotonic source) install their own via [set_clock], which also
   makes span timing deterministic under test. *)
let clock : (unit -> float) ref = ref Unix.gettimeofday

let now () = !clock ()

let set_clock f = clock := f

let default_clock () = clock := Unix.gettimeofday

(* Peak resident set size of this process, from the kernel's
   high-water mark (VmHWM in /proc/self/status, reported in kB).
   Returns [None] off Linux or on any parse surprise — callers treat
   the measurement as best-effort telemetry. *)
let max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  let digits =
                    String.to_seq (String.sub line 6 (String.length line - 6))
                    |> Seq.filter (fun c -> c >= '0' && c <= '9')
                    |> String.of_seq
                  in
                  int_of_string_opt digits
                else scan ()
          in
          scan ())
