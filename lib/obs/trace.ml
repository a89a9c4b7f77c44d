(* Telemetry sinks and the slots that hold them. A slot is a
   destination for one JSONL schema: [spans] carries the span/event
   stream (qp-trace/1), [wide] the wide events (qp-wide/1). Each holds
   at most one sink; installing into either flips the global flag every
   span checks, so with both slots empty instrumented code pays one
   branch. *)

type sink = { emit : Json.t -> unit; close : unit -> unit }

let to_file path =
  let oc = open_out path in
  {
    emit =
      (fun j ->
        output_string oc (Json.to_string j);
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }

let memory () =
  let records = ref [] in
  let sink = { emit = (fun j -> records := j :: !records); close = ignore } in
  (sink, fun () -> List.rev !records)

type slot = { schema : string; mutable current : sink option }

let spans = { schema = "qp-trace/1"; current = None }
let wide = { schema = "qp-wide/1"; current = None }

(* Serializes installs and sink writes: spans close and wide events
   finish on pool worker domains and server threads while the main
   domain may also be emitting, so every record is a whole line. *)
let lock = Mutex.create ()

(* Monotone span/event id source, reset per installed trace so runs
   produce reproducible ids. *)
let seq = Atomic.make 0

let next_id () = Atomic.fetch_and_add seq 1 + 1

let set slot sink =
  Mutex.protect lock (fun () ->
      Option.iter (fun s -> s.close ()) slot.current;
      slot.current <- sink;
      if slot == spans then Atomic.set seq 0;
      Core.enabled := spans.current <> None || wide.current <> None)

let install slot sink = set slot (Some sink)
let uninstall slot = set slot None
let active slot = slot.current <> None

let emit slot j =
  if active slot then
    Mutex.protect lock (fun () -> Option.iter (fun s -> s.emit j) slot.current)

let header slot fields =
  emit slot
    (Json.Obj
       (("type", Json.String "meta")
       :: ("schema", Json.String slot.schema)
       :: ("version", Json.String Build_info.version)
       :: fields))
