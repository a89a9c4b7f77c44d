(* Wide events: one canonical JSONL record per unit of work (a served
   request, a migration episode, a bench experiment). Each record
   carries everything known about the unit — trace id, phase
   durations, outcome, counters — so a single line answers "where did
   this request spend its time" without joining many narrow spans.

   A wide event is a span root: run work under it with [within] and
   every span that closes there adds its duration to the event's
   phases under its dotted path. Records go to the [Trace.wide] slot;
   when it is empty every entry point is a one-branch no-op, so
   default-flag runs stay byte-identical. *)

(* An in-flight builder. [Drop] is returned when no sink is installed;
   every mutation on it is a single-branch no-op. *)
type t =
  | Drop
  | Ev of {
      kind : string;
      trace_id : string option;
      parent_span : string option;
      t_start : float;
      root : Span.root;
      mutable attrs : (string * Json.t) list; (* reversed *)
      mutable finished : bool;
    }

(* Fresh ids for units that did not inherit one from the wire. Salted
   with the pid so ids from a client and a server process on one
   machine stay distinct; uniqueness, not secrecy, is the goal. *)
let id_seq = Atomic.make 0

let fresh_trace_id () =
  Printf.sprintf "%x-%x"
    (Unix.getpid () land 0xffffff)
    (Atomic.fetch_and_add id_seq 1 + 1)

let start ~kind ?trace_id ?parent_span () =
  if not (Trace.active Trace.wide) then Drop
  else
    Ev
      {
        kind;
        trace_id;
        parent_span;
        t_start = Core.now ();
        root = Span.root ();
        attrs = [];
        finished = false;
      }

let within t f = match t with Drop -> f () | Ev e -> Span.with_root e.root f

let set t name v =
  match t with Drop -> () | Ev e -> e.attrs <- (name, v) :: e.attrs

let set_str t name v = set t name (Json.String v)
let set_int t name v = set t name (Json.Int v)

let phase t name dur =
  match t with Drop -> () | Ev e -> Span.add_phase e.root name dur

let finish ?(outcome = "ok") t =
  match t with
  | Drop -> ()
  | Ev e ->
      if not e.finished then begin
        e.finished <- true;
        let t_end = Core.now () in
        let base =
          [
            ("type", Json.String "wide");
            ("kind", Json.String e.kind);
            ("t_start", Json.Float e.t_start);
            ("dur_s", Json.Float (t_end -. e.t_start));
            ("outcome", Json.String outcome);
          ]
        in
        let trace =
          (match e.trace_id with
          | None -> []
          | Some id -> [ ("trace_id", Json.String id) ])
          @
          match e.parent_span with
          | None -> []
          | Some p -> [ ("parent_span", Json.String p) ]
        in
        let phases =
          match Span.phases e.root with
          | [] -> []
          | ps ->
              [ ("phases", Json.Obj (List.map (fun (n, d) -> (n, Json.Float d)) ps)) ]
        in
        Trace.emit Trace.wide (Json.Obj (base @ trace @ phases @ List.rev e.attrs))
      end
