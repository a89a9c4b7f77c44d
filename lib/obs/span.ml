(* Spans: the one timing primitive. [with_ name f] times [f] on the
   configured clock. When the span closes it writes one JSONL record to
   the span trace, if a sink is installed there (children therefore
   appear before their parents in the stream; consumers rebuild the
   tree from id/parent), and adds its duration to the phases of the
   enclosing root, if there is one.

   A root is the phase accumulator of one wide event. A span under a
   root lands in the phase named by its dotted path from the root
   ("qpp_solve.candidate.lp_solve.simplex"); repeated spans sum into
   one key. The current context — innermost open span, root, path —
   is domain-local; [capture] carries it into pool workers, so spans
   opened there keep their parent and feed the same root. *)

type root = { lock : Mutex.t; mutable phases : (string * float ref) list }

let root () = { lock = Mutex.create (); phases = [] }

let add_phase r key dur =
  Mutex.protect r.lock (fun () ->
      match List.assoc_opt key r.phases with
      | Some total -> total := !total +. dur
      | None -> r.phases <- (key, ref dur) :: r.phases)

(* Sorted by key, so a record reads the same whichever domain closed
   its spans first, and a subtree's keys sit together. *)
let phases r =
  Mutex.protect r.lock (fun () ->
      List.map (fun (key, total) -> (key, !total)) r.phases)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type frame = {
  id : int;
  name : string;
  parent : int option;
  depth : int;
  start : float;
  mutable attrs : (string * Json.t) list;
}

(* [path] is the dotted name of [top] relative to [root] ("" at the
   root itself). *)
type ctx = { top : frame option; root : root option; path : string }

let ctx_key : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { top = None; root = None; path = "" })

let current_id () = Option.map (fun fr -> fr.id) (Domain.DLS.get ctx_key).top

let add_attr key value =
  match (Domain.DLS.get ctx_key).top with
  | Some fr when Trace.active Trace.spans -> fr.attrs <- fr.attrs @ [ (key, value) ]
  | _ -> ()

let json_of_parent = function None -> Json.Null | Some id -> Json.Int id

let emit_span fr ~t_end ~error =
  let base =
    [
      ("type", Json.String "span");
      ("id", Json.Int fr.id);
      ("parent", json_of_parent fr.parent);
      ("name", Json.String fr.name);
      ("depth", Json.Int fr.depth);
      ("t_start", Json.Float fr.start);
      ("t_end", Json.Float t_end);
      ("dur_s", Json.Float (t_end -. fr.start));
    ]
  in
  let base =
    match error with None -> base | Some e -> base @ [ ("error", Json.String e) ]
  in
  let base =
    match fr.attrs with [] -> base | attrs -> base @ [ ("attrs", Json.Obj attrs) ]
  in
  Trace.emit Trace.spans (Json.Obj base)

let with_ ?(attrs = []) name f =
  if not !Core.enabled then f ()
  else begin
    let ctx = Domain.DLS.get ctx_key in
    let tracing = Trace.active Trace.spans in
    if (not tracing) && Option.is_none ctx.root then f ()
    else begin
      let fr =
        {
          id = Trace.next_id ();
          name;
          parent = Option.map (fun p -> p.id) ctx.top;
          depth = (match ctx.top with None -> 0 | Some p -> p.depth + 1);
          start = Core.now ();
          attrs;
        }
      in
      let path =
        match ctx.root with
        | None -> ""
        | Some _ -> if ctx.path = "" then name else ctx.path ^ "." ^ name
      in
      Domain.DLS.set ctx_key { ctx with top = Some fr; path };
      let finish error =
        Domain.DLS.set ctx_key ctx;
        let t_end = Core.now () in
        Option.iter (fun r -> add_phase r path (t_end -. fr.start)) ctx.root;
        if tracing then emit_span fr ~t_end ~error
      in
      match f () with
      | v ->
          finish None;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish (Some (Printexc.to_string e));
          Printexc.raise_with_backtrace e bt
    end
  end

let with_root r f =
  let saved = Domain.DLS.get ctx_key in
  Domain.DLS.set ctx_key { saved with root = Some r; path = "" };
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key saved) f

let capture () =
  if not !Core.enabled then fun thunk -> thunk ()
  else begin
    let ctx = Domain.DLS.get ctx_key in
    fun thunk ->
      let saved = Domain.DLS.get ctx_key in
      Domain.DLS.set ctx_key ctx;
      Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key saved) thunk
  end

let event ?(attrs = []) name =
  if Trace.active Trace.spans then begin
    let base =
      [
        ("type", Json.String "event");
        ("id", Json.Int (Trace.next_id ()));
        ("span", json_of_parent (current_id ()));
        ("name", Json.String name);
        ("ts", Json.Float (Core.now ()));
      ]
    in
    let base =
      match attrs with [] -> base | attrs -> base @ [ ("attrs", Json.Obj attrs) ]
    in
    Trace.emit Trace.spans (Json.Obj base)
  end
