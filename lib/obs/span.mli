(** Spans — the one timing primitive of the telemetry layer.

    [with_ name f] is a no-op wrapper (one branch) unless a sink is
    installed in a {!Trace} slot. Otherwise it times [f] on the
    configured clock, and when the span closes it
    - writes one record to the {!Trace.spans} slot, if that slot has a
      sink (records appear in end-time order, children before parents;
      consumers rebuild the tree from [id]/[parent]);
    - adds its duration to the enclosing {!root}, if there is one, under
      its dotted path from the root, e.g.
      ["qpp_solve.candidate.lp_solve.simplex"]. Repeated spans sum into
      one key.

    The current context (innermost open span, root, path) is
    domain-local. {!capture} carries it into [Qp_par.Pool] workers, so
    spans opened there keep their parent and feed the same root at any
    pool width. *)

val with_ : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a named span. Exceptions are recorded on the span
    ([error] field) and re-raised. *)

val add_attr : string -> Json.t -> unit
(** Attach an attribute to the innermost open span (no-op outside any
    span or when the span trace is off). *)

val event : ?attrs:(string * Json.t) list -> string -> unit
(** Emit a point-in-time event record, linked to the innermost open
    span when there is one (e.g. detector transitions, repairs). *)

val current_id : unit -> int option
(** Id of the innermost open span, if any. *)

(** {2 Roots} *)

type root
(** The phase accumulator of one unit of work (a {!Wide} event).
    Phase adds are safe from several domains at once. *)

val root : unit -> root

val with_root : root -> (unit -> 'a) -> 'a
(** Run [f] with [root] as the domain-local root: spans closing inside
    it add their durations to [root] under their paths from it. The
    trace parent of the first span inside is still the span open
    around [with_root]. *)

val add_phase : root -> string -> float -> unit
(** Add [dur] seconds to phase [key] (created on first use). *)

val phases : root -> (string * float) list
(** Phase totals, sorted by key. *)

val capture : unit -> (unit -> unit) -> unit
(** Snapshot the current context; the result runs a thunk under it on
    any domain and restores that domain's own context afterwards. With
    no sink installed the snapshot is the identity wrapper. This is the
    context hook [Qp_par.Pool] applies to queued tasks. *)
