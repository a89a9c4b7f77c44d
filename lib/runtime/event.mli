(** Minimal discrete-event simulation engine.

    Events are closures scheduled at absolute times; the engine pops
    them in time order and runs them. Event handlers may schedule
    further events.

    The queue is a binary min-heap with hole-moving sifts. Its tie
    rules fix the order among equal timestamps, and with it the order
    of every random draw a handler makes: sift-up moves an event past
    its parent only on a strictly earlier time, and sift-down moves the
    earlier child up, the left child winning equal times.
    {!Qp_graph.Dijkstra} keeps the same rules for its vertex heap.

    This is the substrate shared by the access simulator
    ({!Qp_sim.Access_sim}) and the resilience {!Engine}, which also
    runs the static fault-injection baseline. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation clock (0 before the first event). *)

val schedule : t -> float -> (t -> unit) -> unit
(** [schedule sim time handler] enqueues an event; [time] must not
    precede the current clock by more than 1e-12 and must not be NaN.
    @raise Invalid_argument otherwise. *)

val schedule_in : t -> float -> (t -> unit) -> unit
(** Relative variant: [schedule_in sim dt h = schedule sim (now + dt) h]. *)

val run : ?until:float -> t -> unit
(** Processes events in time order until the queue empties, the clock
    would pass [until], or {!stop} has been called (remaining events
    stay queued). *)

val stop : t -> unit
(** Makes the current {!run} return after the in-flight event handler.
    Needed by simulations with self-regenerating background processes
    (e.g. crash/repair cycles) that would otherwise never drain the
    queue. *)

val events_processed : t -> int

val publish_events : t -> unit
(** Adds {!events_processed} to the [qp_sim_events_total] counter of
    the current {!Qp_obs.Metrics} registry. Each simulator run calls it
    once, after its {!run}. *)
