(** Sliding-window SLOs with multi-window burn rates.

    An {!objective} classifies each unit of work as good or bad; units
    accumulate into a ring of fixed-width time buckets, so {!record}
    is O(1) and memory is bounded regardless of traffic. Burn rate is
    the observed bad fraction divided by the error budget
    [1 - target]: burn 1.0 consumes the budget exactly at the rate
    that exhausts it over the SLO period.

    All entry points accept [?now] so engines on simulated clocks can
    feed their own time; the default is {!Core.now}. Thread-safe. *)

type objective = {
  name : string;
  target : float;  (** required good fraction, in (0,1) *)
  latency_s : float option;
      (** when set, good additionally requires latency <= this *)
}

type config = {
  objective : objective;
  windows_s : float list;  (** sliding windows, shortest = fast alert *)
  bucket_s : float;  (** time-bucket granularity *)
}

val default_config : config
(** 99% of requests ok within 1s, over 60s and 300s windows, 5s
    buckets. *)

type t

val create : ?cfg:config -> unit -> t
(** @raise Invalid_argument on a malformed config (target outside
    (0,1), non-positive bucket, window shorter than a bucket). *)

val config : t -> config

val record : ?now:float -> t -> ok:bool -> latency_s:float -> unit

val counts : ?now:float -> t -> window_s:float -> int * int
(** [(good, total)] over the trailing window. *)

val error_rate : ?now:float -> t -> window_s:float -> float
(** Bad fraction over the window; [0.] when the window is empty. *)

val burn_rate : ?now:float -> t -> window_s:float -> float
(** [error_rate / (1 - target)]. *)

val quantile : ?now:float -> t -> window_s:float -> float -> float option
(** Windowed latency quantile (log-bucketed, linearly interpolated);
    [None] when the window is empty.
    @raise Invalid_argument when q is outside [0,1]. *)

val burning : ?now:float -> t -> threshold:float -> bool
(** True when {e every} configured window's burn rate is at or above
    [threshold] — the fast window proves the problem is current, the
    slow window that it is sustained. *)

val to_json : ?now:float -> t -> Json.t
(** Per-window counts, error/burn rates and p99, for the [health]
    verb. *)
