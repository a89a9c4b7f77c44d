(** Metrics registry: counters, gauges, and fixed-bucket mergeable
    histograms, with Prometheus-text and JSON exporters.

    Mutations are gated on the owning registry's enabled flag, so
    instrumented hot paths pay one load + branch when telemetry is
    off. Series identity is (name, sorted labels); registering an
    existing series again returns the same handle, and re-registering
    under a different kind (or different histogram buckets) raises
    [Invalid_argument]. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : ?enabled:bool -> unit -> t
(** Fresh registry, enabled by default. *)

val default : t
(** Shared process-wide registry used by library instrumentation.
    Starts {e disabled}; [qplace --metrics] enables it. *)

val current : unit -> t
(** The registry instrumented code should write to: the innermost
    domain-local override installed by {!with_current} /
    {!with_current_lazy}, or {!default} when none is installed on this
    domain. Instrumentation sites fetch handles through this at run
    time (not at module init) so a scoped region — a parallel-pool
    element, a bench experiment — captures its own series. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run the callback with the given registry as this domain's
    {!current} (restored on exit, including on exceptions). *)

val with_current_lazy : t Lazy.t -> (unit -> 'a) -> 'a
(** Like {!with_current} but the registry is created only if the
    callback actually touches a metric — the parallel pool uses this
    to scope every element at negligible cost. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val counter : ?help:string -> ?labels:(string * string) list -> t -> string -> counter
(** Get-or-create a monotone counter.
    @raise Invalid_argument on an invalid metric name
    ([[a-zA-Z_:][a-zA-Z0-9_:]*]) or a kind clash. *)

val remove : ?labels:(string * string) list -> t -> string -> unit
(** Drop the series (name, labels) from the registry, if it is there,
    so a label that names an epoch (a live-instance generation, say)
    does not grow the registry without bound. A handle obtained before
    still updates its cell, which no exporter reads any more. *)

val gauge : ?help:string -> ?labels:(string * string) list -> t -> string -> gauge

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  t ->
  string ->
  histogram
(** Fixed-bucket histogram; [buckets] are strictly increasing finite
    upper bounds (inclusive, Prometheus [le] semantics) with an
    implicit [+Inf] overflow bucket. Defaults to 24 bounds, 2x-spaced
    from 1e-3 to ~8.4e3. *)

val log_buckets : lo:float -> factor:float -> count:int -> float array
(** [count] log-spaced bounds [lo, lo*factor, lo*factor^2, ...].
    @raise Invalid_argument unless [lo > 0], [factor > 1],
    [count >= 1]. *)

val inc : counter -> unit
val add : counter -> float -> unit
(** @raise Invalid_argument on negative or non-finite increments (only
    when the registry is enabled — disabled registries never observe
    the value). *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** @raise Invalid_argument on non-finite observations (when
    enabled). *)

val counter_value : counter -> float
val gauge_value : gauge -> float
val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_bucket_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts, overflow bucket last. *)

val hist_bounds : histogram -> float array

val quantile : histogram -> float -> float
(** [quantile h q] with [q] in [\[0,1\]]: interpolated estimate in the
    spirit of [Stats.percentile]. The estimate always lies within the
    bucket that contains the true order statistic (tightened by the
    tracked min/max).
    @raise Invalid_argument on empty histograms or out-of-range [q]. *)

val merge_histogram : into:histogram -> histogram -> unit
(** Pointwise sum of bucket counts (plus sum/count/min/max).
    @raise Invalid_argument when bucket bounds differ. *)

val merge : into:t -> t -> unit
(** Fold every series of the source into [into]: counters add, gauges
    take the source value, histograms merge. *)

val scalar_series : t -> (string * float) list
(** Flat (series-key, value) view in registration order: counters and
    gauges directly, histograms as [_count] and [_sum]. Used for
    before/after deltas by the bench driver. *)

val to_prometheus : t -> string
(** Prometheus text exposition format (with HELP/TYPE headers,
    cumulative histogram buckets, escaped label values). *)

val to_json : t -> Json.t
