(** Closed-loop load generator for a [qp-serve/1] server.

    [connections] client threads each run an issue-wait-record loop
    until [duration_s] elapses: pick a verb from the weighted [mix]
    with a per-thread seeded {!Qp_util.Rng} (seed + thread index, so a
    run's request sequence is reproducible), send, block on the reply,
    record the latency. Closed-loop means offered load tracks server
    capacity — each connection has at most one request in flight.

    The report follows the [qp-bench/2] artifact style (schema
    [qp-loadgen/1]): totals, throughput, latency percentiles, per-verb
    and per-error-code counts, and [sample_outcome] — the first
    successful solve result — so scripts can diff a served placement
    against the offline [qplace solve] JSON byte-for-byte. *)

module Json := Qp_obs.Json
module Qp_error := Qp_util.Qp_error

type config = {
  host : string;
  port : int;
  connections : int;
  duration_s : float;
  mix : (Protocol.verb * float) list; (* weighted verb mix *)
  spec : Qp_instance.Spec.t option; (* None = the server's default *)
  options : Protocol.options;
  seed : int;
  timeout_ms : int option; (* connect + per-call socket timeout *)
  retries : int; (* {!Client.Robust} retry budget per call *)
  drop_every : int option;
      (* chaos mode: force-close the worker's connection before every
         k-th request, exercising the reconnect path under load *)
  trace_requests : bool;
      (* attach a deterministic per-request trace context (seed- and
         worker-derived ids), emit a client-side wide event per call,
         and collect the server's phase-timing echo into the report *)
  unique_specs : bool;
      (* give every request its own spec seed (requires [spec]), so
         neither the placement cache nor single-flight dedup can
         coalesce the work — measures raw solve throughput *)
}

val default_config : config
(** 1 connection, 2 s, mix [solve=8 info=1 health=1], default options,
    seed 1, port {!Server.default_config}[.port], no timeout,
    3 retries, no connection-drop chaos, no trace propagation, shared
    specs. *)

val mix_of_string : string -> ((Protocol.verb * float) list, Qp_error.t) result
(** Parse ["solve=8,info=1,health=1"]. Weights must be positive;
    [shutdown] is rejected (a load mix must not kill the server). *)

type report = {
  connections : int;
  wall_s : float;
  completed : int; (* requests answered, ok or typed error *)
  ok : int;
  rejected : int; (* overloaded / deadline_exceeded replies *)
  transport_errors : int; (* calls failed after exhausting retries *)
  reconnects : int; (* connections re-established across all workers *)
  retried : int; (* retry attempts across all workers *)
  throughput_rps : float; (* completed / wall_s *)
  latencies_ms : float array; (* every completed request, unordered *)
  by_verb : (string * int) list; (* sorted by verb *)
  by_code : (string * int) list; (* error-code histogram, sorted *)
  sample_outcome : Json.t option;
  phases_ms : (string * float array) list;
      (* server-echoed phase samples (parse/queue/handle) in ms,
         sorted by phase; empty unless [trace_requests] *)
}

val run : config -> (report, Qp_error.t) result
(** [Error _] only when no connection could be established at all;
    per-request failures are data ([transport_errors]). *)

val report_to_json : report -> Json.t
(** [qp-loadgen/1] document; latencies appear as
    [{mean,p50,p95,p99,max}] in milliseconds, not as the raw array. A
    [phases] object (per-phase count/mean/p50/p95/p99) is present only
    when the run collected server timing, so default-flag reports keep
    their pre-trace shape. *)

(** {2 Saturation sweep}

    Throughput vs connections at each server-jobs count, each cell
    against a fresh in-process {!Server} on an ephemeral port — cold
    cache, absolute counters. With [cache_capacity = 0] and
    [base.unique_specs = true] the sweep measures raw solve-throughput
    scaling; with the cache on and shared specs it measures the hit
    path. *)

type sweep_config = {
  base : config; (* per-cell settings; host/port/connections overridden *)
  server_spec : Qp_instance.Spec.t;
  server_jobs : int list;
  connections_sweep : int list;
  cache_capacity : int; (* 0 = cache off *)
  queue_depth : int;
}

type sweep_cell = {
  sw_jobs : int;
  sw_connections : int;
  sw_report : report;
  sw_cache : (string * int) list;
      (* hits/misses/inflight_joins/evictions/entries from the final
         health scrape *)
}

val sweep : sweep_config -> (sweep_cell list, Qp_error.t) result
(** Cells in sweep order: for each jobs value, each connection count.
    [Error _] when a cell's server cannot start or its run fails. *)
