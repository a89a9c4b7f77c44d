(** Closed-loop resilience engine.

    Runs a placed quorum system through a failure process inside the
    discrete-event simulator, with the full feedback loop a production
    deployment would run:

    + heartbeat probes feed the EWMA {!Detector} (access probes
      piggy-back extra observations);
    + accesses sample quorums from the {!Adaptive} strategy, which
      steers probability away from suspected hosts and falls back to
      the paper's static optimum when the network is healthy — so the
      failure-free run reproduces the static delay analysis;
    + failed attempts are retried under a shared {!Retry} policy
      (timeout, exponential backoff + jitter, optional hedged second
      quorum probe);
    + a {!repair_trigger} watches detected-dead capacity and the
      observed delay EWMA, and invokes {!Qp_place.Repair.repair} to
      migrate replicas off suspected nodes when a threshold trips,
      recording delay before/after each repair.

    Down nodes are silent: a failed attempt is discovered only at its
    timeout, never early.

    The engine is also the fault-injection simulator. With
    [~adaptive:false], {!Retry.fixed} and no repair, migration or SLO
    trigger, it is the static baseline: a fixed strategy with blind
    retries. Run at the same seed as an adaptive configuration, it
    faces the bit-identical failure trajectory and access times, so
    static-vs-adaptive comparisons at an equal retry budget are
    paired. {!predicted_availability} is the closed form its
    availability converges to under [Static p]. *)

type repair_trigger = {
  capacity_frac : float;
      (** repair when suspected nodes hold at least this fraction of
          total capacity (in (0, 1]) *)
  delay_factor : float;
      (** ... or when the success-delay EWMA exceeds this multiple of
          the analytic failure-free delay (> 1) *)
  check_interval : float; (** how often the trigger is evaluated *)
  min_interval : float; (** refractory period between repairs *)
}

val default_trigger : repair_trigger
(** capacity 15%, delay 2x, check every 5, at most one repair per 20
    time units. *)

type repair_event = {
  time : float;
  dead : int list; (* suspected nodes the repair routed around *)
  moved : int; (* elements migrated *)
  delay_before : float; (* avg max-delay on survivors, old placement *)
  delay_after : float; (* ... patched placement *)
}

type migration_policy = {
  bound : float;
      (** intermediate load cap, as a multiple of capacity — the
          paper's [(alpha+1)] guarantee extended to every mid-plan
          placement ({!Qp_place.Migrate}) *)
  budget : int option; (** move budget; [None] = planner default *)
  max_retries : int; (** retries per move whose destination is down *)
  retry_backoff : float; (** sim-time pause before retrying a move *)
  move_interval : float; (** sim-time between successive moves *)
  candidates : int list option;
      (** candidate sources for the re-solve; [None] = all nodes *)
}

val default_migration : migration_policy
(** bound 3 (alpha = 2), planner-default budget, 3 retries, backoff 2,
    one move per time unit, all candidate sources. *)

type migration_event = {
  m_time : float; (* when the migration finished or aborted *)
  m_dead : int list;
  planned_moves : int;
  applied_moves : int;
  retried_moves : int; (* retry attempts across all moves *)
  degraded : bool;
      (* true when the loop fell down the ladder: re-solve infeasible
         or no safe move order (a one-shot greedy repair ran instead,
         with strategy reweighting as the last rung), or a move
         exhausted its retries mid-plan *)
  m_delay_before : float;
  m_delay_after : float;
  warm : bool; (* the re-solve had stored bases to warm-start from *)
}

(** SLO-based trigger: every finished access (success or retry
    exhaustion) feeds an {!Qp_obs.Slo} tracker on {e simulated} time,
    and the repair check additionally trips when both windows burn
    their error budget at [burn_threshold] or faster — the standard
    multiwindow rule, catching sustained availability dips even before
    the capacity or delay-EWMA heuristics notice. Requires [repair]
    (it feeds the same check loop). *)
type slo_trigger = {
  objective : Qp_obs.Slo.objective;
  fast_window : float; (** proves the problem is current *)
  slow_window : float; (** proves it is sustained; >= fast *)
  burn_threshold : float;
}

val default_slo_trigger : slo_trigger
(** 90% of accesses complete (no latency bound), windows 30/120,
    threshold 1 (= budget consumed exactly at exhaustion rate). *)

type config = {
  problem : Qp_place.Problem.qpp;
  placement : Qp_place.Placement.t;
  failure : Failure.model;
  retry : Retry.t;
  detector : Detector.config;
  adaptive : bool; (* false = always sample the static strategy *)
  repair : repair_trigger option; (* None = never migrate replicas *)
  migration : migration_policy option;
      (* with a policy, a tripped trigger runs the closed loop
         detector -> warm re-solve -> bounded-safe move plan -> staged
         application instead of the greedy repair; requires [repair] *)
  slo : slo_trigger option; (* extra trip condition for the check loop *)
  probe_interval : float; (* heartbeat period per node *)
  accesses_per_client : int;
  arrival_rate : float;
  seed : int;
}

val default_config :
  ?adaptive:bool ->
  ?repair:repair_trigger ->
  ?migration:migration_policy ->
  ?slo:slo_trigger ->
  problem:Qp_place.Problem.qpp ->
  placement:Qp_place.Placement.t ->
  failure:Failure.model ->
  unit ->
  config
(** Adaptive on, no auto-repair, no SLO trigger, legacy retry policy
    (timeout = 4x diameter, 3 attempts), default detector, heartbeat
    period 1, 200 accesses/client, rate 1, seed 1. *)

type report = {
  n_accesses : int;
  n_success : int;
  availability : float; (* successes / accesses *)
  mean_delay_success : float; (* completion delay incl. failed-attempt time *)
  mean_attempts : float;
  attempt_histogram : int array; (* index k-1: successes finishing in k *)
  hedges_launched : int;
  hedges_won : int; (* attempts resolved by the hedged wave *)
  repairs : repair_event list; (* in trigger order *)
  migrations : migration_event list; (* in completion order *)
  final_placement : Qp_place.Placement.t;
  final_suspected : int list; (* detector state at the end of the run *)
  analytic_delay : float; (* static failure-free reference delay *)
}

val validate : config -> unit
(** The checks {!run} makes first; front ends call it to turn a bad
    flag into a typed error before running.
    @raise Invalid_argument on out-of-range configuration. *)

val run : config -> report
(** Deterministic in [config] (all randomness flows from [seed]).
    @raise Invalid_argument on out-of-range configuration. *)

val predicted_availability : config -> float
(** The iid closed form [1 - (1 - s)^max_attempts], with
    [s = sum_Q p(Q) * a^|distinct hosts of Q|] over the static
    strategy and [a = Failure.node_availability failure] ([1 - p]
    under [Static p]). Co-located elements share fate. Exact for the
    static baseline under [Static]; under [Dynamic] it is an
    optimistic reference, since retries re-hit the same down node. *)
