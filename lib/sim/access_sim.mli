(** Discrete-event simulation of quorum accesses over a placed quorum
    system.

    Clients (all network nodes, or rate-weighted) issue quorum
    accesses; each access samples a quorum from the access strategy
    and contacts the nodes hosting its elements. Two protocols:

    - [Parallel]: probes go out simultaneously; the access completes
      when the slowest element answers — the max-delay model
      (Eq. 1).
    - [Sequential]: elements are visited one after another — the
      total-delay model (Section 5).

    Link latency is the metric distance (optionally jittered); each
    node is a FIFO single server with configurable service time, so
    under load the simulation also exhibits the queueing the paper's
    capacity constraints exist to prevent.

    In the calibration configuration (one-way measurement, zero
    service, no jitter) the simulated mean delay equals the analytic
    [Avg_v Delta_f(v)] / [Avg_v Gamma_f(v)] exactly up to sampling
    noise — experiment E8. *)

type protocol = Parallel | Sequential

type service = Zero | Fixed of float | Exponential of float

type config = {
  problem : Qp_place.Problem.qpp;
  placement : Qp_place.Placement.t;
  protocol : protocol;
  round_trip : bool;
      (* if true, an element is "reached" when its reply returns and
         service time applies; if false, one-way probe arrival — the
         paper's analytic model *)
  service : service;
  jitter : float; (* each link latency is scaled by U[1, 1+jitter] *)
  accesses_per_client : int;
  arrival_rate : float; (* per-client Poisson rate *)
  seed : int;
}

val default_config :
  problem:Qp_place.Problem.qpp -> placement:Qp_place.Placement.t -> config
(** Calibration defaults: [Parallel], one-way, [Zero] service, no
    jitter, 200 accesses per client, rate 1.0, seed 1. *)

type report = {
  n_accesses : int;
  mean_delay : float;
  delay_summary : Qp_util.Stats.summary;
  per_client_mean : float array;
  node_probes : int array; (* probes handled per node *)
  empirical_node_load : float array; (* probes / accesses: estimates load_f *)
  analytic_delay : float; (* Avg Delta_f or Avg Gamma_f per protocol *)
  relative_error : float; (* |mean - analytic| / analytic (0 when analytic = 0) *)
  makespan : float;
      (* virtual time at which the last access completes; accesses /
         makespan is the simulated throughput of the run *)
}

val run : ?analytic:float -> config -> report
(** Runs the simulation. The quorum sampler is built once per run, and
    the number of discrete events processed is added to the
    [qp_sim_events_total] counter of the current registry. [analytic]
    is the placement's analytic delay ([Avg Delta_f] or [Avg Gamma_f]
    per protocol) when the caller has it already, as a sweep over
    offered loads does; by default it is computed here.
    @raise Invalid_argument before any event is scheduled unless the
    placement is valid, [accesses_per_client > 0], [arrival_rate] is
    positive (not NaN), [jitter] is non-negative and finite, a [Fixed]
    service time is non-negative and finite and an [Exponential] mean
    is positive and finite. *)
