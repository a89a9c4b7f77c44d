(** The shared failure model of the sim layer.

    The resilience {!Engine} draws node failures from this two-mode
    process in every configuration, the static fault-injection
    baseline included, so results are comparable across the stack:

    - [Static p]: every probe independently finds its node failed with
      probability [p] (memoryless; matches the iid availability
      analysis exactly).
    - [Dynamic {mtbf; mttr}]: nodes alternate exponential up/down
      periods (mean time between failures / to repair). Temporally
      correlated — retries hitting the same down replica keep failing
      — which is the regime where failure detection pays off. *)

type model = Static of float | Dynamic of { mtbf : float; mttr : float }

val validate : model -> unit
(** @raise Invalid_argument on [Static] outside [0, 1] (or NaN), or
    on [mtbf]/[mttr] that is not positive and finite. *)

val node_availability : model -> float
(** Per-node steady-state probability of being up: [1 - p] for
    [Static p], [mtbf / (mtbf + mttr)] for [Dynamic]. *)

val install_churn :
  model -> n:int -> rng:Qp_util.Rng.t -> up:bool array -> Event.t -> unit
(** Under [Dynamic], schedules the regenerating crash/repair process
    for [n] nodes, flipping [up.(v)] as nodes die and recover. A no-op
    under [Static] (liveness is then decided per probe by
    {!probe_up}).

    Pass a {e dedicated} [rng] stream (e.g. [Rng.split] of the seeded
    workload stream): the crash/repair chains then depend only on that
    stream, so two simulators seeded alike face the bit-identical
    failure trajectory regardless of how their workloads consume
    randomness — comparisons become paired. *)

val probe_up : model -> rng:Qp_util.Rng.t -> up:bool array -> int -> bool
(** Outcome of one probe of [node]: an iid draw under [Static], the
    current [up] state under [Dynamic]. *)
