(** Adaptive access strategy: online reweighting of p(Q).

    The paper optimizes a static strategy/placement pair for the
    failure-free network. Under churn, quorums whose hosts are down
    burn a whole timeout per touch. This module steers the access
    distribution away from them: each quorum's probability is scaled
    by its {e health}, the product over its distinct host nodes of
    [1 - suspicion(v)] (an estimate of the probability all hosts are
    up, using the detector's per-node suspicion as failure
    probability), then renormalized.

    Two boundary behaviours make the loop safe:
    - when the detector is {!Detector.healthy}, the static strategy is
      returned {e unchanged} (physically equal), so the paper's delay
      analysis holds exactly in the failure-free case;
    - when every supported quorum is fully suspected, reweighting has
      no signal and the static strategy is used as fallback. *)

val distinct_hosts : Qp_quorum.Quorum.system -> Qp_place.Placement.t -> int -> int list
(** The distinct nodes hosting a quorum's elements, sorted. *)

val strategy :
  Qp_quorum.Quorum.system ->
  Qp_place.Placement.t ->
  Detector.t ->
  static:Qp_quorum.Strategy.t ->
  Qp_quorum.Strategy.t
(** The reweighted strategy for the current detector state. *)

(** {2 Cached view}

    Recomputing the reweighting on every access is O(system size);
    the cache rebuilds only when the detector's {!Detector.version}
    changes (some node crossed the suspect threshold) or the placement
    is swapped by a repair. *)

type cached

val make :
  Qp_quorum.Quorum.system ->
  Qp_place.Placement.t ->
  static:Qp_quorum.Strategy.t ->
  cached

val refresh : cached -> Detector.t -> Qp_quorum.Strategy.t
(** Current strategy, rebuilt if stale. *)

val sampler : cached -> Detector.t -> Qp_util.Rng.sampler
(** The {!Qp_util.Rng.sampler} of the current strategy, after a
    {!refresh}; rebuilt only when the strategy itself is. *)

val set_placement : cached -> Detector.t -> Qp_place.Placement.t -> unit
(** Invalidate after a repair moved elements. *)
