(** Retry policies for quorum accesses.

    One description of client-side failure handling shared by every
    {!Engine} configuration, static baseline and closed loop alike, so
    "equal retry budget" comparisons are meaningful:

    - a per-attempt [timeout] after which the attempt counts as failed;
    - up to [max_attempts] attempts per access;
    - an optional exponential {!backoff} between attempts, with
      multiplicative {!field:t.jitter} to decorrelate clients
      (thundering-herd avoidance);
    - an optional {e hedge}: if an attempt has not resolved
      [hedge.after] time units in, a second, independently sampled
      quorum is probed and the attempt succeeds if either completes —
      the classic tail-latency mitigation (cf. "The Tail at Scale"),
      bounded to one hedge per attempt.

    {!fixed} is the static baseline's policy (retry exactly at timeout
    expiry, no jitter, no hedging), the one the availability
    experiments run. *)

type backoff =
  | No_backoff
  | Exponential of { base : float; factor : float; max : float }
      (** Wait [min max (base * factor^(k-1))] after failed attempt
          [k]. *)

type hedge = { after : float }
(** Launch a second quorum probe [after] time units into an
    unresolved attempt; must satisfy [0 < after < timeout]. *)

type t = {
  max_attempts : int;
  timeout : float; (* per-attempt give-up time *)
  backoff : backoff;
  jitter : float; (* in [0, 1): backoff *= 1 + U(-jitter, jitter) *)
  hedge : hedge option;
}

val validate : t -> unit
(** @raise Invalid_argument on any out-of-range field. *)

val fixed : timeout:float -> max_attempts:int -> t
(** The legacy model: constant timeout, immediate retry, no hedging. *)

val exponential :
  ?jitter:float ->
  ?hedge_after:float ->
  timeout:float ->
  base:float ->
  ?factor:float ->
  ?max_backoff:float ->
  max_attempts:int ->
  unit ->
  t
(** Exponential backoff policy; defaults: jitter 0.2, factor 2, no
    backoff cap, no hedging. *)

val base_backoff : t -> attempt:int -> float
(** Deterministic (un-jittered) backoff after failed attempt
    [attempt] (1-based). *)

val backoff_delay : t -> Qp_util.Rng.t -> attempt:int -> float
(** Jittered backoff sample; equals {!base_backoff} when jitter is 0. *)
