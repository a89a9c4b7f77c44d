(** Small descriptive-statistics toolkit used by experiments and the
    simulator. All functions operate on float arrays; empty input is an
    [Invalid_argument] error unless stated otherwise. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons. *)

val stddev : float array -> float
val min : float array -> float
val max : float array -> float
val sum : float array -> float

val sort : float array -> unit
(** Sorts in place, ascending, into the same permutation as
    [Array.sort Float.compare] (the same ternary heap sort, with
    -0. and 0. equal and NaN first), without boxing an element or
    calling a comparison closure. *)

val percentile : float array -> float -> float
(** [percentile xs q] with [q] in [\[0,100\]]; linear interpolation
    between order statistics (total order via [Float.compare]). Input
    need not be sorted. NaN and infinities are rejected with
    [Invalid_argument] — order statistics are meaningless on
    non-finite data. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  max : float;
}

val summarize : float array -> summary
(** Sorts once and reads min/p50/p95/max off the sorted copy. Rejects
    non-finite inputs like {!percentile}. *)

val cdf : ?quantiles:float array -> float array -> (float * float) list
(** Empirical CDF sampled on a quantile grid: [(q, percentile q)]
    pairs, non-decreasing in value when [quantiles] ascend. Total on
    tiny samples: [[]] for empty input (a well-defined degenerate cell),
    a constant curve for singletons. Rejects non-finite data like
    {!percentile}. *)

val pp_summary : Format.formatter -> summary -> unit

type online
(** Constant-space online accumulator (Welford). *)

val online_create : unit -> online
val online_add : online -> float -> unit
val online_mean : online -> float
val online_stddev : online -> float
val online_count : online -> int

val online_merge : online -> online -> online
(** Parallel Welford combine: the result is equivalent (up to
    roundoff) to folding both input streams into a single accumulator.
    Inputs are not mutated; either side may be empty. *)
