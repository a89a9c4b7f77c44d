(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the repository flows through this module so that
    experiments and property tests are reproducible bit-for-bit from a
    seed. The generator is the splitmix64 mixer of Steele, Lea and
    Flood, which has a 64-bit state, passes BigCrush, and is trivially
    splittable. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created
    with the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool
(** Fair coin. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate). Requires [rate > 0.]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k n] draws [k] distinct values from [0..n-1].
    Requires [k <= n]. *)

type sampler
(** A categorical distribution prepared for repeated draws: the prefix
    sums of its weights. *)

val sampler : float array -> sampler
(** [sampler w] prepares draws of index [i] with probability
    proportional to [w.(i)]. O(length w), once per distribution.
    @raise Invalid_argument unless [w] is non-empty, every weight is
    finite and non-negative, and the sum is positive and finite. *)

val draw : t -> sampler -> int
(** [draw t s] consumes one [float t total] and returns the first [i]
    whose prefix sum exceeds it (the last index if none does) in
    O(log length). The stream of indices is the
    one a linear scan accumulating the weights left to right yields. *)

val categorical : t -> float array -> int
(** [categorical t w = draw t (sampler w)]: a one-off draw. Build the
    {!sampler} once when drawing repeatedly from the same weights. *)
