(** Exact combinatorics on native ints.

    Used by the Majority closed form (Eq. 19 of the paper), whose terms
    are binomial coefficients; native 63-bit ints are exact for every
    instance size we evaluate (n <= 60). Overflow raises. *)

val binomial : int -> int -> int
(** [binomial n k] = n choose k; 0 when [k < 0] or [k > n].
    @raise Failure on 63-bit overflow. *)

val factorial : int -> int
(** Exact factorial; raises on overflow (n > 20). *)

val choose_iter : int -> int -> (int list -> unit) -> unit
(** [choose_iter n k f] calls [f] on every size-[k] subset of
    [0..n-1], each as a sorted list. *)

val log_binomial : int -> int -> float
(** Natural log of the binomial coefficient via [lgamma]; usable when
    the exact value would overflow. *)
