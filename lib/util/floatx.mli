(** Tolerant float comparisons shared by the LP solver, rounding code
    and tests. One tolerance policy for the whole repository avoids the
    classic failure mode of each module inventing its own epsilon. *)

val eps : float
(** Default absolute/relative tolerance, 1e-9. *)

val approx : ?tol:float -> float -> float -> bool
(** [approx a b] holds when [|a - b| <= tol * max(1, |a|, |b|)]. *)

val leq : ?tol:float -> float -> float -> bool
(** [leq a b] is [a <= b] up to tolerance. *)
