(** Domain-local wall-clock deadlines for cooperative solver
    cancellation, shared by the simplex pivot loop and the tree
    branch-and-bound ([Qp_place.Tree_place]). Front ends should use
    the re-exports on {!Simplex} ([set_deadline] / [get_deadline]). *)

val set_deadline : float option -> unit
val get_deadline : unit -> float option

val check_deadline : unit -> unit
(** @raise Qp_util.Qp_error.Error [(Internal _)] once the domain's
    deadline (if any) has passed. *)
