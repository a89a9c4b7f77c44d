(** Linear-program model builder.

    Variables are dense ints [0 .. n_vars-1], all constrained to be
    non-negative (the placement LPs of the paper only need [x >= 0];
    upper bounds are expressed as rows). The objective is always
    MINIMIZED; negate coefficients to maximize.

    Models are consumed by {!Simplex.solve}. *)

type cmp = Le | Ge | Eq

type constr = { terms : (int * float) list; cmp : cmp; rhs : float }

type t

val create : int -> t
(** [create n] is a model with [n] non-negative variables and zero
    objective. *)

val n_vars : t -> int
val n_constraints : t -> int

val set_objective : t -> int -> float -> unit
(** [set_objective lp v c] sets the objective coefficient of variable
    [v] to [c] (overwrites). *)

val objective : t -> float array

val with_objective : t -> float array -> t
(** [with_objective lp c] is a model with the rows of [lp] and the
    objective [c] (copied). The rows are shared, not copied: building
    them once and solving under many objectives costs one row list.
    Adding a row to either model leaves the other unchanged. The
    {!start} is kept.
    @raise Invalid_argument unless [c] has one entry per variable. *)

val same_rows : t -> t -> bool
(** [same_rows a b] holds when [b] has [a]'s variables, its very row
    list and its start, as {!with_objective} of one from the other
    gives; only the objectives may differ. A row added to or a start
    set on either one since makes it false. *)

val add_constraint : t -> (int * float) list -> cmp -> float -> unit
(** [add_constraint lp terms cmp rhs] appends a row
    [sum_i c_i x_i cmp rhs]. Duplicate variable mentions are summed;
    a variable mentioned once keeps the given pair, so rows may share
    their term pairs.
    @raise Invalid_argument on out-of-range variables. *)

val set_start : t -> int array -> unit
(** [set_start lp cols] records a start: variables whose columns form
    a basis at a primal-feasible point, e.g. one built from a feasible
    integral assignment. {!Simplex.solve} crash-starts from it and
    skips phase 1 when the crash is primal-feasible; it checks that, so
    a wrong start costs phase 1, never a wrong answer.
    @raise Invalid_argument on out-of-range variables. *)

val start : t -> int array option
(** The start recorded by {!set_start}; [None] on a fresh model. *)

val constraints : t -> constr list
(** Rows in insertion order. *)

val eval_terms : (int * float) list -> float array -> float
(** Dot product of a row with a point. *)

val is_feasible : ?tol:float -> t -> float array -> bool
(** Checks non-negativity and every row at the given point. *)

val holds : tol:float -> cmp -> rhs:float -> float -> bool
(** [holds ~tol cmp ~rhs lhs] is {!is_feasible}'s test of one row
    whose terms sum to [lhs] at the point: [lhs cmp rhs] within [tol]
    times [max 1 |rhs|]. *)

val objective_value : t -> float array -> float

val pp : Format.formatter -> t -> unit
