(** Bounded-safe migration between placements.

    A live system cannot jump from placement [f] to a freshly solved
    [f']: elements move one at a time, and a naive order can pile load
    onto a node far beyond the paper's [(alpha+1) * cap] guarantee
    mid-transition. This module plans an ordered sequence of single
    element moves from [f] to [f'] such that {e every} intermediate
    placement stays within a load bound and preserves quorum
    availability.

    Safety model: a move is atomic copy-then-drop — while element [u]
    is in flight from [src] to [dst], [dst] already carries [u]'s load
    (its post-move load) and [src] still does (its pre-move load).
    Both states are prefix placements of the plan, so checking every
    prefix covers every transient. Each intermediate is a total
    placement, so every quorum stays reachable throughout; {!check}
    verifies node-level quorum intersection on each prefix anyway, as
    defense in depth.

    The planner is greedy: it repeatedly moves the largest displaced
    load whose final destination currently has headroom. When no
    displaced element fits its destination (a capacity cycle), it
    degrades to a {e staged drain} — parking the smallest displaced
    load on the relay node with most headroom, which breaks the cycle
    at the cost of one extra move. Everything runs under a total move
    budget; exhausting it, or deadlocking with no relay headroom,
    yields a typed [Infeasible] so the caller can fall back (larger
    bound, strategy reweighting only). *)

type move = { elem : int; src : int; dst : int }

type plan = {
  moves : move list;  (** in execution order *)
  bound : float;  (** load multiplier the plan was checked against *)
  max_ratio : float;
      (** worst [load(v)/cap(v)] over every intermediate placement *)
  drains : int;  (** moves that parked an element on a relay node *)
}

val plan :
  ?bound:float ->
  ?budget:int ->
  Problem.qpp ->
  current:Placement.t ->
  target:Placement.t ->
  (plan, Qp_util.Qp_error.t) result
(** [plan p ~current ~target] orders the moves from [current] to
    [target]. [bound] (default 3, the paper's [(alpha+1)] at
    [alpha = 2]) caps every intermediate node load at [bound * cap(v)];
    a node whose {e starting} load already exceeds that (capacity
    shrank under churn) is grandfathered at its starting load and may
    only shrink. [budget] (default [2 * displaced + 2]) caps total
    moves including drains. Errors: [Infeasible] when the target
    itself violates the bound, when the budget is exhausted, or when a
    deadlock has no relay headroom; [Invalid_instance] on malformed
    placements. *)

val check :
  Problem.qpp ->
  current:Placement.t ->
  target:Placement.t ->
  plan ->
  (unit, Qp_util.Qp_error.t) result
(** Independent verifier: replays the plan from [current] and checks
    every prefix placement for the load allowance and node-level
    quorum intersection, and that the final placement equals
    [target]. [Capacity_violation] pinpoints the first offending
    node. Used by the qcheck safety property and the runtime engine
    before applying a plan. *)

val apply_move : Placement.t -> move -> Placement.t
(** Pure single-move application (copies).
    @raise Invalid_argument if the move's [src] does not match. *)

val intermediates : current:Placement.t -> move list -> Placement.t list
(** All prefix placements, one per move, ending with the final one. *)

val pp : Format.formatter -> plan -> unit
