(** The SSQPP linear program, Eqs. (9)–(14).

    Nodes are renamed [v_0, v_1, ...] by increasing distance from the
    source ([d_0 = 0 <= d_1 <= ...]); [x_tu] fractionally places
    element [u] on the node of rank [t], and [x_tQ] marks the rank by
    which all of quorum [Q] has been placed:

    min  sum_Q p(Q) sum_t d_t x_tQ                      (9)
    s.t. sum_t x_tu = 1                     for all u   (10)
         sum_t x_tQ = 1                     for all Q   (11)
         sum_u load(u) x_tu <= cap(v_t)     for all t   (12)
         x_tu = 0 when load(u) > cap(v_t)               (13)
         sum_{s<=t} x_sQ <= sum_{s<=t} x_su
                     for all Q, u in Q, t               (14)

    Appendix A shows this relaxation has integrality gap
    Omega(sqrt n), which is why Theorem 3.7 rounds it with a capacity
    blow-up rather than exactly (experiment F1 reproduces the gap). *)

type fractional = {
  rank_of_node : int array; (* node id -> rank t *)
  node_of_rank : int array; (* rank t -> node id *)
  dist : float array; (* d_t by rank *)
  x_elem : float array array; (* rank t -> element u -> x_tu *)
  x_quorum : float array array; (* rank t -> quorum index -> x_tQ *)
  z_star : float; (* optimal LP value, lower bound on Delta_{f*}(v0) *)
}

val build : Problem.ssqpp -> Qp_lp.Lp.t * (int -> int -> int) * (int -> int -> int)
(** [build s] returns the LP plus the variable numbering
    [(var_elem t u, var_quorum t q)]; exposed for white-box tests.
    The LP carries a {!Qp_lp.Lp.start} whenever a first-fit assignment
    exists (elements by decreasing load, each on the lowest rank with
    room left): x_{f(u),u} for each element and x_{t_Q,Q} with
    t_Q = max_{u in Q} f(u) for each quorum, which with the slacks of
    rows (12)–(14) is a primal-feasible basis, so
    {!Qp_lp.Simplex.solve} skips phase 1. With no first-fit assignment
    (bin packing, though the LP may still be fractionally feasible) it
    carries none. *)

type blocks
(** Rows (10)–(14) for the candidate sources of one solve, each with
    its {!Qp_lp.Simplex.prepared} start. Those rows depend on the
    source only through the capacity of the node at each rank, so
    sources with the same capacity-by-rank vector share one block: with
    uniform capacities a solve takes, and charges the first-fit start
    crash of, one block, not one per source. Immutable once built, so
    the candidates of a pool fan-out read it concurrently; meant to
    live for one solve. *)

val blocks : Problem.qpp -> int list -> blocks
(** [blocks p candidates] takes one block per capacity-by-rank vector
    that two or more of [candidates] share, counting the crash pivots
    of each start once, in the current metrics registry. Each block
    comes from a process-wide cache of the last
    {!block_cache_capacity} blocks used, keyed by the universe, the
    quorums, the strategy and the capacity-by-rank vector (floats bit
    for bit), or is built and prepared on a miss and kept if it has at
    most 512 rows. Its crash pivots count on a hit as on a miss, so the
    counters, like every output bit, do not depend on earlier solves.
    A candidate whose vector is its own builds its rows when its LP is
    made ({!solve_warm}), so a solve where every source ranks the
    capacities differently takes nothing up front. *)

val block_cache_capacity : int
(** Blocks the cache of {!blocks} keeps at most (4); the least recently
    used leaves first. *)

val block_cache_stats : unit -> int * int
(** [(hits, misses)] of the cache of {!blocks} since start or the last
    {!reset_block_cache}. *)

val reset_block_cache : unit -> unit
(** Empties the cache of {!blocks} and zeroes its counts. *)

val n_blocks : blocks -> int

val solve : ?max_pivots:int -> Problem.ssqpp -> fractional option
(** [None] when the LP is infeasible (capacities cannot hold the
    loads). [max_pivots] overrides the {!Qp_lp.Simplex.solve} pivot
    budget; exhausting it raises
    [Qp_util.Qp_error.Error (Internal _)] (caught at the solver-engine
    boundary). *)

val solve_warm :
  ?max_pivots:int ->
  ?warm:Qp_lp.Simplex.basis ->
  ?blocks:blocks ->
  Problem.ssqpp ->
  fractional option * Qp_lp.Simplex.basis option
(** Like {!solve}, threading a {!Qp_lp.Simplex.basis} through the
    solve: pass the basis returned by a previous solve of the same
    source on a slightly perturbed instance and the simplex crash-starts
    from it (falling back to the cold path when the delta moved the
    optimum too far or changed the LP layout, e.g. by re-ranking nodes
    or toggling an oversize-pinning row). The returned basis is [None]
    when the LP is infeasible. With [~blocks] (built from the same
    problem) the LP takes its rows and prepared start from the block
    of its capacity-by-rank vector; one missing from [blocks] is built
    and prepared afresh. The LP, and so every output bit, is the one
    {!build} makes, start included. A candidate LP without a start counts in
    [qp_simplex_start_total{outcome="no_first_fit"}]. *)

val quorum_frontier : fractional -> int -> float
(** [quorum_frontier sol q] = [D_Q = sum_t d_t x_tQ], the per-quorum
    fractional delay used by Claim 3.8. *)
