(** Exact optima for small instances — the oracles behind the
    approximation-ratio columns of the experiment tables.

    The subset DP applies to the "uniform" case where every element
    has the same load and every node's capacity admits at most one
    element (after {!Capacity.expand} preprocessing this covers the
    Section 4 setting). A swap argument shows an optimal solution uses
    only the [|U|] nodes closest to the source, one element each, so
    the DP scans nodes in distance order and decides which element
    each receives. *)

val ssqpp_uniform_dp : Problem.ssqpp -> (float * Placement.t) option
(** Exact optimum of SSQPP when all element loads are equal and every
    node with [cap >= load] holds at most one element
    ([load <= cap < 2 load] — checked). [None] when fewer eligible
    nodes than elements exist. @raise Invalid_argument when the
    uniformity preconditions fail or [|U| > 20]. *)

val ssqpp_brute_force : Problem.ssqpp -> (float * Placement.t) option
(** General capacities/loads by exhaustive search over all [n^|U|]
    placements; guarded to [n^|U| <= 2_000_000]. [None] when no
    capacity-respecting placement exists. *)

val qpp_brute_force : Problem.qpp -> (float * Placement.t) option
(** Exhaustive optimum of the full (all-clients) QPP objective; same
    guard.

    The three brute-force searches poll {!Qp_lp.Cancel.check_deadline}
    every 1024 placements. @raise Qp_util.Qp_error.Error [(Internal _)]
    once the calling domain's deadline has passed. *)

val total_delay_brute_force : Problem.qpp -> (float * Placement.t) option
(** Exhaustive optimum of [Avg_v Gamma_f(v)]; same guard. *)
