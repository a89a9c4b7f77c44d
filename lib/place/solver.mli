(** The solver engine: one registry of placement algorithms behind a
    single typed interface.

    Every algorithm in the library (the Theorem 1.2 LP rounding, the
    Theorem 5.1 GAP route, the Section 4 closed-form layouts, the
    exact oracles and the baselines) is wrapped as a {!t} and
    registered here under a stable name. The CLI, the benchmark
    experiments and the property tests all select algorithms by
    registry lookup, so the set of solvers, their documented
    guarantees and the dispatch tables cannot drift apart.

    Contract: [solve] never raises. Invalid instances come back as
    [Error (Invalid_instance _)], capacity-infeasible ones as
    [Error (Infeasible _)], and internal numerical failures as
    [Error (Internal _)] (see {!Qp_util.Qp_error}). *)

module Qp_error = Qp_util.Qp_error

type kind = Approximation | Exact | Closed_form | Heuristic | Meta


type topology_hint = Tree_metric | General_metric
(** What the front end knows about the instance's metric. Hints only
    steer the [auto] dispatcher toward a specialist worth TRYING; every
    specialist validates its own applicability (the tree solver
    verifies the tree-metric property), so a wrong hint costs a failed
    attempt, never a wrong answer. *)

type params = {
  alpha : float; (* Theorem 3.7 rounding parameter (LP route) *)
  source : int; (* v0 for single-source layouts and greedy *)
  seed : int; (* randomized solvers *)
  candidates : int list option; (* candidate sources for the LP route *)
  pivot_budget : int option;
      (* work cap: simplex pivots on the LP route ([None] = the
         {!Qp_lp.Simplex} default), branch-and-bound search nodes on
         the tree route; exhaustion comes back as
         [Error (Internal _)]. Other solvers ignore it. *)
  topology_hint : topology_hint option;
      (* [auto] dispatch: [Some Tree_metric] routes to the tree-exact
         solver first. [None] = unknown (e.g. instance files). *)
  system_hint : string option;
      (* [auto] dispatch: the quorum-system family name ("grid",
         "majority", ...) for the closed-form layouts. *)
}

val default_params : params
(** [alpha = 2.], [source = 0], [seed = 2], [candidates = None]
    (= all nodes), [pivot_budget = None], no dispatch hints. *)

type t = {
  name : string; (* registry key, e.g. "lp" *)
  kind : kind;
  theorem : string; (* paper result implemented, "-" for baselines *)
  guarantees : string; (* one-line proven guarantee statement *)
  label : string; (* result-table title used by the CLI *)
  load_bound : params -> float option;
      (* declared bound on load_f(v)/cap(v); [None] when the
         formulation has no capacity constraint *)
  headline : Outcome.t -> string list;
      (* human-readable lines the CLI prints above the result table *)
  solve : params -> Problem.qpp -> (Outcome.t, Qp_error.t) result;
}

val register : t -> unit
(** @raise Invalid_argument on a duplicate name (programmer error). *)

val all : unit -> t list
(** Registration order — the order of the CLI/README tables. *)

val names : unit -> string list

val find : string -> (t, Qp_error.t) result
(** [Error (Invalid_instance _)] (listing the known names) when no
    solver is registered under [name]. *)

val find_exn : string -> t
(** For callers that pass a literal name. @raise Not_found. *)

val registry_table_markdown : unit -> string
(** The algorithm table (name, kind, paper result, guarantees) as
    GitHub markdown — the README table is generated from this so the
    two cannot drift (enforced by a test). *)
