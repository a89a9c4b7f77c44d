(** Instance specifications: one named, validated description of a
    problem instance, shared by the CLI, the benchmark experiments and
    the property tests.

    A {!t} captures everything needed to regenerate a problem
    deterministically: topology name, node count, quorum-system
    construction, capacity slack and seed. {!build} turns it into a
    {!Qp_place.Problem.qpp} — always through the same construction
    path (seeded rng, topology, uniform strategy, capacities =
    [cap_slack * max element load]), so every front end generates
    byte-identical instances from the same spec.

    All validation failures come back as
    [Error (Invalid_instance _)] — never an exception. *)

type t = {
  topology : string;
      (* path | cycle | star | complete | tree | waxman | geometric[:R]
         | barbell | region:NAME (embedded RTT table, see {!Region}) *)
  nodes : int;
  system : string;
      (* grid:K | majority:N:T | fpp:Q | tree:D | wheel:N | star:N
         | triangle *)
  cap_slack : float; (* capacity per node / max element load *)
  seed : int;
  jobs : int; (* worker domains; 0 = all cores (resolved by front ends) *)
}

val default : t
(** The CLI defaults: waxman topology, 16 nodes, grid:3, slack 1.0,
    seed 1, jobs 0. *)

val pp : Format.formatter -> t -> unit

val canonical_key : t -> string
(** Injective encoding of the instance identity this spec denotes:
    topology, nodes, system, cap_slack (exact float round-trip) and
    seed — everything {!build} consumes. [jobs] is deliberately
    excluded: it is a resource knob that never affects results, so
    specs differing only in [jobs] share a key. This is the spec
    component of the qp_serve placement-cache key. *)

val solver_hints :
  t -> Qp_place.Solver.topology_hint option * string option
(** [(topology_hint, system_hint)] for {!Qp_place.Solver.params}: what
    the [auto] dispatcher should know about instances built from this
    spec. Hints select specialists worth trying; each specialist
    validates its own applicability, so they are advisory only. *)

val build_topology :
  string -> int -> Qp_util.Rng.t -> (Qp_graph.Graph.t, Qp_util.Qp_error.t) result
(** [build_topology name n rng]. ["geometric"] uses connection radius
    0.4; ["geometric:R"] overrides it. ["region:NAME"] expands the
    embedded RTT table NAME ({!Region.names}) into the complete
    weighted graph on [n] nodes — deterministic, the rng is unused. *)

val build_system : string -> (Qp_quorum.Quorum.system, Qp_util.Qp_error.t) result

val uniform_problem :
  graph:Qp_graph.Graph.t ->
  system:Qp_quorum.Quorum.system ->
  slack:float ->
  Qp_place.Problem.qpp
(** The shared construction: uniform strategy, every node's capacity
    set to [slack] times the maximum element load.
    @raise Invalid_argument on an invalid instance (use {!build} for
    untrusted input). *)

val build : t -> (Qp_place.Problem.qpp, Qp_util.Qp_error.t) result
(** Validates the spec ([nodes > 0], finite [cap_slack > 0], known
    topology and construction) and builds the instance. Deterministic:
    equal specs yield byte-identical problems
    ({!Qp_place.Serialize.problem_to_string}). *)
