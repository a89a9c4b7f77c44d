(** Scenario specifications: one JSON file describing a geo-distributed
    workload end to end — topology, quorum system, read/write mix,
    client skew and an offered-load sweep.

    The spec format is [qp-scenario-spec/1], parsed with the
    dependency-free telemetry JSON ({!Qp_obs.Json}):

    {v
    { "schema": "qp-scenario-spec/1",
      "name": "aws3-read-heavy",
      "topology": "region:aws-3",
      "nodes": 9,
      "system": "rw-grid:3",
      "read_fraction": 0.9,
      "clients": { "skew": "zipf", "exponent": 1.0 },
      "offered_loads": [0.5, 1.0, 2.0],
      "accesses_per_client": 200,
      "service": "exp:1",
      "alg": "auto",
      "seed": 1 }
    v}

    [schema], [name], [topology], [nodes] and [system] are required;
    everything else defaults ({!default}). [system] accepts the plain
    quorum-system grammar (symmetric reads = writes) or the
    asymmetric read/write families ({!Qp_quorum.Rw_qs.rw_names}).
    Unknown top-level fields are rejected — a typoed knob fails loudly
    instead of silently running the default. *)

type t = {
  name : string;
  topology : string;  (** any [Spec.build_topology] name, e.g. ["region:aws-3"] *)
  nodes : int;
  system : string;  (** plain system grammar or an rw family *)
  read_fraction : float;  (** rho in [0, 1]: share of accesses that are reads *)
  skew : Clients.skew;
  offered_loads : float array;
      (** arrival-rate multipliers swept into the latency–throughput curve *)
  accesses_per_client : int;
  service : Qp_sim.Access_sim.service;
  protocol : Qp_sim.Access_sim.protocol;
  alg : string;  (** solver registry name *)
  alpha : float;
  cap_slack : float;
  seed : int;
}

val default : t
(** The field defaults merged under a parsed spec: rho 0.5, uniform
    clients, one offered load 1.0, 200 accesses per client, [exp:1]
    service, parallel protocol, [auto] solver, alpha 2, slack 1,
    seed 1. *)

val schema : string
(** ["qp-scenario-spec/1"]. *)

val of_string : string -> (t, Qp_util.Qp_error.t) result
(** Parse and validate a spec. All failures are
    [Error (Invalid_instance _)] naming the offending field. *)

val validate : t -> (t, Qp_util.Qp_error.t) result
(** Range checks on a directly-constructed spec (the same ones
    {!of_string} applies). *)

val region_table : t -> Qp_instance.Region.t option
(** The region table of a ["region:NAME"] topology, [None] otherwise
    (including unknown table names — topology errors surface when the
    runner builds the graph). *)

val service_to_string : Qp_sim.Access_sim.service -> string
val protocol_to_string : Qp_sim.Access_sim.protocol -> string
val pp : Format.formatter -> t -> unit
