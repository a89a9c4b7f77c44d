(** Serialization of problem instances, placements and solver
    outcomes.

    Instances use a line-oriented, versioned plain-text format so they
    can be saved from the CLI, shipped in bug reports, and reloaded
    bit-exactly:

    {v
    qplace-instance v1
    nodes <n>
    metric
    <n rows of n floats>
    capacities
    <n floats>
    universe <u>
    quorums <m>
    q <sorted element ids>          (m lines)
    strategy
    <m floats>
    rates none | rates
    [<n floats>]
    end
    v}

    Floats are printed with ["%.17g"] so round-trips are exact.

    Solver outcomes ({!Outcome.t}) serialize to single-line JSON under
    the versioned schema ["qp-solve/1"] (the [qplace solve
    --format json] output; cf. the [qp-bench/2] artifact schema).
    Finite floats round-trip exactly through {!Qp_obs.Json}.

    All parsers follow the repository error convention: malformed
    input comes back as [Error (Invalid_instance _)] — never an
    exception. *)

val problem_to_string : Problem.qpp -> string

val problem_of_string : string -> (Problem.qpp, Qp_util.Qp_error.t) result
(** [Error (Invalid_instance _)] with a line-numbered message on
    malformed input (also when the embedded metric/system/strategy
    fails validation). *)

val placement_to_string : Placement.t -> string
(** Space-separated node ids on one line. *)

val placement_of_string : string -> (Placement.t, Qp_util.Qp_error.t) result
(** [Error (Invalid_instance _)] on non-integer tokens. Range/shape
    checking against a problem is the caller's job
    ({!Placement.validate}). *)

val save_problem : string -> Problem.qpp -> (unit, Qp_util.Qp_error.t) result
(** [Error (Invalid_instance _)] when the file cannot be written. *)

val load_problem : string -> (Problem.qpp, Qp_util.Qp_error.t) result
(** [Error (Invalid_instance _)] when the file cannot be read or does
    not parse. *)

(** {2 Outcome JSON} *)

val outcome_to_json : Outcome.t -> Qp_obs.Json.t

val outcome_of_json : Qp_obs.Json.t -> (Outcome.t, Qp_util.Qp_error.t) result

val outcome_to_string : Outcome.t -> string
(** Compact single-line JSON. *)

val outcome_of_string : string -> (Outcome.t, Qp_util.Qp_error.t) result

(** {2 Typed-error JSON}

    The wire representation of {!Qp_util.Qp_error.t} used by the
    serving layer ([qp_serve] error frames): an object with a stable
    [code] plus a human [message] (and the node/load/cap fields for
    capacity violations). *)

val error_code : Qp_util.Qp_error.t -> string
(** ["invalid_instance" | "infeasible" | "capacity_violation" |
    "internal"] — stable across schema versions. *)

val error_to_json : Qp_util.Qp_error.t -> Qp_obs.Json.t

val error_of_json :
  Qp_obs.Json.t -> (Qp_util.Qp_error.t, Qp_util.Qp_error.t) result
(** Inverse of {!error_to_json} ([Error (Invalid_instance _)] on a
    malformed payload). *)
