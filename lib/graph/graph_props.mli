(** Structural graph/metric properties used by experiments and the
    CLI: eccentricities, radius/diameter, center, 1-median. *)

val radius : Metric.t -> float
val diameter : Metric.t -> float
val center : Metric.t -> int
(** A vertex with minimum eccentricity (smallest id on ties). *)

val one_median : Metric.t -> int
(** A vertex minimizing the average distance to all vertices. *)

val average_path_length : Metric.t -> float
(** Mean over ordered pairs (v <> v'). *)
