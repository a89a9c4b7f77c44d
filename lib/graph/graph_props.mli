(** Structural graph/metric properties used by experiments and the
    CLI: eccentricities, radius/diameter, center, 1-median. *)

val radius : Metric.t -> float
val diameter : Metric.t -> float
val center : Metric.t -> int
(** A vertex with minimum eccentricity (smallest id on ties). *)

val one_median : Metric.t -> int
(** A vertex minimizing {!Metric.average_distance}, the unweighted
    [AvgDist(v)]; the lowest id wins ties (strict [<] over increasing
    [v]), and 0 for an empty metric. The hub of Lin's single-node
    design and of [Baselines.lin_single_node]. *)
