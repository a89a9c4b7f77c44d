(** Read/write quorum systems: asymmetric access over one universe.

    The paper's model has a single quorum family and one access
    strategy. Real replicated stores (and the quoracle line of work)
    distinguish {e read} quorums from {e write} quorums over the same
    universe: reads need not intersect each other, but every read must
    intersect every write (a read sees the latest write) and writes
    must pairwise intersect (writes serialize). A workload is then a
    {e read fraction} rho: accesses draw a read quorum with
    probability rho and a write quorum with probability 1 - rho.

    {!combined} flattens a read/write system into an ordinary
    {!Quorum.system} (reads first, then writes) and {!mixed} builds the
    rho-weighted strategy over it, so the whole existing pipeline —
    loads, placement LP, delay functionals, simulation — runs on
    read/write workloads unchanged: the objective becomes the
    read/write-weighted delay.

    Reductions (qcheck-verified): a {!of_system} (shared) instance with
    [read = write = p] yields a mixed strategy bitwise equal to [p] at
    [read_fraction] 1.0 and 0.5, so the symmetric corner reproduces
    today's behavior byte-for-byte. *)

type t

val of_system : Quorum.system -> t
(** The symmetric embedding: reads = writes = the given family. The
    mixed strategy stays on the original system (same quorum count),
    preserving byte-identity with the single-strategy path. *)

val make :
  reads:Quorum.system -> writes:Quorum.system -> (t, Qp_util.Qp_error.t) result
(** Validates: equal universes, writes pairwise intersecting, every
    read intersecting every write. Reads need NOT intersect each
    other. *)

val rowa : int -> t
(** Read-one-write-all on [n] elements: singleton reads, one full-set
    write quorum. @raise Invalid_argument when [n < 1]. *)

val grid : int -> t
(** Grid read/write protocol on a k x k universe: reads are the k rows
    (k elements each), write quorum [i] is row [i] + column [i]
    (2k - 1 elements). @raise Invalid_argument when [k < 1]. *)

val majority :
  n:int -> r:int -> w:int -> (t, Qp_util.Qp_error.t) result
(** Weighted-majority reads/writes: all r-subsets read, all w-subsets
    write; requires [r + w > n] and [2w > n]. Enumerated (small n). *)

val of_string_opt : string -> (t, Qp_util.Qp_error.t) result option
(** The asymmetric-family name grammar ({!rw_names}): ["rw-grid:K"],
    ["rowa:N"], ["rw-majority:N:R:W"]. [None] when the name is not an
    rw family — callers fall back to the plain system grammar and
    {!of_system}. *)

val rw_names : string
(** Human-readable grammar summary for diagnostics. *)

val reads : t -> Quorum.system
val writes : t -> Quorum.system
val universe : t -> int
val n_reads : t -> int
val n_writes : t -> int

val combined : t -> Quorum.system
(** The flattened family the placement pipeline consumes: the original
    system when shared, else reads followed by writes (read quorum [i]
    is combined quorum [i], write quorum [j] is combined quorum
    [n_reads + j]). Built with [make_unchecked]: read-read pairs need
    not intersect by design; the safety property is what {!make}
    validated and {!intersection_ok} re-checks. *)

val read_indices : t -> int array
val write_indices : t -> int array
(** Index sets of the two sides within {!combined} (both equal to the
    full index range when shared). *)

val intersection_ok : t -> bool
(** Re-runs the full safety check (write-write and read-write
    intersection) — test helper and scenario assertion. *)

val mixed :
  t -> read:Strategy.t -> write:Strategy.t -> read_fraction:float -> Strategy.t
(** [rho * read + (1 - rho) * write] over {!combined}. Shared systems
    use {!Strategy.mix} (exact reductions at rho = 1.0 / 0.5 with
    pointwise-equal strategies); asymmetric ones concatenate the
    rho-scaled sides. @raise Invalid_argument on an out-of-range
    fraction or a strategy invalid for its side. *)

val read_only : t -> read:Strategy.t -> Strategy.t
(** The read distribution as a strategy over {!combined} (zero write
    mass): evaluating a delay functional under it gives the placement's
    pure read latency. *)

val write_only : t -> write:Strategy.t -> Strategy.t

val uniform_read : t -> Strategy.t
val uniform_write : t -> Strategy.t

val pp : Format.formatter -> t -> unit
