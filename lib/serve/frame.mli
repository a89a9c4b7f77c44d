(** Length-prefixed wire framing for the [qp_serve] protocol.

    A frame is a 4-byte big-endian payload length followed by the
    payload bytes (one JSON document in this protocol, but the framing
    layer is content-agnostic). The declared length is bounded by
    [max_len]; anything larger — including garbage prefixes that
    decode to a negative length — is a framing error, never an
    allocation of attacker-chosen size.

    Two consumption styles:
    - {!read}/{!write}: blocking, for clients (the load generator, the
      test harness) that own the socket and wait for one full frame.
    - {!Decoder}: incremental, for the server event loop, which feeds
      whatever [read(2)] returned and pops complete frames. *)

val default_max_len : int
(** 4 MiB. *)

val encode : string -> bytes
(** The full wire image (header + payload) of one frame. *)

val write : Unix.file_descr -> string -> unit
(** Blocking send of one frame.
    @raise Unix.Unix_error as from [Unix.write] (EPIPE on a
    half-closed peer — callers ignore SIGPIPE). *)

val read : ?max_len:int -> Unix.file_descr -> string option
(** Blocking read of one frame. [None] on clean EOF before the first
    header byte.
    @raise Failure on a truncated frame or a length outside
    [\[0, max_len\]]. *)

(** Incremental decoder for non-blocking reads. *)
module Decoder : sig
  type t

  val create : ?max_len:int -> unit -> t

  val feed : t -> bytes -> int -> unit
  (** [feed t buf n] appends [buf\[0..n)] to the internal buffer. *)

  val next : t -> [ `Frame of string | `Await | `Error of string ]
  (** Pop the next complete frame. [`Await] when more bytes are
      needed; [`Error] on an over-long or negative declared length
      (the decoder is then poisoned: every later [next] returns the
      same error — the connection must be closed). *)
end
