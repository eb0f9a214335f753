(** The Internet checksum (RFC 1071).

    The 16-bit one's-complement sum used by IP, TCP and UDP — the paper's
    canonical "touch every byte with a trivial computation" manipulation.
    The incremental interface lets the sum be folded across fragment
    boundaries and, crucially for ILP, lets other loops feed it one byte at
    a time while they do their own work on the same data. *)

open Bufkit

type state

val init : state

val feed_byte : state -> int -> state
(** [feed_byte st b] absorbs one byte (0–255). Byte parity is tracked, so
    feeding a buffer bytewise equals feeding it in one call. *)

val feed : state -> Bytebuf.t -> state
(** Absorb a whole slice (word-at-a-time fast path). *)

val feed_sub : state -> Bytebuf.t -> pos:int -> len:int -> state

val finish : state -> int
(** The 16-bit one's-complement checksum (already complemented, as carried
    in packet headers). *)

val digest : Bytebuf.t -> int
(** One-shot [finish (feed init buf)]. *)

val digest_iovec : Iovec.t -> int
(** One-shot over a scatter/gather vector, honouring byte parity across
    fragment boundaries. *)

val verify : Bytebuf.t -> expected:int -> bool

val pp : Format.formatter -> state -> unit
