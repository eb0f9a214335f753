(** CRC-32 (IEEE 802.3 polynomial, reflected).

    The strongest detector in the library; used by the AAL substrate for
    per-ADU integrity (AAL5 carries exactly this CRC) and available as an
    ILP stage. Table-driven, one table lookup per byte. *)

open Bufkit

type state

val init : state
val feed_byte : state -> int -> state

val feed_word64le : state -> int64 -> state
(** Advance over eight bytes at once (little-endian word order) by
    slicing-by-8: one lookup per byte, no chained dependency — the word
    feeder the fused ILP loop and {!feed_sub}'s fast path run on. *)

val feed_block64 : state -> Bytes.t -> int -> state
(** [feed_block64 st bytes off] advances over the 64 bytes at
    [bytes.(off..)] — eight {!feed_word64le} steps in one call, the
    block-grain form the fused ILP flush uses. *)

val feed : state -> Bytebuf.t -> state
val feed_sub : state -> Bytebuf.t -> pos:int -> len:int -> state
val finish : state -> int32

val finish_int : state -> int
(** {!finish} widened to a non-negative [int]: no boxed result. *)

val resume : int -> state
(** [resume d] is the register a digest [d] (as {!finish_int} gives it)
    was finished from: feeding more bytes and finishing again gives the
    digest of the data extended by them, with no {!combine}. *)

val digest : Bytebuf.t -> int32

val digest_sub : Bytebuf.t -> pos:int -> len:int -> int
(** The CRC-32 of [len] bytes at [pos], widened to a non-negative [int]:
    no sub-buffer and no boxed result, for per-datagram seals. *)

val digest_string : string -> int32

val combine : int -> int -> int -> int
(** [combine crc1 crc2 len2] is the CRC of the concatenation [a ^ b]
    given [crc1] and [crc2], the digests of [a] and [b] widened to
    non-negative [int]s (as {!finish_int} and {!digest_sub} return
    them), and [len2 = length b] — computed in O(log len2) 32-step
    polynomial products against a table built at module init, without
    re-reading either input and without allocating. This lets the fused
    send path digest the payload once, in the marshalling loop, and
    still seal header-spanning CRC fields. *)
