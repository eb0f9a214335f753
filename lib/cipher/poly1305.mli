(** RFC 8439 Poly1305 one-time authenticator, 26-bit-limb arithmetic.

    Accumulates 16-byte blocks into [h = (h + m)·r mod 2^130 - 5] with the
    key's [s] half added at the end. All limb arithmetic fits OCaml's
    native 63-bit ints, so feeding and finishing allocate nothing — the
    MAC can ride inside the fused ILP block loop.

    The one-time key arrives as four little-endian 64-bit words (the shape
    {!Chacha20.poly_key} produces); [r] clamping per RFC 8439 §2.5 is
    applied here. Not hardened against timing side channels. *)

open Bufkit

type t
(** Mutable accumulator state (plus a small staging buffer that lets
    64-bit word feeds and byte tails mix freely). *)

val create : k0:int64 -> k1:int64 -> k2:int64 -> k3:int64 -> t
(** [(k0, k1)] is the little-endian [r] half (clamped internally),
    [(k2, k3)] the [s] half. *)

val reset : t -> Bytes.t -> int -> unit
(** [reset t key off] re-keys [t] in place from the 32 bytes at
    [key.(off..)] ([r] then [s], little-endian, as {!Chacha20.key_block}
    holds them) and empties the accumulator: {!create} without the
    allocation. *)

val feed_word64 : t -> int64 -> unit
(** Append 8 message bytes, packed little-endian — the fused loop's unit. *)

val feed_lengths : t -> int -> int -> unit
(** [feed_lengths t a b] appends [a] then [b] as little-endian u64s — the
    AEAD construction's length block — with nothing boxed. *)

val feed_byte : t -> int -> unit
(** Append one message byte (low 8 bits). *)

val feed_block64 : t -> Bytes.t -> int -> unit
(** [feed_block64 t bytes off] appends the 64 bytes at [bytes.(off..)]:
    when the staging buffer is empty (the steady state of the fused block
    flush) this folds four blocks straight from the backing store,
    skipping the staging round trip; otherwise it degrades to eight
    staged word feeds. *)

val feed_sub : t -> Bytebuf.t -> unit
(** Append a whole slice (word loop + byte tail). *)

val pad16 : t -> unit
(** Zero-pad the stream fed so far to a 16-byte boundary (no-op when
    already aligned) — the AEAD construction's AAD/ciphertext seams. *)

val finish_into : t -> Bytes.t -> int -> unit
(** [finish_into t out off] closes the final block and writes the 16-byte
    tag, little-endian, at [out.(off..)], allocating nothing. The state
    must not be fed again until {!reset}. *)

val finish : t -> int64 * int64
(** Close the final (possibly partial) block and return the 128-bit tag as
    little-endian [(lo, hi)] words. The state must not be fed again. *)
