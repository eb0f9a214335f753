(** RFC 8439 ChaCha20 keystream, pure OCaml, word-at-a-time.

    Like {!Pad} — and unlike {!Rc4} — the keystream is {e seekable}: byte
    [p] is a pure function of (key, nonce, [p]), so any sub-range can be
    produced independently and out-of-order data units decrypt without
    chaining state. This is the modern resolution of the paper's §5
    chaining-vs-reordering tension. Block 0 is reserved for the Poly1305
    one-time key (RFC 8439 §2.6); payload positions draw from block 1
    onward.

    Not hardened against timing side channels; the point here is the
    protocol architecture, not a vetted crypto implementation. *)

open Bufkit

type key
(** A 256-bit key, preprocessed into state words. *)

val key_of_string : string -> key
(** [key_of_string s] reads a raw 32-byte little-endian key. Raises
    [Invalid_argument] on any other length. *)

val key_of_int64 : int64 -> key
(** Expand a compact 64-bit seed into a 256-bit key (SplitMix64), so
    demo/bench keys can be named like {!Pad} keys. Not a KDF. *)

val derive : key -> n0:int -> n1:int -> n2:int -> key
(** [derive key ~n0 ~n1 ~n2] is a fresh key read out of the (key, nonce)
    keystream's block 0 — a one-way epoch KDF: knowing the derived key
    reveals nothing about [key] or sibling epochs. *)

type t
(** A keystream positioned by a (key, 96-bit nonce) pair. Holds one cached
    64-byte block; all seeks reuse it when they land in the same block. *)

val create : key:key -> n0:int -> n1:int -> n2:int -> t
(** [create ~key ~n0 ~n1 ~n2] fixes the nonce as three little-endian u32
    words (RFC 8439 layout). Values are masked to 32 bits. *)

val reset : t -> key:key -> n0:int -> n1:int -> n2:int -> unit
(** Re-point [t] at a new (key, nonce) in place, as {!create} would, with
    no allocation. *)

val byte_at : t -> int -> int
(** Keystream byte at payload position [pos >= 0]. *)

val word64_at : t -> int -> int64
(** [word64_at t pos] is the keystream for payload positions
    [pos .. pos+7], packed little-endian (byte for [pos] in the low
    octet) — any alignment; straddled blocks are assembled bytewise. The
    fused word loop's contract, identical to {!Pad.word64_at}. *)

val xor_block64 : t -> pos:int -> Bytes.t -> off:int -> unit
(** [xor_block64 t ~pos bytes ~off] XORs the 64 bytes at [bytes.(off..)]
    in place with keystream positions [pos, pos + 64). [pos] must be a
    multiple of 64: the span then covers exactly one keystream block, so
    the fused block flush pays one seek and eight word loads. *)

val poly_key : t -> int64 * int64 * int64 * int64
(** The Poly1305 one-time key for this (key, nonce): the first 32 bytes of
    keystream block 0, as four little-endian 64-bit words
    [(r_lo, r_hi, s_lo, s_hi)]. *)

val key_block : t -> Bytes.t
(** Keystream block 0, in [t]'s own 64-byte cache: the Poly1305 one-time
    key is its first 32 bytes. Valid until the next seek on [t]. *)

val transform_at : t -> pos:int -> Bytebuf.t -> unit
(** XOR the slice in place with keystream bytes [pos, pos + len).
    Encryption and decryption are the same operation; ranges may be
    processed in any order. Serial-baseline / oracle building block. *)
