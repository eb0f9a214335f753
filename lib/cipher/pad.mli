(** Seekable keystream cipher (counter-mode flavoured; simulation-grade).

    The keystream byte at absolute position [p] is a pure function of
    (key, p), so any sub-range of a stream can be encrypted or decrypted
    independently — the cipher imposes {e no} ordering constraint. This is
    what makes per-ADU encryption compatible with out-of-order ADU
    processing: each ADU carries its position in the cipher name-space and
    can be decrypted the moment it arrives. *)

open Bufkit

type t

val create : key:int64 -> t

val byte_at : t -> int64 -> int
(** Keystream byte at absolute stream position. *)

val block64 : t -> int64 -> int64
(** [block64 t idx] is the 8-byte keystream block covering positions
    [8·idx .. 8·idx+7], packed little-endian (byte for position [8·idx] in
    the low octet). Fused word-at-a-time loops XOR whole blocks at once;
    [byte_at t p = (block64 t (p/8) >> 8·(p mod 8)) land 0xff]. *)

val word64_at : t -> int64 -> int64
(** [word64_at t pos] is the keystream for positions [pos .. pos+7], packed
    little-endian (byte for [pos] in the low octet), for {e any} position —
    unaligned positions are assembled from the two straddled blocks. Equal
    to [block64 t (pos/8)] when [pos] is a multiple of 8. This is what lets
    a fused word loop XOR a pad whose stream offset is not word-aligned
    (ADUs land at arbitrary [dest_off]). Positions must be non-negative. *)

val xor_at : t -> pos:int64 -> i:int -> Bytes.t -> off:int -> len:int -> unit
(** [xor_at t ~pos ~i bytes ~off ~len] XORs the [len] bytes at
    [bytes.(off..)] in place with keystream positions [pos + i ..
    pos + i + len - 1], eight at a time and then bytewise. The position
    comes as an [int64] base plus an [int] offset so a fused loop over a
    fixed base boxes nothing: it allocates nothing. *)

val transform_at : t -> pos:int64 -> Bytebuf.t -> unit
(** XOR the slice in place with keystream bytes [pos, pos+len). Encryption
    and decryption are the same operation; ranges may be processed in any
    order. *)

val transform_copy_at : t -> pos:int64 -> src:Bytebuf.t -> dst:Bytebuf.t -> unit
(** Fused copy-and-transform from [src] into [dst] (same length), reading
    each byte exactly once — an ILP building block. Raises
    [Invalid_argument] on length mismatch. *)
