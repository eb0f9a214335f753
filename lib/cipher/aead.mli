(** RFC 8439 ChaCha20-Poly1305 AEAD as fused block/word/byte combinators.

    A {!t} seals or opens one record at a time: {!reset} it for the
    record (in place, allocating nothing, so one context serves every
    record of its owner), feed the payload through
    {!seal_block64}/{!open_block64} (and the word and byte variants for
    a tail) in position order, then read the 128-bit tag with {!tag_into}
    or {!tag}. Encrypt, MAC and (in the caller's loop) copy/checksum all
    happen in the same pass over the data — the ILP thesis applied to
    real crypto. The MAC covers
    [AAD ‖ pad16 ‖ ct ‖ pad16 ‖ len(AAD) ‖ len(ct)]. *)

open Bufkit

type t

val create :
  key:Chacha20.key -> n0:int -> n1:int -> n2:int -> aad:Bytebuf.t -> t
(** A context started on one record under (key, 96-bit nonce). The AAD is
    absorbed immediately; [aad] may be reused by the caller afterwards. *)

val make : unit -> t
(** A context not yet started on any record: {!reset} it before use. *)

val reset :
  t -> key:Chacha20.key -> n0:int -> n1:int -> n2:int -> aad:Bytebuf.t -> unit
(** Start the next record in place, as {!create} would: no allocation. *)

val seal_word : t -> int -> int64 -> int64
(** [seal_word t pos w]: ciphertext word for plaintext [w] at payload
    position [pos] (little-endian packing); the ciphertext enters the MAC. *)

val open_word : t -> int -> int64 -> int64
(** Inverse of {!seal_word}: MACs the ciphertext word, returns plaintext. *)

val seal_byte : t -> int -> int -> int
val open_byte : t -> int -> int -> int

val seal_block64 : t -> pos:int -> Bytes.t -> off:int -> unit
(** [seal_block64 t ~pos bytes ~off] seals 64 payload bytes in place at
    [bytes.(off..)], stream position [pos] (must be 64-aligned): one
    keystream seek, four direct MAC folds — the block-grain form of
    {!seal_word} the fused loop's flush uses. *)

val open_block64 : t -> pos:int -> Bytes.t -> off:int -> unit
(** Inverse of {!seal_block64}: MAC the ciphertext block, then decrypt
    it in place. *)

val tag : t -> int64 * int64
(** Close the record: pad16 the ciphertext, absorb the length block, and
    return the Poly1305 tag as little-endian [(lo, hi)]. Call once per
    record. *)

val tag_into : t -> Bytes.t -> int -> unit
(** {!tag} written as its 16 little-endian bytes at [out.(off..)], with
    no allocation. *)

val tag_matches : lo:int64 -> hi:int64 -> int64 * int64 -> bool
(** Branch-free 128-bit tag comparison. *)

val tags_equal : Bytes.t -> int -> Bytes.t -> int -> bool
(** [tags_equal a aoff b boff]: the 16 bytes at [a.(aoff..)] and
    [b.(boff..)] are equal — the comparison in place, branch-free. *)

val run : t -> seal:bool -> Bytes.t -> int -> int -> unit
(** [run t ~seal b off len] seals (or opens) the [len] bytes at
    [b.(off..)] in place as one whole record payload, under the record
    [t] was last reset for; read the tag afterwards. Allocates nothing. *)

val seal_in_place :
  key:Chacha20.key ->
  n0:int ->
  n1:int ->
  n2:int ->
  aad:Bytebuf.t ->
  Bytebuf.t ->
  int64 * int64
(** Whole-buffer seal (encrypt in place, return tag) on a fresh context:
    {!run} over {!create}, the serial baseline and test oracle for the
    fused plan stages. *)

val open_in_place_tag :
  key:Chacha20.key ->
  n0:int ->
  n1:int ->
  n2:int ->
  aad:Bytebuf.t ->
  Bytebuf.t ->
  int64 * int64
(** Whole-buffer open without the verdict: decrypt in place and return the
    {e computed} tag for the caller to compare (oracle / layered form). *)

val open_in_place :
  key:Chacha20.key ->
  n0:int ->
  n1:int ->
  n2:int ->
  aad:Bytebuf.t ->
  Bytebuf.t ->
  lo:int64 ->
  hi:int64 ->
  bool
(** Whole-buffer open: decrypt in place and check the tag. [false] means
    auth failure — the buffer then holds garbage the caller must drop. *)
