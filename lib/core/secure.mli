(** Per-ADU encryption: synchronisation points done right.

    §5: stream ciphers and chained modes impose ordering — "some sort of
    chaining is often used", and a sequential keystream cannot decrypt
    data units out of order. The ALF answer is to make each ADU a cipher
    synchronisation point: the keystream is position-addressed
    ({!Cipher.Pad}) and each ADU's payload is enciphered at the stream
    position given by its own [dest_off], so any ADU decrypts in
    isolation, in any order.

    {!open_adu} is also this library's ILP showcase in the live data
    path: decryption, the move out of the transport buffer, and the
    plaintext Internet checksum run as {e one} fused loop
    ({!Kernels.copy_checksum_xor}) — one load and one store per word. *)

open Bufkit



val seal : key:int64 -> Adu.t -> Adu.t
(** Encrypt the payload in a fresh ADU (name unchanged); the keystream
    position is the ADU's [dest_off]. *)

val open_adu : key:int64 -> Adu.t -> Adu.t * int
(** Decrypt (fused with the copy into fresh application-owned memory and
    with a checksum of the recovered plaintext). Returns the plaintext
    ADU and its Internet checksum — callers that also run {!seal_summed}
    can compare. *)

val seal_summed : key:int64 -> Adu.t -> Adu.t * int
(** Like {!seal} but additionally returns the plaintext's Internet
    checksum, computed in the same pass as the encryption. *)

(** {1 The AEAD record layer}

    The real secure transport: ChaCha20-Poly1305 (RFC 8439) records with
    reorder-safe nonces and epoch rekeying. Each sealed ADU carries its
    ciphertext plus a 20-byte trailer [epoch u32be ‖ tag(16, LE lo64
    then hi64)]; the nonce is [(epoch, stream, index)] and the AAD is
    the canonical 26-byte encoding of the full ADU name, so any record
    decrypts in isolation, in any order — including across the sharded
    {!Ilp_par} and lazy serve stage-2 paths — and a flipped name header
    fails authentication.

    Epoch keys derive from the base key's own keystream (label nonce
    [("ALFX", epoch, direction)]); {!Record.rekey} rolls the sender
    forward across an ADU boundary, and receivers accept epochs within
    ±1 of the highest epoch that has authenticated, so in-flight
    retransmissions sealed under the previous key still open during the
    roll. Auth failures are total, counted outcomes
    ([cipher.auth_fail], [cipher.epoch_rejected]) — never exceptions. *)

module Record : sig
  type t

  val overhead : int
  (** Bytes added to a sealed payload: 4 (epoch) + 16 (tag) = 20. *)

  val create : ?dir:int -> Cipher.Chacha20.key -> t
  (** A record endpoint at epoch 0. [dir] separates the two directions
      of a connection under one base key (give each side a distinct
      value for its sends; default 0). *)

  val of_string : ?dir:int -> string -> t
  (** Key from 32 raw bytes. *)

  val of_int64 : ?dir:int -> int64 -> t
  (** Key expanded from a 64-bit seed (tests, benches, selftests). *)

  val clone : t -> t
  (** A per-domain handle: shares the epoch state but owns its AAD
      scratch and derived-key cache, so shards seal/open without racing
      on the scratch buffer. *)

  val epoch : t -> int
  (** Sender: current sealing epoch. Receiver: highest epoch that has
      authenticated so far (the centre of the acceptance window). *)

  val rekey : t -> unit
  (** Advance the sealing epoch by one. Takes effect at the next seal —
      i.e. across an ADU boundary, never mid-record. *)

  val seal_params : ?epoch:int -> t -> Adu.name -> int * Ilp.aead_params
  (** [(epoch, params)] for sealing one ADU at the current epoch: the
      stage parameters to splice into a plan as [Ilp.Aead_seal]. The
      AAD slice is the endpoint's scratch buffer — valid until the next
      seal/open on this handle, which is after the plan runs. [?epoch]
      pins the sealing epoch instead: a deterministic-regeneration
      repair ({!Recovery.App_recompute}) must re-seal under the ADU's
      {e original} epoch so the repair reproduces the original wire
      bytes — otherwise a receiver partial could mix fragments of the
      two incarnations across a {!rekey} into an ADU that fails its
      CRC. *)

  val write_trailer : Bytebuf.t -> e:int -> tag:int64 * int64 -> unit
  (** Write the 20-byte record trailer into [slice] (length ≥ 20 not
      checked beyond the writes). *)

  val read_trailer : Bytebuf.t -> int * (int64 * int64)
  (** Parse [(epoch, tag)] back out of a 20-byte trailer slice. *)

  val open_params :
    t ->
    Adu.name ->
    trailer:Bytebuf.t ->
    (Ilp.aead_params * int * (int64 * int64), string) result
  (** Stage parameters for opening one record: parses the trailer,
      enforces the ±1 epoch acceptance window (rejections are counted
      under [cipher.epoch_rejected]), and returns the [Ilp.Aead_open]
      params plus the epoch and the transmitted tag to hand to
      {!accept} once the plan has run. *)

  val accept : t -> e:int -> expected:int64 * int64 -> (int64 * int64) list -> bool
  (** The auth verdict: compare the computed tags from an
      [Ilp.result]/[unmarshal_result]/[view_result] (exactly one
      expected) against the transmitted tag. [true] counts
      [cipher.opened] and rolls the receive window forward to [e];
      [false] counts [cipher.auth_fail]. Total — never raises. *)

  val open_payload : t -> Adu.name -> Bytebuf.t -> (Bytebuf.t, string) result
  (** Whole-payload open, in place: [payload] is [ct ‖ trailer] as
      carried in a sealed ADU. [Ok] returns the plaintext prefix view;
      [Error] means the unit must be dropped (the prefix then holds
      garbage). One fused MAC+decrypt pass, no allocation. *)

  val seal_payload : ?epoch:int -> t -> Adu.name -> Bytebuf.t -> unit
  (** Whole-payload seal, in place, the mirror of {!open_payload}: the
      first [length - overhead] bytes of [payload] are encrypted and the
      record trailer is written after them. [?epoch] as in
      {!seal_params}. *)

  val seal_adu : ?epoch:int -> t -> Adu.t -> Adu.t
  (** {!seal_payload} into a fresh copy: the ADU with payload
      [ct ‖ trailer] (name unchanged, length + {!overhead}). *)

  val open_adu : t -> Adu.t -> (Adu.t, string) result
  (** {!open_payload} lifted to an ADU. *)
end
