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
  (** A record endpoint: the base key and epoch it shares with its
      clones, and its own record context — the epoch-key cache, the
      {!Ilp.aead_params} a compiled plan reads, the AAD scratch, the
      ChaCha20/Poly1305 state and a 16-byte tag slot — all reset in place
      per record, so sealing or opening one allocates nothing. *)

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
  (** A per-domain handle: shares the epoch state but owns its record
      context, so shards seal/open without racing on the scratch. *)

  val epoch : t -> int
  (** Sender: current sealing epoch. Receiver: highest epoch that has
      authenticated so far (the centre of the acceptance window). *)

  val rekey : t -> unit
  (** Advance the sealing epoch by one. Takes effect at the next seal —
      i.e. across an ADU boundary, never mid-record. *)

  val params : t -> Ilp.aead_params
  (** The context's one params record, rewritten in place by every
      {!seal_params} and open on this handle. A sender compiles its plan
      once around [Ilp.Aead_seal (params t)]; each run then seals the
      record the last {!seal_params} named. *)

  val seal_params : ?epoch:int -> t -> Adu.name -> Ilp.aead_params
  (** Point {!params} at sealing one ADU — the epoch key, the nonce
      [(epoch, stream, index)] and the name's AAD — at the current epoch,
      and return them; [aead_n0] is the sealing epoch. Valid until the
      next seal/open on this handle, which is after the plan runs.
      [?epoch] pins the sealing epoch instead: a
      deterministic-regeneration repair ({!Recovery.App_recompute}) must
      re-seal under the ADU's {e original} epoch so the repair reproduces
      the original wire bytes — otherwise a receiver partial could mix
      fragments of the two incarnations across a {!rekey} into an ADU
      that fails its CRC. *)

  val write_trailer : t -> Ilp.instance -> Bytebuf.t -> pos:int -> unit
  (** [write_trailer t inst buf ~pos] writes the 20-byte record trailer
      at [pos] for the record [inst] just sealed under {!seal_params}:
      the epoch, then [inst]'s tag. Raises [Invalid_argument] when [buf]
      has no room. *)

  val open_encoded : t -> Adu.header -> Bytebuf.t -> pos:int -> bool
  (** [open_encoded t h buf ~pos] opens, in place, the sealed record
      carried by the encoded ADU at [buf.(pos..)] whose header [h] has
      been read ({!Adu.read_header}): its payload is [ct ‖ trailer], and
      the name comes from [h]. [true] means the ciphertext is now the
      plaintext ({!Adu.of_header_trimmed} by {!overhead} delivers it);
      [false] means the unit must be dropped (the bytes then hold
      garbage). Epochs outside the ±1 acceptance window are rejected
      before any cipher work ([cipher.epoch_rejected]); a bad tag counts
      [cipher.auth_fail], a good one [cipher.opened] and rolls the
      receive window forward. Total and allocation-free. *)

  val open_payload : t -> Adu.name -> Bytebuf.t -> (Bytebuf.t, string) result
  (** Whole-payload open, in place: [payload] is [ct ‖ trailer] as carried
      in a sealed ADU. [Ok] returns the plaintext prefix view;
      [Error] means the unit must be dropped (the prefix then holds
      garbage). The open of {!open_encoded}, for a name and payload at
      hand. *)

  val seal_payload : ?epoch:int -> t -> Adu.name -> Bytebuf.t -> unit
  (** Whole-payload seal, in place, the mirror of {!open_payload}: the
      first [length - overhead] bytes of [payload] are encrypted and the
      record trailer is written after them. [?epoch] as in
      {!seal_params}. Allocates nothing. *)

  val seal_adu : ?epoch:int -> t -> Adu.t -> Adu.t
  (** {!seal_payload} into a fresh copy: the ADU with payload
      [ct ‖ trailer] (name unchanged, length + {!overhead}). *)

  val open_adu : t -> Adu.t -> (Adu.t, string) result
  (** {!open_payload} lifted to an ADU. *)
end
