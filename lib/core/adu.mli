(** Application Data Units.

    The paper's central object: "the application should break the data
    into suitable aggregates, and the lower levels should preserve these
    frame boundaries as they process the data". An ADU carries its own
    {!name} — the sender-computed, receiver-meaningful description of
    where (and when) its data belongs — so it can be checked, converted
    and delivered {e out of order} with respect to its siblings, and so a
    loss can be reported to the application in application terms.

    The name-space follows §5's two canonical examples: [dest_off] /
    [dest_len] place the ADU in a spatial name-space (a file position, a
    screen tile), and [timestamp_us] places it in time (which video frame
    it belongs to). Applications that need neither leave them zero; the
    [index] alone then names the ADU's place in the sequence.

    The wire encoding protects header and payload together with a CRC-32,
    making every ADU independently verifiable — a synchronisation point in
    the paper's sense. *)

open Bufkit

type name = {
  stream : int;  (** Association id, 0–65535. *)
  index : int;  (** Position in the sender's ADU sequence, 0-based. *)
  dest_off : int;  (** Receiver-side placement offset (bytes, tile id...). *)
  dest_len : int;  (** Length the decoded ADU occupies at the receiver. *)
  timestamp_us : int64;  (** Temporal name (e.g. frame presentation time). *)
}

val name :
  ?dest_off:int -> ?dest_len:int -> ?timestamp_us:int64 -> stream:int ->
  index:int -> unit -> name

val pp_name : Format.formatter -> name -> unit

type t = { name : name; payload : Bytebuf.t }

val make : name -> Bytebuf.t -> t

val header_size : int
(** 36 bytes. *)

val magic : int
(** The 16-bit wire magic at bytes 0–1 of every encoded ADU (0xADF0),
    stored by {!write_header}. *)

val encoded_size : t -> int

exception Decode_error of string

val write_header :
  Bytebuf.t -> pos:int -> name -> plen:int -> payload_crc:int32 -> unit
(** Lay the 36-byte header (magic, name, payload length, CRC-32) at [pos]
    in [buf] for the [plen]-byte payload that follows it. The payload is
    not read: its CRC-32 [payload_crc] extends the header's digest
    through {!Checksum.Crc32.combine}. Every ADU header is written
    here. *)

val encode : t -> Bytebuf.t
(** Header followed by payload, in one fresh buffer: a copy of the
    payload plus {!write_header}. *)

val decode : Bytebuf.t -> t
(** Raises {!Decode_error} on truncation, bad magic or CRC mismatch. The
    payload is a fresh copy. *)

val decode_view : Bytebuf.t -> t
(** Like {!decode}, but the payload {e aliases} the input buffer — zero
    copies, zero allocations. The caller owns the lifetime question: if
    the buffer is pooled or reused (e.g. a {!Bufkit.Pool} reassembly
    buffer), the payload is only valid until the buffer is released, so
    consume or copy it before then. *)

val decode_view_res : Bytebuf.t -> (t, string) result
(** Total form of {!decode_view}: malformed input (truncation, bad magic,
    length mismatch, CRC mismatch) is an [Error _], never an exception.
    The form server dispatch and other hostile-input paths use. *)

val pp : Format.formatter -> t -> unit
