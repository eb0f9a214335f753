(** The transport's control-message codec and per-datagram integrity
    trailer, factored out of {!Alf_transport} so the single-session
    endpoints and the {!Serve} sharded engine speak one wire dialect.

    Control messages share the datagram space with data fragments
    ({!Framing.frag_magic} = 0xAD) and FEC blocks ([tag_fec]); the first
    byte discriminates, and every message keeps the stream id at bytes
    1–2 — the fixed position {!Mux} and the serve demux dispatch on
    without parsing the rest. *)

open Bufkit

val tag_nack : int
val tag_close : int
val tag_done : int
val tag_gone : int
val tag_fec : int

(** {1 Integrity trailer} *)

val trailer_size : int

val seal_in_place : Checksum.Kind.t option -> Bytebuf.t -> len:int -> int
(** Seal the [len]-byte body already sitting at the front of [buf],
    writing the 4-byte big-endian digest of the body at [len] (nothing
    when the kind is [None]); returns the total datagram length. [buf]
    must have at least [len + trailer_size] bytes of room. Every sender
    seals this way, into pooled or scratch datagram buffers. *)

val seal : Checksum.Kind.t option -> Bytebuf.t -> Bytebuf.t
(** {!seal_in_place} on a fresh copy of [buf] (identity when the kind is
    [None]): for tests and tools that build datagrams by hand. *)

val unseal : Checksum.Kind.t option -> Bytebuf.t -> Bytebuf.t option
(** Verify and strip the trailer; [None] on mismatch or truncation. The
    returned body is a view into [buf]. *)

(** {1 Messages} *)

type msg =
  | Nack of { stream : int; have_below : int; indices : int list }
      (** Receiver → sender: everything below [have_below] is settled;
          [indices] are missing. *)
  | Close of { stream : int; total : int }
      (** Sender → receiver: the stream holds exactly [total] ADUs. *)
  | Done of { stream : int }
      (** Receiver → sender: every index settled; release everything. *)
  | Gone of { stream : int; indices : int list }
      (** Sender → receiver: [indices] are unrecoverable; stop asking. *)

val stream_of : msg -> int

val parse : Bytebuf.t -> msg option
(** Parse an unsealed control body. [None] on an unknown tag or a
    truncated message — the caller drops, it never throws. *)

(** Writers lay the message at the front of [buf] and return the body
    length, ready for {!seal_in_place}. *)

val write_done : Bytebuf.t -> stream:int -> int
val write_close : Bytebuf.t -> stream:int -> total:int -> int
val write_nack : Bytebuf.t -> stream:int -> have_below:int -> int list -> int
val write_gone : Bytebuf.t -> stream:int -> int list -> int

val build : (Bytebuf.t -> int) -> Bytebuf.t
(** The body one writer lays down, in a fresh buffer of its length: for
    tests and tools, e.g. [build (write_close ~stream ~total)]. *)
