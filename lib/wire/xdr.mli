(** Sun XDR (RFC 1014), the subset the experiments need.

    XDR is not self-describing: sender and receiver share a schema (the
    abstract syntax agreed out of band) and the wire carries only values,
    each padded to a 4-byte boundary, big-endian. Cheaper per element than
    BER (no tags, no per-element length computation) but still a
    conversion: every integer is byte-swapped and every variable-length
    item padded. *)

open Bufkit

exception Error of string

type schema =
  | S_void
  | S_bool
  | S_int  (** 32-bit signed. *)
  | S_hyper  (** 64-bit signed. *)
  | S_opaque  (** Variable-length opaque, counted. *)
  | S_string
  | S_array of schema  (** Variable-length counted array. *)
  | S_struct of schema list

val schema_of_value : Value.t -> schema
(** Infer a schema from a sample value ([Int] → [S_int], [List] → [S_array]
    of the first element's schema or [S_struct] when heterogeneous...).
    Raises {!Error} on [Int] values outside 32-bit range. *)

val sizeof : schema -> Value.t -> int
(** Exact encoded size. Raises {!Error} if the value does not match. *)

val encode : schema -> Value.t -> Bytebuf.t
val encode_into : schema -> Value.t -> Cursor.writer -> unit

val emit : schema -> Value.t -> Sink.t -> unit
(** Store the encoding through a {!Sink}, so a fused ILP stage chain
    (checksum, cipher, the delivering store) runs over the completed
    64-byte blocks while they are still in L1, instead of re-reading a
    finished buffer. Emits exactly {!sizeof}[ schema v] bytes. Byte-for-byte
    identical to {!encode}; the interpretive baseline of the compiled
    {!Schema.emit}. *)

val decode : schema -> Bytebuf.t -> Value.t
val decode_prefix : schema -> Bytebuf.t -> Value.t * int

val decode_reader : schema -> Cursor.reader -> Value.t
(** Decode one value from an existing reader, leaving it positioned after
    the value. With a {!Cursor.demand_reader} this is the streaming
    decoder of the fused receive path: bytes are verified/decrypted on
    demand, just ahead of the parse. *)

val pp_schema : Format.formatter -> schema -> unit

val check_int32 : int -> unit
(** Raises {!Error} when the value cannot travel in a 32-bit lane — the
    range discipline shared by every encoder, including the compiled
    programs in {!Schema}. *)

val padding : int -> int
(** Bytes of zero padding after an [n]-byte counted item: [(4 - n mod 4)
    mod 4]. *)

(** {1 Integer-array fast paths} *)

val encode_int_array : int array -> Bytebuf.t
(** Counted array of 32-bit big-endian integers. Raises {!Error} on any
    element outside 32-bit range — the same discipline as
    {!schema_of_value} and {!encode_into}; the lanes are fixed-width, so
    wider values cannot be represented (they used to be truncated
    silently). Use {!Ber.encode_int_array} for full [int]-range data. *)

val decode_int_array : Bytebuf.t -> int array
