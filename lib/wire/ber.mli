(** ASN.1 Basic Encoding Rules, the subset the experiments need.

    Tags: BOOLEAN, INTEGER (minimal two's complement), OCTET STRING, NULL,
    UTF8String, SEQUENCE (definite lengths only). Record field names are
    not carried — [decode (encode v)] equals [Value.strip_names v].

    Two encoders are provided on purpose:

    - {!encode} is the tuned path the paper's hand-coded 28 Mb/s routine
      corresponds to: exact size computed up front, one pre-allocated
      buffer, a single writing pass.
    - {!encode_interpretive} is the ISODE-toolkit-flavoured path: each TLV
      is built as an intermediate string and concatenated, the way a
      generic presentation toolkit interprets the abstract syntax. Its
      slowness relative to {!encode} is part of experiment E5's honesty
      (the paper's footnote 5 makes the same tuned-vs-toolkit point).

    The integer-array fast paths are the workloads of experiments E3/E4. *)

open Bufkit

exception Decode_error of string

val sizeof : Value.t -> int
(** Exact encoded size in bytes. *)

val encode : Value.t -> Bytebuf.t

val encode_into : Value.t -> Cursor.writer -> unit
(** Encode into an existing buffer (for fused stacks); raises
    [Cursor.Overflow] if it does not fit. *)

val emit : Value.t -> Sink.t -> unit
(** Store the encoding through a {!Sink}, so a fused ILP stage chain
    (checksum, cipher, the delivering store) runs over the completed
    64-byte blocks while they are still in L1, instead of re-reading a
    finished buffer. SEQUENCE lengths come from one preorder sizing walk, not a
    re-walk per nesting level. Emits exactly {!sizeof}[ v] bytes.
    Byte-for-byte identical to {!encode}. *)

val encode_interpretive : Value.t -> Bytebuf.t

val decode : Bytebuf.t -> Value.t
(** Decodes exactly one value; raises {!Decode_error} on malformed input
    or trailing bytes. *)

val decode_prefix : Bytebuf.t -> Value.t * int
(** Decode one value, returning it and the number of bytes consumed. *)

val decode_reader : Cursor.reader -> Value.t
(** Decode one value from an existing reader, leaving it positioned after
    the value. With a {!Cursor.demand_reader} this is the streaming
    decoder of the fused receive path: bytes are verified/decrypted on
    demand, just ahead of the parse. *)

(** {1 Integer-array fast paths (experiments E3 and E4)} *)

val encode_int_array : int array -> Bytebuf.t
(** SEQUENCE OF INTEGER, tuned single pass. BER INTEGERs are
    variable-length (minimal two's complement), so — unlike
    {!Xdr.encode_int_array}'s fixed 32-bit lanes — the full OCaml [int]
    range round-trips exactly; nothing is truncated (property-tested). *)

val decode_int_array : Bytebuf.t -> int array

val encode_int_array_with_checksum : int array -> Bytebuf.t * int
(** Encode and compute the Internet checksum of the encoding {e in the same
    loop} — the paper's "converted and checksummed in one step"
    measurement. Returns (encoding, checksum). *)
