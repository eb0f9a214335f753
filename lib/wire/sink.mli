(** A store-through byte sink for fused presentation pipelines.

    {!Schema.emit}, {!Xdr.emit} and {!Ber.emit} drive one of these
    instead of a {!Bufkit.Cursor.writer}: every wire byte is stored
    straight into the destination slice, with nothing boxed or buffered
    on the way, and each time the write position completes a 64-byte
    block (counted from the start of the slice) the sink hands that
    block's offset to the [block] hook. [Ilp.run_marshal] mounts
    its stage chain there, so the stages run over each block in place
    while it is still in L1 (the paper's §4 "conversion and checksum in
    one step", at block grain).

    Every write is bounds-checked against the slice: an encoder that
    writes past the end raises [Invalid_argument] and leaves the bytes
    beyond the slice (pooled buffers share their backing store)
    untouched. The final partial block is never handed to [block]; the
    caller finishes it. *)

open Bufkit

type t

val create : block:(int -> unit) -> Bytebuf.t -> t
(** [create ~block buf] writes into [buf] from its first byte. [block off]
    is called once per completed 64-byte block, in order, with the
    block's offset in [buf] (a multiple of 64); it may rewrite the block
    in place. *)

val reset : t -> Bytebuf.t -> unit
(** [reset t buf] points [t] at [buf], from its first byte, with the same
    hook: a sink made once serves every run, allocating nothing. *)

val pos : t -> int
(** Bytes written so far. *)

val put_u8 : t -> int -> unit
val put_u16be : t -> int -> unit

val put_u32be : t -> int -> unit
(** Low 32 bits of the argument, big-endian on the wire. *)

val put_u64be : t -> int64 -> unit

val put_be : t -> int -> int -> unit
(** [put_be t v k] writes the low [k] octets of [v] (1 <= k <= 8),
    big-endian, sign-extending past bit 62 — a two's-complement integer
    field of [k] octets. *)

val put_string : t -> string -> unit
val put_zeros : t -> int -> unit

(** {1 Runs}

    A fixed-width array is written as one run: one bounds check for the
    whole run, then plain stores. *)

val reserve : t -> int -> int
(** [reserve t k] checks that [k] more bytes fit and returns the offset
    in {!bytes}[ t] where they go. The caller stores exactly those bytes
    and then calls {!commit}[ t k]. Raises [Invalid_argument] if they do
    not fit. *)

val bytes : t -> Bytes.t
(** The backing store {!reserve} offsets index. *)

val commit : t -> int -> unit
(** [commit t k] moves the write position over the [k] bytes of the last
    {!reserve} and hands every block they completed to the hook. *)
