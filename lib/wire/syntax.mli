(** Transfer-syntax selection, negotiation, and sender-computed placement.

    §5 of the paper: an ADU lives in the application's local syntax, a
    shared abstract syntax, and a negotiated transfer syntax; and the
    sender must be able to compute, {e in terms meaningful to the
    receiver}, where each ADU lands — otherwise out-of-order ADUs clog the
    presentation pipeline. This module packages those pieces: a uniform
    codec over the four transfer syntaxes, a capability-based negotiation,
    and exact sizing so a sender can compute receiver-side byte offsets
    for a sequence of ADUs before any of them is sent. *)

open Bufkit

exception Error of string

type t =
  | Raw  (** Image mode: only [Octets] values; the identity conversion. *)
  | Ber
  | Xdr of Xdr.schema
  | Lwts of Xdr.schema

val name : t -> string
val pp : Format.formatter -> t -> unit

val for_value : string -> Value.t -> t option
(** [for_value name v] builds the syntax named [name] ("raw", "ber",
    "xdr", "lwts"), inferring the schema from [v] where one is needed.
    [None] if the name is unknown or [v] cannot travel in that syntax
    (e.g. non-octets under [Raw]). *)

val encode : t -> Value.t -> Bytebuf.t
(** Raises {!Error} when the value does not fit the syntax. *)

val decode : t -> Bytebuf.t -> Value.t
(** Raises {!Error} on malformed input. *)

val sizeof : t -> Value.t -> int
(** Exact encoded size, computed without encoding. This is what lets a
    sender label ADUs with receiver-meaningful locations. Every syntax
    sizes by a walk of the value ({!Xdr.sizeof} for XDR), which checks
    the value against the schema as it goes; a sender that sizes one
    schema per ADU holds a compiled {!Schema} program instead. *)

val encode_sized : t -> Value.t -> size:int -> Bytebuf.t
(** [encode_sized t v ~size] encodes [v] into a [size]-byte buffer,
    where [size] is a previously computed {!sizeof}[ t v] — the batch
    form: {!placements} already sized every ADU, so encoding each one
    must not walk the value again just to size its buffer. Raises
    {!Error} if the encoding does not occupy exactly [size] bytes. *)

val placements : t -> Value.t list -> (int * int) list
(** [placements t adus] is [(offset, length)] of each ADU's encoding within
    the receiver's concatenated stream — computable entirely at the sender,
    before transmission, in ADU order. *)

(** {1 Negotiation} *)

val negotiate :
  sender:string list -> receiver:string list -> sample:Value.t -> t option
(** Pick the first syntax (by sender preference order) both peers support
    and that can carry [sample]; the classic out-of-band presentation
    negotiation. *)
