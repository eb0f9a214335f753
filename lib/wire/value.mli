(** The abstract syntax: typed values shared by peer applications.

    The paper's presentation model distinguishes the application's {e local
    syntax}, the shared {e abstract syntax}, and the {e transfer syntax} on
    the wire. This module is the abstract syntax: a small algebra of typed
    values that every codec in the library ({!Ber}, {!Xdr}, {!Lwts}) can
    encode and decode, so experiments can hold the data constant and vary
    only the transfer syntax. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** Signed, must fit 32 bits for BER/XDR encodings. *)
  | Int64 of int64
  | Octets of string  (** Opaque bytes ("image" data). *)
  | Utf8 of string
  | List of t list  (** Homogeneous or heterogeneous SEQUENCE OF. *)
  | Record of (string * t) list  (** Named-field SEQUENCE. Field names are
      part of the abstract syntax only; codecs may drop them. *)

val equal : t -> t -> bool
(** Structural equality. Field names of records are significant. *)

val pp : Format.formatter -> t -> unit

val int_array : int array -> t
(** [List] of [Int] — the paper's conversion-intensive workload. *)

val to_int_array : t -> int array option
(** Inverse of {!int_array} when the shape matches. *)

val octet_string : int -> t
(** [octet_string n] is an [Octets] of [n] pseudo-random printable bytes —
    the paper's baseline ("very long OCTET STRING") workload. Deterministic
    in [n]. *)

val strip_names : t -> t
(** Replace every [Record] with a [List] of its field values, recursively.
    Tag-only transfer syntaxes (BER, XDR) do not carry field names, so
    [decode (encode v)] round-trips to [strip_names v]. *)

val canonical : t -> t
(** {!strip_names} plus integer normalisation: an [Int64] whose value is
    losslessly representable as an OCaml [int] becomes [Int]. This is the
    normal form every codec's decoder returns, so for all transfer
    syntaxes [decode (encode v) = canonical v]. *)

val depth : t -> int

val abstract_size : t -> int
(** A syntax-independent size measure: total bytes of leaf payloads (ints
    count as 4, int64s as 8, null/bool as 1). Used to report throughput in
    application bytes rather than wire bytes. *)
