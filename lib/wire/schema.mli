(** Schema-compiled presentation programs.

    The PR 5 encoders walk [(schema, value)] pairs interpretively on
    every send — a per-field tag dispatch the architecture should pay
    {e once per schema}, not once per value (Bebop's branchless-encoding
    argument). This module lowers an {!Xdr.schema} into three compiled
    programs, built together by {!prog_of_xdr}:

    - {!emit} — stores the value's encoding through a {!Sink} with
      per-node specialized closures: no schema dispatch in the loop,
      fixed-width fields as direct stores, an int array or a counted
      string as one bounds-checked run. Byte-identical to
      {!Xdr.emit}, including error behaviour on mismatched values.
    - {!size} — the branchless length precomputation: statically-sized
      subtrees are folded to constants at compile time, so a fully
      static schema sizes in O(1) and a mixed struct walks only its
      dynamic fields. (Consequently size does NOT type-check the parts
      it never visits; a mismatch surfaces when {!emit} runs — which any
      marshal path does.)
    - {!validate} — a total, allocation-free one-pass structural check
      over received bytes (LowParse-style), with runs of content-free
      fixed-size fields fused into single bounds comparisons. Returns
      [Ok consumed] exactly when {!Xdr.decode_prefix} would succeed and
      consume [consumed] bytes — the guarantee {!View}'s trusting O(1)
      accessors are built on.

    Whoever sends or receives a schema compiles it once and holds the
    program (a sender beside its {!Ilp.compile_marshal} instance, the
    serve engine at [create]), so no message pays a lookup. A program
    and a compiled ILP plan together run as one fused loop in
    {!Ilp.exec_marshal}. *)

open Bufkit

(** {1 The wire-shape description} *)

type t = private {
  shape : shape;
  static : int option;
      (** Encoded size in bytes when it is value-independent. *)
  content_free : bool;
      (** No booleans and no counted lengths anywhere below: any byte
          content of the right length is a valid encoding, so validation
          of this subtree is a single bounds check. Content-free implies
          statically sized. *)
}

and shape =
  | Void
  | Bool
  | Int
  | Hyper
  | Opaque
  | Str
  | Array of t
  | Struct of t array * int option array
      (** Fields, and for each field its byte offset from the struct's
          first byte when every earlier field is statically sized —
          [offsets.(0)] is always [Some 0]. The O(1) field-seek table
          used by {!View.field}. *)

val of_xdr : Xdr.schema -> t
val to_xdr : t -> Xdr.schema

val static : t -> int option
val content_free : t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Compiled programs} *)

type prog
(** The compiled form: description + size/emit/validate programs. *)

val prog_of_xdr : Xdr.schema -> prog
(** Lower a schema into its three programs. Each call compiles afresh
    (a few hundred words for a small struct); hold the result. *)

val root : prog -> t

val size : prog -> Value.t -> int
(** Encoded size of [v]. Equals {!Xdr.sizeof} on matching values; on
    mismatched values it raises {!Xdr.Error} {e unless} the mismatch
    lies inside a statically-sized subtree (one whose every value
    encodes to the same length, so sizing never inspects it). *)

val emit : prog -> Sink.t -> Value.t -> unit
(** Emit the encoding. Byte-identical to {!Xdr.emit}; raises
    {!Xdr.Error} on any schema/value mismatch, like the interpretive
    encoder. Allocates nothing. *)

exception Invalid of string

val validate_end : prog -> Bytebuf.t -> pos:int -> int
(** {!validate} without the result: the end position, or [Invalid] with
    the message {!validate} would return. Allocates nothing on success. *)

val validate : prog -> Bytebuf.t -> pos:int -> (int, string) result
(** [validate p buf ~pos] structurally checks one encoded value starting
    at [pos] and returns [Ok end_pos] (trailing bytes allowed — the
    caller decides whether they are an error). Total on arbitrary bytes:
    never raises, never allocates beyond the result. [Ok e] iff
    {!Xdr.decode_prefix} on the same bytes succeeds consuming
    [e - pos]. *)
