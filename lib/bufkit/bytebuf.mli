(** Byte-buffer slices.

    A {!t} is a view onto a region of a [Bytes.t]: the triple
    (backing store, offset, length). Sub-slices alias the same storage, so
    protocol layers can carve headers and payloads out of a single receive
    buffer without copying — the fine-grained buffer control that
    Integrated Layer Processing needs.

    All indexed operations are expressed relative to the slice, and are
    bounds-checked against the slice (not the backing store) unless the
    function name says [unsafe]. *)

type t

exception Bounds of string
(** Raised by checked operations when an index or range falls outside the
    slice. The payload describes the offending access. *)

(** {1 Construction} *)

val create : int -> t
(** [create len] is a fresh zero-filled slice of [len] bytes backed by new
    storage. Raises [Invalid_argument] if [len < 0]. *)

val create_padded : int -> pad:int -> t
(** [create_padded len ~pad] is [create len] over storage with [pad]
    spare bytes past the view, which the slice's owner may use for its
    own bookkeeping ({!Pool} marks its free buffers there). *)

val of_bytes : Bytes.t -> t
(** [of_bytes b] views all of [b]. The slice aliases [b]: writes through
    either are visible to both. *)

val of_string : string -> t
(** [of_string s] is a fresh slice holding a copy of [s]. *)

val init : int -> (int -> char) -> t
(** [init len f] is a fresh slice whose [i]th byte is [f i]. *)

val empty : t
(** A distinguished zero-length slice. *)

val created_total : unit -> int
(** Number of fresh-storage slices allocated so far ({!create}, {!init} and
    the functions built on them, e.g. {!copy}, {!concat}) across the whole
    process. Views ({!sub}, {!shift}, {!take}) do not count. Monotonic and
    domain-safe; used to demonstrate zero-allocation steady state on pooled
    receive paths ([delta = 0] across a warm window). *)

(** {1 Views} *)

val length : t -> int

val sub : t -> pos:int -> len:int -> t
(** [sub t ~pos ~len] is the sub-slice of [t] starting at [pos]. It aliases
    [t]'s storage. Raises {!Bounds} if the range is not within [t]. *)

val shift : t -> int -> t
(** [shift t n] is [sub t ~pos:n ~len:(length t - n)]. *)

val take : t -> int -> t
(** [take t n] is [sub t ~pos:0 ~len:n]. *)

val split : t -> int -> t * t
(** [split t n] is [(take t n, shift t n)]. *)

(** {1 Access} *)

val get : t -> int -> char
val set : t -> int -> char -> unit

val get_uint8 : t -> int -> int
val set_uint8 : t -> int -> int -> unit

val set_be : t -> int -> int -> bytes:int -> unit
(** [set_be t pos v ~bytes] stores the low [bytes] bytes of [v] at [pos],
    big-endian (sign-extended beyond 63 bits). *)

val get_be : t -> int -> bytes:int -> int
(** [get_be t pos ~bytes] reads [bytes] bytes at [pos] as a big-endian
    unsigned integer, the mirror of {!set_be} (an 8-byte value keeps its
    low 63 bits). One range check, no allocation. *)

val unsafe_get : t -> int -> char
val unsafe_set : t -> int -> char -> unit

val backing : t -> Bytes.t * int * int
(** [backing t] is [(bytes, off, len)]: the raw components of the view.
    Intended for fused inner loops (see [Alf_core.Kernels]) that need direct
    [Bytes] access after a single up-front bounds check. *)

val data : t -> Bytes.t
val offset : t -> int
(** The storage and offset halves of {!backing}, for per-datagram loops
    that must not allocate its tuple. *)

(** {1 Bulk operations} *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
val blit_from_string : string -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
val fill : t -> char -> unit

val copy : t -> t
(** [copy t] is a fresh slice with fresh storage holding [t]'s contents. *)

val concat : t list -> t
(** [concat ts] is a fresh slice holding the contents of [ts] in order. *)

val to_string : t -> string
val to_bytes : t -> Bytes.t

(** {1 Comparison and display} *)

val equal : t -> t -> bool
(** Content equality (byte-for-byte, ignoring how the views are backed). *)

val compare : t -> t -> int
(** Lexicographic content order. *)

val pp : Format.formatter -> t -> unit
(** Short debug form: length plus a prefix of the content in hex. *)
