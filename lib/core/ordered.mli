(** In-order delivery as a layer {e above} ADUs.

    The paper's inversion: ordering is not something the transport must
    impose on everyone; it is one delivery discipline an application can
    ask for. This adapter sits on an out-of-order ADU stream and releases
    ADUs in index order — applications that genuinely need a byte stream
    (say, a decompressor with cross-ADU state) get one, while the ADUs
    still arrive, checksum and decrypt out of order underneath, and
    applications that do not need ordering never pay for it.

    Contrast with the TCP baseline's [Transport.Reorder]: that buffer
    resequences raw bytes {e below} everything else; this one resequences
    finished ADUs at the very top, after all manipulation is done. *)

type t

val create : deliver:(Adu.t -> unit) -> unit -> t
(** ADUs are released to [deliver] in strictly increasing index order,
    starting at index 0. *)

val offer : t -> Adu.t -> unit
(** Hand over a completed ADU (any index order; duplicates ignored).
    Releases everything that has become contiguous. *)

val skip : t -> index:int -> unit
(** The transport declared this index gone (e.g. no-recovery policy):
    release past it rather than waiting forever. *)

val next_index : t -> int
(** The index the adapter is waiting for. *)

val held : t -> int
(** ADUs parked above the gap. *)

