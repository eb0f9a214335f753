(** Forward error correction across transmission units.

    Footnote 10 of the paper: "lower layer recovery schemes, such as
    forward error correction (FEC), may be applied to these transmission
    units … our general assertion regarding applications is not meant to
    preclude the use of ADU-level FEC."

    This is the simplest useful such scheme: XOR parity. A {!group} of [k]
    equal-role source blocks gains one parity block that is the
    byte-wise XOR of all of them (shorter blocks zero-padded); any
    {e single} missing block in the group is reconstructed from the other
    [k]. Applied to an ADU's fragments it repairs one lost fragment per
    group with zero retransmission round trips — the trade (always send
    1/k extra) that the E11 bench quantifies against NACK repair. *)

open Bufkit

val parity : Bytebuf.t list -> Bytebuf.t
(** Byte-wise XOR of the blocks, sized to the longest (shorter blocks are
    treated as zero-padded). Raises [Invalid_argument] on an empty list. *)

val recover : have:(int * Bytebuf.t) list -> parity:Bytebuf.t -> k:int -> missing:int -> Bytebuf.t
(** Reconstruct source block [missing] (0-based among [k] source blocks)
    from the [k-1] other source blocks in [have] (index, block) and the
    parity block. The caller truncates to the block's real length if it
    was shorter than the parity. Raises [Invalid_argument] if [have] does
    not contain exactly the other [k-1] blocks. *)

(** {1 Group codec for fragment streams}

    Wire format: each protected block is prefixed with a 5-byte FEC header
    (group number: 2 bytes; position in group: 1 byte; k: 1 byte; flag:
    1 byte, 1 = parity) so blocks self-describe their group role. *)

val header_size : int

val protect : ?first_group:int -> k:int -> Bytebuf.t list -> Bytebuf.t list
(** Wrap a stream of blocks: every [k] consecutive blocks become [k]
    headered blocks plus one parity block (the final group may be
    shorter). [k] must be in 1..255. Output order preserves input order
    with parities interleaved after each group. Group numbers start at
    [first_group] (default 0, reduced mod 0x10000) — callers protecting
    many batches through one decoder must keep them monotone so group
    ids from different batches cannot collide. *)

val group_count : k:int -> int -> int
(** [group_count ~k n] is how many groups {!protect} forms over [n]
    blocks — what a sender adds to its running group counter. *)

type decoded = {
  mutable recovered : int;  (** Blocks reconstructed from parity. *)
  mutable unrecoverable : int;  (** Groups that lost ≥ 2 blocks. *)
  mutable parity_overhead : int;  (** Parity bytes received. *)
}

type decoder

val decoder : deliver:(Bytebuf.t -> unit) -> unit -> decoder
(** [deliver] receives every source block exactly once, in arrival order
    for directly-received blocks and at recovery time for reconstructed
    ones (recovered blocks may therefore arrive out of order — which is
    fine, they are ADU fragments). Decoder state is bounded: at most
    4096 incomplete groups and 4096 finished group ids are remembered —
    necessary anyway since group numbers wrap at 0x10000, and it keeps
    long lossy soaks from leaking. Evicted incomplete groups count as
    unrecoverable. *)

val push : decoder -> Bytebuf.t -> unit
(** Feed one received (headered) block; lost blocks are simply never
    pushed. Malformed blocks are ignored. *)

val flush : decoder -> unit
(** Give up on incomplete groups (end of stream): counts unrecoverable
    groups that still miss ≥ 2 blocks, then forgets them. *)

val stats : decoder -> decoded
