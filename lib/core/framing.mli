(** Application Level Framing: cutting data into ADUs and ADUs into
    transmission units.

    Two layers of framing, exactly as §5 prescribes:

    - the {e application} chooses ADU boundaries in its own terms —
      {!frames_of_buffer} for linear data (file regions), {!frames_of_values}
      for typed data, where the sender computes each ADU's
      receiver-meaningful placement from the negotiated transfer syntax
      ({!Wire.Syntax.placements});
    - if an ADU exceeds the network's unit, it is partitioned into
      artificial sub-units for transmission ({!fragment}); the
      {!Reassembler} restores complete ADUs, tolerating arbitrary
      interleaving of fragments from different ADUs. Responsibility for a
      {e whole-ADU} loss stays with the application layer, per the paper. *)

open Bufkit

(** {1 Making ADUs} *)

val frames_of_buffer :
  stream:int -> adu_size:int -> ?base_off:int -> Bytebuf.t -> Adu.t list
(** Slice linear data into consecutive ADUs of [adu_size] bytes (last one
    shorter); [dest_off] is the slice's offset plus [base_off], [dest_len]
    its length. Payloads alias the input. *)

val frames_of_values :
  stream:int -> syntax:Wire.Syntax.t -> Wire.Value.t list -> Adu.t list
(** One ADU per abstract value: payload is the value's transfer-syntax
    encoding; [dest_off]/[dest_len] are the sender-computed placement of
    the encoding in the receiver's stream. Raises [Wire.Syntax.Error] if a
    value does not fit the syntax. *)

(** {1 Fragmentation} *)

val fragment_header_size : int
(** 19 bytes. *)

val frag_magic : int
(** First byte of every fragment (0xAD). *)

(** {2 The datagram writer}

    Every data datagram, [frag hdr | chunk | trailer], is written in
    place into a buffer the caller supplies, pooled or fresh, and sealed
    with {!Ctl.seal_in_place}. *)

val fragment_count : mtu:int -> int -> int
(** Fragments of at most [mtu] bytes, header included, that an encoded
    ADU of the given length needs. Raises [Invalid_argument] if [mtu]
    does not exceed the header or the count exceeds 0xFFFF. *)

val write_fragment :
  Checksum.Kind.t option ->
  Bytebuf.t ->
  mtu:int ->
  stream:int ->
  index:int ->
  Bytebuf.t ->
  total_len:int ->
  frag_idx:int ->
  int
(** [write_fragment integrity dg ~mtu ~stream ~index src ~total_len
    ~frag_idx] copies fragment [frag_idx] of the [total_len]-byte encoded
    ADU at the front of [src] into [dg] behind its header and seals it,
    allocating nothing under CRC-32 integrity. Returns the datagram's
    length. *)

val seal_single :
  Checksum.Kind.t option ->
  Bytebuf.t ->
  stream:int ->
  Adu.name ->
  plen:int ->
  payload_crc:int ->
  int
(** A one-fragment ADU datagram whose [plen]-byte payload, of CRC-32
    [payload_crc], already sits at [fragment_header_size +
    Adu.header_size] in [dg]: lays both headers ({!Adu.write_header})
    and seals. Returns the datagram's length. Allocates nothing under
    CRC-32 integrity. *)

val fragment : mtu:int -> Adu.t -> Bytebuf.t list
(** Unsealed wire-format fragments of the encoded ADU, each at most
    [mtu] bytes including the fragment header. *)

val fragment_encoded :
  mtu:int -> stream:int -> index:int -> Bytebuf.t -> Bytebuf.t list
(** Like {!fragment} for an ADU already in encoded form (e.g. recalled
    from a {!Recovery.store}), avoiding a re-encode. *)

(** {2 The datagram reader}

    The writer's mirror. {!read} checks a received datagram's integrity
    trailer, then the layout of its kind, into a {!view} the caller owns
    and reuses, and returns a constant verdict. It never raises, and it
    allocates nothing under integrity [None] or CRC-32 (tested). The
    fragment header, each control body and the trailer are read here and
    nowhere else. *)

type kind = Data | Close | Done | Nack | Gone | Fec
type verdict = Valid | Runt | Oversize | Bad_kind | Bad_frag | Bad_ctl | Bad_crc

type view = private {
  max_len : int;  (** Longest datagram admitted, trailer included. *)
  max_total_len : int;  (** Largest encoded ADU a fragment may claim. *)
  mutable dg : Bytebuf.t;  (** The datagram last read. *)
  mutable kind : kind;
  mutable stream : int;
      (** Bytes 1–2 whatever the verdict (an FEC block's group number);
          [-1] under 3 bytes. *)
  mutable index : int;
  mutable frag_idx : int;
  mutable nfrags : int;
  mutable total_len : int;
  mutable frag_off : int;
  mutable chunk_off : int;  (** Where the chunk, FEC block or index list starts. *)
  mutable chunk_len : int;
  mutable total : int;  (** A CLOSE's. *)
  mutable have_below : int;  (** A NACK's. *)
  mutable count : int;  (** Indices a NACK or GONE lists: {!index_at}. *)
  adu : Adu.header;  (** For {!Adu.read_header} on a lone fragment's chunk. *)
}
(** After a rejection, fields hold whatever was read before it. *)

val view : ?max_len:int -> ?max_total_len:int -> unit -> view
(** Both limits default to [max_int]. *)

val read : view -> Checksum.Kind.t option -> Bytebuf.t -> verdict
(** [Bad_crc] when the trailer is short or wrong. Then the layout: under
    3 body bytes is a [Runt], over [max_len] [Oversize], an unknown first
    byte [Bad_kind]; a fragment needs its header, [frag_idx < nfrags],
    [Adu.header_size <= total_len <= max_total_len], its chunk within
    [total_len] and, when alone, all of it; a control body has its exact
    length; an FEC block is any bytes after its tag. *)

val read_prefix :
  view -> Checksum.Kind.t option -> Bytebuf.t -> len:int -> verdict
(** {!read} of a datagram held in the first [len] bytes of a longer
    buffer, such as a staging slot, without a sub-slice: [dg] in the view
    is then the whole buffer, and every field stays within [len]. Raises
    [Invalid_argument] when [len] is outside the buffer. *)

val read_layout : view -> Checksum.Kind.t option -> Bytebuf.t -> verdict
(** {!read} taking only the trailer's length, not its digest: stage 0's
    check on the I/O thread. *)

val index_at : view -> int -> int
(** The [i]th index a NACK or GONE lists, [0 <= i < count]. *)

(** {1 Reassembly (receive stage 1)} *)

type reassembler

type reasm_stats = {
  mutable completed : int;
  mutable duplicate_frags : int;
  mutable corrupt_adus : int;  (** Completed but failed the ADU CRC. *)
  mutable inconsistent_frags : int;
}

val reassembler :
  ?pool:Pool.t -> deliver:(Adu.t -> unit) -> unit -> reassembler
(** Complete ADUs are delivered the moment their last fragment arrives —
    in arrival order, not index order.

    Delivered payloads {e alias} the reassembly buffer ({!Adu.of_header});
    no per-ADU copy is made. With [?pool], reassembly buffers come from the
    pool whenever the encoded ADU fits [buf_size] (falling back to fresh
    allocation otherwise), and are recycled {e as soon as [deliver]
    returns} — the callback must consume, transform or copy the payload
    before returning, never retain it. Without a pool the buffer is fresh
    per ADU and the payload stays valid indefinitely. Steady state with a
    pool performs zero buffer allocations per ADU. *)

val reassembler_encoded :
  ?pool:Pool.t ->
  complete:(Adu.header -> Bytebuf.t -> unit) ->
  unit ->
  reassembler
(** {!reassembler} handing over each complete ADU still encoded: [complete
    h buf] gets the reassembly buffer, with the ADU at offset 0 and its
    header already read into [h] (see {!Adu.of_header}), so the receiver
    can open a sealed record before it builds the one {!Adu.t} it
    delivers. [buf] may be longer than the ADU; the same borrow contract
    holds. *)

val push : reassembler -> view -> unit
(** Add the fragment a [Valid] {!read} left in the view. An index that
    already completed (or was {!forget}-gotten) is {e retired}: further
    fragments for it — late retransmissions crossing the repair that
    satisfied them — count as [duplicate_frags] and are dropped before
    any buffer acquisition or copy work. *)

val stats : reassembler -> reasm_stats

val pending_adus : reassembler -> int
(** ADUs with at least one but not all fragments. *)

val forget : reassembler -> index:int -> unit
(** Drop partial state for an ADU (e.g. the sender declared it gone) and
    retire the index: stray late fragments for it are counted as
    duplicates instead of re-opening a partial. *)

val unretire : reassembler -> index:int -> unit
(** Make a completed index repairable again: drop its retired mark so a
    retransmission can re-open a partial. Used when an ADU reassembled
    cleanly but failed record authentication — the delivered bytes were
    forged or damaged above the checksum, and the repair machinery must
    be allowed to fetch the real ones. No-op below the floor. *)

val retire_below : reassembler -> bound:int -> unit
(** Every index below [bound] is settled upstream (the receiver's
    contiguous frontier passed it): raise the implicit retirement floor
    and release the per-index entries — retired marks and any stale
    partials, whose pooled buffers go back to the pool — that the floor
    subsumes. Keeps a long-lived reassembler's tables sized by the
    reordering window instead of the stream length. Monotone; calls with
    a lower bound are no-ops. *)

val retired_count : reassembler -> int
(** Live entries in the retired-index table (above the floor) — the
    bounded-state regression probe. *)

val clear : reassembler -> unit
(** Drop every in-flight partial — releasing pooled reassembly buffers —
    and empty the retired table, whatever the indices. For session
    teardown, where {!retire_below} would strand partials above the
    session's settled bound (a pool-budget leak under hostile churn). *)
