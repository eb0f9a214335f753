(** The Integrated Layer Processing engine.

    A receive (or send) path is declared as an ordered list of
    manipulation {!stage}s — cipher, checksums, presentation byte-order
    conversion, the final move into application space. The same
    declaration can then be executed two ways:

    - {!run_layered}: one full pass over the data per stage, with an
      intermediate buffer wherever a stage rewrites bytes — the engineering
      style layered protocol suites induce;
    - {!run_fused}: one pass, always {e compiled}. Every valid plan is
      lowered when it is compiled ({!compile}) to one block driver:
      each stage is a block op over 64 bytes in place
      (Internet checksum over 32-bit halves of 64-bit loads, sliced
      CRC-32, ChaCha20/Poly1305 on whole blocks) plus a tail op for the
      last [len mod 64] bytes, and the driver copies (or byte-swaps)
      each block into the destination, then runs every stage over it
      while it is L1-hot. Dispatch happens once per stage per block,
      and the production stages allocate nothing; a few whole-plan
      shapes short-circuit to the hand-fused {!Kernels}. This is §8's
      compilation-vs-interpretation distinction made executable: the
      interpreted fusion ({!run_fused_interpreted}) survives as the
      semantic oracle, the compiled path delivers the performance the
      paper claims (see experiments E2 and E14).

    All executions produce identical outputs and checksum values (a
    property the test suite checks exhaustively); they differ only in
    memory traffic and dispatch cost. {!validate} enforces the ordering
    constraints that §6 of the paper discusses: a group-permuting
    conversion can only be fused as the first stage, and a strictly
    sequential cipher poisons out-of-order processing
    ({!needs_in_order}) even though it fuses fine. *)

open Bufkit

(** Run-time parameters of an AEAD record stage: the (epoch-derived)
    ChaCha20 key, the 96-bit nonce as three u32 words, and the additional
    authenticated data. A compiled instance ({!compile}) reads them at the
    start of every run, so a record context can hold one params record
    and rewrite it in place for each record (see
    {!Secure.Record.seal_params}). The AAD slice is only read while the
    stage runs, so a per-endpoint scratch buffer can be reused across
    records. *)
type aead_params = {
  mutable aead_key : Cipher.Chacha20.key;
  mutable aead_n0 : int;
  mutable aead_n1 : int;
  mutable aead_n2 : int;
  aead_aad : Bytebuf.t;
}

type stage =
  | Checksum of Checksum.Kind.t
      (** Accumulate an error-detecting code over the data {e as this
          stage sees it} (after upstream transforms). *)
  | Xor_pad of { key : int64; pos : int64 }
      (** Seekable keystream cipher ({!Cipher.Pad}); position-addressed,
          so ADUs can be processed out of order. *)
  | Rc4_stream of { key : string }
      (** Sequential stream cipher; fusable, but forces in-order
          processing across data units. Kept as the §5 chaining-pathology
          ablation — {!Aead_seal}/{!Aead_open} are the real record
          stages. *)
  | Aead_seal of aead_params
      (** ChaCha20-Poly1305 record encryption fused into the block loop:
          each 64-byte block is XORed with the seekable keystream and
          the ciphertext absorbed into the MAC while it is L1-hot.
          The 128-bit tag lands in [result.tags]. One AEAD stage per
          plan; downstream checksum stages digest the {e ciphertext}. *)
  | Aead_open of aead_params
      (** The receive mirror: MAC the arriving ciphertext and decrypt it
          in the same pass. The computed tag lands in [result.tags] (or
          [unmarshal_result.tags]/[view_result.view_tags]) — the caller
          compares it against the transmitted tag and treats a mismatch
          as a counted drop; the stage itself never fails. *)
  | Byteswap32
      (** Presentation conversion in miniature: reverse each 4-byte
          group (big↔little endian array). Requires length ≡ 0 mod 4. *)
  | Deliver_copy
      (** The move into application address space. In the fused loop this
          is the single store the loop was going to do anyway — the
          clearest ILP win. *)

val stage_name : stage -> string
val pp_stage : Format.formatter -> stage -> unit

type plan = stage list

val validate : plan -> (unit, string) result
(** Fusion ordering constraints: at most one [Byteswap32] and only as the
    first stage; at most one [Rc4_stream] (keystream split is undefined
    otherwise); at most one AEAD stage (one plan = one record).
    [run_fused] refuses plans that do not validate. *)

val needs_in_order : plan -> bool
(** True iff some stage (an [Rc4_stream]) forbids processing data units
    out of order — the property ALF needs to avoid. AEAD stages are
    seekable and never set this. *)

type result = {
  output : Bytebuf.t;
  checksums : (Checksum.Kind.t * int) list;  (** In plan order. *)
  tags : (int64 * int64) list;
      (** Poly1305 tags of AEAD stages, in plan order (at most one). *)
  passes : int;  (** Full passes made over the data. *)
  bytes_touched : int;  (** Total bytes read + written across passes. *)
  compiled : bool;  (** The plan was dispatched to a fused kernel. *)
}

val run_layered : plan -> Bytebuf.t -> result
(** Executes each stage as its own pass. Raises [Invalid_argument] on a
    [Byteswap32] with length not a multiple of 4. *)

val run_fused : ?dst:Bytebuf.t -> plan -> Bytebuf.t -> result
(** Single-loop compiled execution ([result.compiled] is always [true]).
    Raises [Invalid_argument] if the plan does not {!validate} or on a
    bad [Byteswap32] length.

    [?dst] supplies the output buffer — typically a {!Bufkit.Pool} slice
    or a region of the application's destination, making delivery
    allocation-free. Must have exactly the input's length (else
    [Invalid_argument]); [result.output] is then [dst] itself. [dst]
    must not overlap the input, except that passing the input itself
    transforms in place when the plan has no leading [Byteswap32]. *)

(** {1 Compiled instances}

    What an endpoint holds for a plan it runs on every ADU: the plan
    compiled once, with its stage state kept across runs and reset in
    place at the start of each. An AEAD stage re-reads its
    {!aead_params} at every run, so one instance seals or opens a new
    record each time its params are rewritten. Checksums and the tag land
    in fixed slots. {!run_fused} is {!compile} plus one {!exec} plus its
    registry accounting, {!run_marshal} is {!compile_marshal} plus one
    {!exec_marshal} plus its accounting. *)

type instance

val compile : plan -> instance
(** Validate [plan], pick its lowering (a hand-fused {!Kernels} loop for
    a few whole-plan shapes, else the block driver) and build its stage
    state. Pad keys and stream positions are taken from [plan] as given;
    AEAD params are read at each run. Raises [Invalid_argument] if the
    plan does not {!validate}. *)

val exec : instance -> dst:Bytebuf.t -> Bytebuf.t -> unit
(** [exec inst ~dst input] runs the plan over [input] into the first
    [length input] bytes of [dst], with the same output bytes, checksums
    and tags as {!run_fused}. [dst] may be longer than the input; it
    must not overlap the input, except that the input itself (or a
    slice at the same offset of the same storage) transforms in place
    when the plan has no leading [Byteswap32]. No validation, clock
    read or registry update. Under the block driver (every plan
    but the hand-fused {!Kernels} shapes) a run with Internet, CRC-32,
    pad, swap and copy stages allocates nothing. Raises
    [Invalid_argument] when [dst] is shorter than [input] or on a bad
    [Byteswap32] length. *)

val checksum : instance -> int -> int
(** [checksum inst i] is the [i]th checksum stage's value (plan order)
    after the last {!exec}. *)

val last_checksum : instance -> int
(** The last checksum stage's value after the last {!exec}: the digest a
    transport that appends its framing CRC to a caller's plan reads.
    Raises [Invalid_argument] when the plan has no checksum stage. *)

val checksums : instance -> (Checksum.Kind.t * int) list
(** Every checksum stage's value after the last {!exec}, as in
    [result.checksums]. *)

val tags : instance -> (int64 * int64) list
(** The AEAD stage's tag after the last {!exec}, as in [result.tags]. *)

val write_tag : instance -> Bytebuf.t -> pos:int -> unit
(** [write_tag inst dst ~pos] copies the AEAD stage's 16-byte tag after
    the last run (little-endian [lo] then [hi], as a record trailer
    carries it) into [dst] at [pos], allocating nothing. Raises
    [Invalid_argument] when the plan has no AEAD stage or [dst] has no
    room. *)

val run_fused_interpreted : plan -> Bytebuf.t -> result
(** The generic per-byte stage interpreter: closure-list dispatch per
    byte — the anti-pattern the paper warns about, kept as the semantic
    oracle for the compilation-vs-interpretation ablation. Same results
    as {!run_fused}, never compiled. *)

(** {1 Fused presentation conversion}

    The paper's §4 observation, made a first-class engine feature:
    presentation conversion is itself a data-manipulation stage, so the
    marshaller can {e be} the first stage of a send plan and the
    unmarshaller the last stage of a receive plan.

    {!run_marshal} encodes a {!Wire.Value.t} while simultaneously
    running the stage chain: the encoder stores straight into the
    destination through a {!Wire.Sink} whose block hook is the block
    driver {!run_fused} uses, so marshal + checksum + encrypt + the
    delivering store happen in one pass — completed 64-byte blocks are
    checksummed and encrypted in place within 1 KB of the encoder,
    without the value ever existing as an intermediate buffer.
    {!run_unmarshal} mirrors it: the streaming decoder pulls
    bytes through a {!Bufkit.Cursor.demand_reader} hook that
    decrypts/verifies the input a block at a time just ahead of the
    parse (and finishes the pass after the decode so integrity covers
    the whole unit).

    Plans containing [Byteswap32] are rejected in both directions — the
    codecs already emit/consume wire byte order — and every other valid
    plan runs under the block driver, never a {!Kernels} loop.

    Nothing here is looked up per record: a sender compiles its plan
    ({!compile_marshal}) and its XDR schema ({!Wire.Schema.prog_of_xdr})
    once and passes both to every {!exec_marshal}. *)

type source =
  | Marshal_prog of Wire.Schema.prog * Wire.Value.t
      (** The production XDR source: a program the caller compiled once
          with {!Wire.Schema.prog_of_xdr} and holds, so sizing and
          emission run the compiled (branchless, schema-dispatch-free)
          programs with no lookup per record. Byte-identical to the
          interpretive encoder. *)
  | Marshal_xdr_interp of Wire.Xdr.schema * Wire.Value.t
      (** The interpretive walk ({!Wire.Xdr.emit}), kept as
          the ablation baseline the E19 bench and the compiled==interp
          properties compare against. *)
  | Marshal_ber of Wire.Value.t
      (** BER stays interpretive: its TLV headers are value-dependent,
          so there is no static shape to compile. *)

type sink = Unmarshal_xdr of Wire.Xdr.schema | Unmarshal_ber

val compile_marshal : plan -> instance
(** The instance a sender holds for [plan] run behind a marshal source,
    of any codec: validated as {!run_marshal} does, with the encoder's
    sink built once; each {!exec_marshal} names its own source. Raises
    [Invalid_argument] as {!run_marshal} does on an invalid plan. *)

val exec_marshal : instance -> dst:Bytebuf.t -> source -> unit
(** [exec_marshal inst ~dst source] encodes [source] into [dst], which
    must be exactly its encoded length, running the stages over it in the
    same pass — the bytes, checksums and tag of {!run_marshal} with the
    same plan, in {!checksum}/{!tags}/{!write_tag}. No validation, clock
    read or registry update; with the production stages and a held
    program ([Marshal_prog]) a run allocates nothing, at any length.
    Raises [Invalid_argument] when [inst] is not from {!compile_marshal}
    or [dst] is not the encoded length, and the codec's error on a
    schema/value mismatch. *)

val marshal_size : source -> int
(** Exact number of bytes {!run_marshal} will produce (the codec's
    [sizeof], or the program's size precomputation for [Marshal_prog]).
    Raises the codec's error on a schema mismatch — except inside
    statically-sized subtrees of a compiled schema, where sizing never
    inspects the value and the mismatch surfaces in {!run_marshal}
    instead (see {!Wire.Schema.size}). *)

val run_marshal : ?dst:Bytebuf.t -> source -> plan -> result
(** Single-pass fused marshal. [result.output] holds the encoding as
    transformed by the plan (ciphers applied); [result.checksums] are
    digests of the data as each checksum stage saw it, exactly as in
    {!run_fused} — i.e. byte-identical to [run_fused plan (encode v)].
    [?dst] must have exactly {!marshal_size}[ source] bytes (typically a
    slice of a pooled datagram buffer, making the whole send path
    allocation-free). Raises [Invalid_argument] on invalid plans or a
    [dst] of the wrong length — an undersized one before any byte past
    it is written — and the codec's error on schema/value mismatch. *)

type unmarshal_result = {
  value : Wire.Value.t;
  consumed : int;  (** Bytes of input the decoded value occupied. *)
  checksums : (Checksum.Kind.t * int) list;
      (** Digests over the {e entire} input (not just [consumed]), of
          the data as each stage saw it — matching the send side. *)
  tags : (int64 * int64) list;
      (** Computed Poly1305 tags of AEAD stages, over the entire input. *)
}

val run_unmarshal : ?dst:Bytebuf.t -> plan -> sink -> Bytebuf.t -> unmarshal_result
(** Single-pass fused receive decode: run the plan's transform stages
    over [input] and decode one value from the result, interleaved —
    the decoder demands bytes just ahead of the parse. [?dst] receives
    the transformed bytes (same length as the input); passing the input
    itself transforms in place, which is how a borrowed ADU view is
    decoded with zero allocation. Decode errors propagate as the
    codec's exception; checksum stages still only make one pass. *)

(** {2 Lazy receive: transform + validate, decode on demand}

    {!run_unmarshal} still materializes a {!Wire.Value.t} per unit.
    {!run_view} is the lazy mirror: one pass runs the manipulation plan
    over the whole unit (integrity must cover it all anyway) and the
    compiled {!Wire.Schema.validate} program over the result — no value
    is built, no bytes are copied beyond the plan's own store. The
    returned {!Wire.View.t} then decodes only the fields the application
    actually touches. *)

type view_result = {
  view : (Wire.View.t * int, string) Stdlib.result;
      (** The root view over the transformed bytes plus the encoding's
          length, or a validation error. Total: hostile bytes yield
          [Error], never an exception. *)
  view_checksums : (Checksum.Kind.t * int) list;
      (** Digests over the entire input, as in {!unmarshal_result}. *)
  view_tags : (int64 * int64) list;
      (** Computed Poly1305 tags of AEAD stages, as in
          {!unmarshal_result}. *)
}

val run_view : ?dst:Bytebuf.t -> plan -> Wire.Schema.prog -> Bytebuf.t -> view_result
(** [run_view plan prog input] transforms [input] under [plan] (into
    [?dst], defaulting to a fresh buffer; passing [input] itself
    transforms in place — the zero-copy borrowed-ADU form) and validates
    one [prog]-shaped value at offset 0. In place under a plan with no
    transforming or digesting stage ([[]] or only [Deliver_copy]) no
    pass runs at all and no instance is built: only the validation reads
    the bytes. Other plans run on an instance of their own, under the
    block driver. Trailing bytes after the value are reflected in the
    returned length, as with {!Xdr.decode_prefix}.
    The view {e borrows} [dst]; it must not outlive the buffer's owner.
    Raises [Invalid_argument] only on invalid plans (same rules as
    {!run_unmarshal}); byte content never raises. Accounted under
    [ilp.view.*]. *)
