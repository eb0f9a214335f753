(** The million-session stage-1 engine.

    One UDP port, any number of concurrent ADU streams: arrivals are
    routed by {!Demux.shard_of} to a domain-sharded session table — no
    global lock, one mutex and one set of buffer pools per shard — and
    each shard's batch of staged datagrams is processed as one task on a
    {!Par.Pool} (stage 1 reassembly + the stage-2 manipulation plan run
    inline, through the shard's compiled {!Ilp.instance}, into the
    shard's own scratch buffer). Each session is an
    {!Alf_core.Rx} receive session, the same stage 1 the single-session
    transport ({!Alf_transport}) drives; this engine is
    the concentrator the paper's §7 parallel-sink argument implies: since
    every ADU is self-contained, sessions are embarrassingly parallel and
    the only shared state is the demux function.

    Threading contract: {!ingest} and {!pump} are called from the main
    thread ({!ingest} usually via the bound {!Dgram.t} handler). During
    {!pump} the shard tasks run on worker domains; all sends are deferred
    through per-shard outboxes and flushed by the main thread after the
    batch — the datagram substrates are not thread-safe and never see a
    worker domain. A queued control reply is kept as its fields and
    written and sealed into one engine scratch buffer at that flush.
    Memory is budgeted per shard: each inbox is a preallocated ring of
    staging buffers, and when a shard's ring is full, arrivals for it are
    dropped and counted ([drop.backpressure]) — backpressure, not
    allocation. Ingest and dispatch make no per-datagram record, closure,
    queue cell or option.

    {b Adversarial ingress.} Every arrival passes the total, alloc-free
    stage 0 ({!Alf_core.Framing.read_layout}, then {!Ingress.validate})
    before demux, so no byte sequence can raise or
    touch shard state un-classified; each shard rate-limits session
    creation and control traffic per peer through fixed-size {!Police}
    tables; and the engine runs an explicit load-state ladder
    (Normal/Shedding/Brownout, hysteresis over staging occupancy) that
    tightens harvest timers and finally refuses new admissions. Every
    dropped datagram lands in exactly one reason-coded [drop.*] counter:
    per shard, [arrivals = accepted + Σ drops] once the queues drain. *)

open Bufkit
open Alf_core

type key = { peer : int; peer_port : int; stream : int }
(** A session: one sender endpoint, one stream id. *)

type config = {
  port : int;  (** Served port (bound on the substrate at {!create}). *)
  shards : int;
  integrity : Checksum.Kind.t option;  (** Must match the senders'. *)
  max_sessions_per_shard : int;  (** Admission cap; beyond it the shard
      evicts (completed-first, then LRU). *)
  rx_buf_size : int;  (** Staging buffer size >= the substrate MTU. *)
  rx_bufs_per_shard : int;  (** Staging budget: the slots of each
      shard's inbox ring, [rx_buf_size] bytes each, in one block
      allocated at {!create}; bounds datagrams queued per shard between
      pumps, and a full ring drops ([drop.backpressure]). *)
  ctl_bufs_per_shard : int;  (** Control-reply budget: the outbox
      depth the overload signal measures against, and the outbox ring's
      first capacity. Replies are queued as fields and written at
      drain, so a burst beyond it grows the ring and allocates no
      buffer. *)
  reasm_bufs_per_shard : int;  (** Reassembly buffers (multi-fragment
      ADUs only — single-fragment ADUs never touch a reassembler). *)
  max_adu : int;  (** Largest decoded ADU the stage-2 scratch covers. *)
  idle_timeout : float;  (** Seconds of silence before an incomplete
      session is harvested. *)
  done_linger : float;  (** Seconds a completed session is kept to
      re-answer a lost DONE. *)
  harvest_interval : float;  (** Harvest cadence via the {!Rt.Sched}
      seam; [<= 0] disables the timer ({!harvest} still works). *)
  nack_holdoff : float;  (** Base per-session NACK spacing (doubles per
      round, cap 2^6). *)
  nack_budget : int;  (** NACK rounds before missing indices are declared
      locally gone. *)
  stage2_plan : Ilp.plan;  (** Compiled once per shard ({!Ilp.compile})
      and run over every delivered payload into the shard scratch
      (default checksum + deliver-copy). *)
  stage2_schema : Wire.Xdr.schema option;  (** When set, stage 2 goes
      lazy: the compiled {!Wire.Schema.validate} pass ({!Wire.View.make})
      checks what the plan wrote into the shard scratch, and delivered
      payloads surface as {!Wire.View.t} through
      [?on_view] — decoded field by field on demand, never materialized.
      Payloads that fail validation count as [view_invalid] (the session
      bookkeeping still advances; a hostile payload cannot wedge the
      stream). Default [None]. *)
  secure : Secure.Record.t option;  (** AEAD record layer: when set,
      every delivered ADU payload is [ct ‖ epoch ‖ tag] and is opened in
      place (one fused MAC+decrypt pass, per-shard {!Secure.Record.clone}
      handles) before stage 2. Failures are counted [Auth] drops — the
      unit behaves like a lost datagram and stays NACK-repairable.
      Default [None]. *)
  obs_prefix : string;  (** Registry namespace:
      [<prefix>.shard<N>.<counter>]. *)
  max_ahead_window : int;  (** Largest accepted distance of any index
      (fragment or GONE) above a session's frontier; beyond it the
      datagram is dropped ([drop.window]). Bounds the ahead table and the
      repair scan against forged indices and hostile CLOSE totals. *)
  police_buckets : int;  (** Token buckets per shard per {!Police} table
      (fixed size, pre-allocated — never grows). *)
  admit_rate : float;  (** Session-creation tokens/second per peer bucket. *)
  admit_burst : float;
  ctl_rate : float;  (** Control-datagram tokens/second per peer bucket. *)
  ctl_burst : float;
  shed_hi : float;  (** Occupancy fraction proposing Shedding. *)
  brown_hi : float;  (** Occupancy fraction proposing Brownout. *)
  load_lo : float;  (** Occupancy fraction proposing Normal again. *)
  load_ticks : int;  (** Consecutive harvest confirmations before the
      load state moves one level. *)
}

val default_config : config

(** {1 Overload control} *)

type load_state = Normal | Shedding | Brownout

val load_state_index : load_state -> int
(** 0, 1, 2 — the [serve.load_state] gauge value. *)

type t

val create :
  sched:Rt.Sched.t ->
  ?io:Dgram.t ->
  ?pool:Par.Pool.t ->
  ?registry:Obs.Registry.t ->
  ?on_adu:(key -> Adu.t -> unit) ->
  ?on_view:(key -> Wire.View.t -> unit) ->
  ?on_complete:(key -> delivered:int -> gone:int -> unit) ->
  ?config:config ->
  unit ->
  t
(** Without [?io] the engine is driven by hand ({!ingest}/{!pump}) and
    control replies are accounted but not transmitted. [?pool] supplies
    the stage-2 worker domains — absent (or size 1), shard tasks run
    inline on the caller. [?on_adu] fires per delivered ADU {e on the
    owning shard's task}, payload borrowed (valid only during the call);
    it must be domain-safe. [?on_view] fires per delivered ADU when
    [config.stage2_schema] is set, {e on the owning shard's task}, with
    a lazy view over the shard scratch — valid only during the call,
    domain-safe required, decode only what you touch (that is the
    point). [?on_complete] fires once per session, on
    the owning shard's task, the moment it completes (frontier reaches
    the CLOSE total) with its delivered/gone split — the hook hostile
    drivers use to account {e honest} sessions exactly while byzantine
    traffic pollutes the engine totals; it must be domain-safe.
    [?registry] defaults to the process-wide one; tests pass a fresh
    registry so re-created engines do not share find-or-create counters.
    Also registers engine-level pulls: [<prefix>.load_state] and
    [<prefix>.drop.<reason>] (sum over shards). *)

val load_state : t -> load_state

val ingest : t -> src:int -> src_port:int -> Bytebuf.t -> unit
(** Stage 0: route by {!Demux.shard_of} (reading the stream id pre-seal),
    copy into the owning shard's staging pool, enqueue. The input buffer
    is borrowed — never retained — so substrate receive buffers recycle
    immediately. Main thread only. *)

val pump : t -> unit
(** Process every shard's staged datagrams (one task per busy shard on
    the worker pool), then flush the control outboxes. Main thread only;
    do not call from inside a {!Par.Pool} task. *)

val harvest : t -> unit
(** One sweep: evict completed-and-lingered and idle sessions, run the
    NACK repair schedule for gappy ones, flush outboxes. Runs
    automatically every [harvest_interval] when positive. *)

val stop : t -> unit
(** Cancel the harvest timer. Idempotent. *)

(** {1 Observation}

    Every counter below is also a registry metric
    ([<obs_prefix>.shard<N>.<name>], plus a [.sessions] pull gauge per
    shard), so shard totals are externally checkable against these
    programmatic sums. *)

type snapshot = {
  arrivals : int;  (** Datagrams presented to {!ingest} for this shard. *)
  accepted : int;  (** Dispatched without a drop (includes dup no-ops). *)
  datagrams : int;  (** Staged datagrams processed on the shard. *)
  delivered : int;  (** ADUs through stage 2. *)
  delivered_bytes : int;
  gone : int;  (** Sender-declared unrecoverable. *)
  gone_local : int;  (** Declared gone here: NACK budget exhausted. *)
  dups : int;
  admitted : int;
  evicted : int;  (** Capacity evictions. *)
  harvested : int;  (** Idle / lingering-DONE evictions. *)
  ctl_sent : int;
  nacks : int;
  dones : int;
  fallback_allocs : int;  (** Stage-2 runs that needed a fresh
      buffer: 0 by construction, since stage 0 and the shards read no
      ADU longer than [max_adu], the size of the shard scratch stage 2
      writes into. Kept for the readers that gate on it. *)
  views : int;  (** Payloads validated and handed to [?on_view]
      (lazy stage 2 only). *)
  view_invalid : int;  (** Payloads that failed schema validation —
      counted, dropped, never raised. *)
  drops : int array;  (** Per {!Ingress.reason}, by {!Ingress.reason_index}. *)
  dropped : int;  (** Σ [drops]. Once queues drain,
      [arrivals = accepted + dropped] per shard. *)
}

val drop_count : t -> Ingress.reason -> int
(** Engine total for one drop reason (sum over shards). *)

val malformed_drops : snapshot -> int
(** Σ of the malformed-shape reasons ({!Ingress.is_malformed}) — the
    number tests equate with injected-malformed counts. *)

val shard_count : t -> int
val shard_snapshot : t -> int -> snapshot
val totals : t -> snapshot
(** Sum of every shard's snapshot. *)

val shard_sessions : t -> int -> int
val live_sessions : t -> int
val peak_sessions : t -> int
(** Sum of per-shard high-water session counts. *)

val pool_allocated : t -> int
(** Buffers ever created across every shard: the staging slots made at
    {!create} and the reassembly pools' buffers (control replies are
    written into one engine scratch). The zero-steady-state-allocation
    gate: its delta over a steady window must be 0. *)

val pool_outstanding : t -> int
(** Buffers currently in use across every shard: staged datagrams
    waiting in the inbox rings and acquired reassembly buffers — the
    live footprint, and the eviction-leak probe: once the queues are
    drained it is bounded by the {e live} sessions' partials, however
    many sessions churned through, because dropping a session releases
    every pooled buffer it held. *)

val shard_of_key : t -> peer:int -> peer_port:int -> stream:int -> int
val locate : t -> peer:int -> peer_port:int -> stream:int -> int option
(** The shard whose table actually holds the session (scan; tests check
    it equals {!shard_of_key}). *)

type session_view = {
  v_frontier : int;
  v_total : int;  (** -1 until a CLOSE arrives. *)
  v_delivered : int;
  v_gone : int;
  v_completed : bool;
  v_ahead_load : int;  (** Live entries in the ahead-of-frontier table. *)
}

val session_view : t -> peer:int -> peer_port:int -> stream:int -> session_view option

val max_ahead_load : t -> int
(** Largest ahead-table load over all live sessions (O(sessions); the
    flat-table probe). *)
