(** The ALF transport: out-of-order ADU delivery with selectable recovery.

    The protocol §5–6 sketches, made concrete over any {!Dgram.t}
    datagram service:

    - the sender fragments each ADU into transmission units and paces them
      at a configured rate (the paper keeps rate negotiation out of band,
      so the rate is a parameter, not an in-band control loop);
    - the receiver's {e stage 1} ({!Rx}) maps transmission units back to
      ADUs and hands every {e complete} ADU to the application
      immediately — out of order, each carrying its self-describing
      {!Adu.name};
    - losses are repaired per whole ADU by receiver NACKs, answered
      according to the application's {!Recovery.policy}: resend from the
      transport's copy, regenerate at the sending application, or declare
      the ADU gone (the receiver then stops asking and reports the loss in
      application terms);
    - a CLOSE/DONE exchange delimits the stream so both ends can observe
      completion.

    All ordering, naming and recovery state is per-ADU; nothing anywhere
    in the path waits for sequence-number contiguity — the property that
    keeps the presentation pipeline of experiment E6 busy under loss.

    The transport is backend-neutral: every timer and clock read goes
    through a {!Rt.Sched.t}, so the same code runs over the simulator
    ([Netsim.Engine.sched engine]) or over real sockets and wall-clock
    time ([Rt.Loop.sched loop] with a [Dgram.of_rt] substrate). All
    session timers are held as cancellable handles and disarmed when the
    session finishes (DONE received, completion, kill, give-up) — no
    callback fires into a closed session. *)

open Netsim

type sender_config = {
  mtu : int;  (** Max UDP payload per fragment (default 1472). *)
  pace_bps : float option;  (** Fragment pacing; [None] = send at once. *)
  close_retry : float;  (** Base CLOSE retransmission interval, seconds.
      Backs off exponentially (cap 2⁶) while unanswered; any NACK resets
      the cadence (counted as [nack_backoff_resets]). *)
  close_attempts : int;  (** CLOSE transmissions before the sender gives
      up on the receiver and releases its retransmission store
      (default 64). *)
  integrity : Checksum.Kind.t option;  (** Per-datagram checksum trailer
      (4 bytes, appended to every fragment and control message). Both
      ends must agree. Default [Some Crc32]; [None] restores the bare
      wire format. *)
  fec_k : int;  (** FEC group size when degradation activates (default 4:
      25% overhead, repairs one loss per group with no round trip). *)
  fec_loss_threshold : float;  (** Loss estimate (EWMA of NACK volume vs
      outstanding ADUs) at which the sender switches the fragment stream
      to {!Fec.protect} — sticky once crossed. A value > 1.0 (the
      default, 2.0) disables FEC entirely. FEC-wrapped fragments are not
      {!Mux}-compatible (the group id lands where the mux expects the
      stream id), so leave it disabled on muxed endpoints. *)
}

val default_sender_config : sender_config

type sender_stats = {
  mutable adus_sent : int;
  mutable frags_sent : int;
  mutable bytes_sent : int;  (** Fragment payload bytes, first pass. *)
  mutable nacks_received : int;
  mutable adus_retransmitted : int;
  mutable bytes_retransmitted : int;
  mutable adus_gone : int;  (** NACKed but unrecoverable under the policy. *)
  mutable store_peak : int;  (** High-water retransmission footprint, bytes. *)
  mutable nack_backoff_resets : int;  (** CLOSE backoff resets caused by a
      NACK proving the receiver alive. *)
}

type sender

val sender_io :
  sched:Rt.Sched.t ->
  io:Dgram.t ->
  peer:Packet.addr ->
  peer_port:int ->
  port:int ->
  stream:int ->
  policy:Recovery.policy ->
  ?secure:Secure.Record.t ->
  ?tx_pool:Bufkit.Pool.t ->
  ?config:sender_config ->
  unit ->
  sender
(** A sender over any datagram substrate: [Dgram.of_udp] over the
    simulator, [Dgram.of_rt] over real sockets, [Dgram.of_atm] over
    cells, or a {!Mux.stream_io} endpoint shared with other streams.

    Every datagram is written and sealed in place by the {!Framing}
    writer. With [?tx_pool] each one is a pooled buffer, recycled once it
    has been handed to the wire; buffers too small for a datagram, or an
    exhausted pool, fall back to fresh ones. Steady-state transmit then
    creates no buffer per ADU unless the recovery policy is
    [Transport_buffer], which must keep a copy. *)

val send_adu : sender -> Adu.t -> unit
(** Queue an ADU. Indices must be used once each; they need not arrive
    here in order. *)

val send_value : sender -> name:Adu.name -> ?plan:Ilp.plan -> Ilp.source -> unit
(** The integrated send path (§4 of the paper as an API): marshal the
    value and run the [plan]'s transform stages, the record seal and a
    CRC-32 over it in {e one pass}, straight into the outgoing datagram
    when the ADU fits one fragment, else into the sender's reused scratch
    buffer, from which each fragment is copied into its datagram. The
    pass runs on an instance the sender compiled once
    ({!Ilp.compile_marshal}), and again only when [plan] is not the one
    given last (by identity). The ADU header's CRC is derived from the
    in-loop digest with {!Checksum.Crc32.combine}, not a second read.
    {!send_adu} is the same path with a copy ({!Ilp.exec}) in place of
    the marshal.

    [plan] must be valid for marshalling (no [Byteswap32]); the receiver
    mirrors it in {!deliver_values}. [name.index] obeys the same
    uniqueness rule as {!send_adu}. *)

val close : sender -> unit
(** No more ADUs: announce the total and retransmit the announcement until
    the receiver confirms completion. *)

val finished : sender -> bool
(** DONE received. *)

val sender_gave_up : sender -> bool
(** [close_attempts] CLOSEs went unanswered: the sender stopped retrying
    and released its store. *)

val fec_active : sender -> bool
(** The loss estimate crossed [fec_loss_threshold] and the fragment
    stream is now FEC-protected. *)

val kill_sender : sender -> unit
(** Chaos hook: the sending process dies now. Queued fragments never
    reach the wire, the retransmission store is released, and all
    handlers and timers become no-ops. Idempotent. *)

val set_sender_tracer : sender -> (string -> unit) -> unit
(** Line-oriented event tracer (retransmissions, gone declarations). *)

val sender_stats : sender -> sender_stats
val store_footprint : sender -> int

val sender_table_sizes : sender -> int * int * int
(** [(outq, queued_frags, gone_announced)] loads — the teardown probe:
    all three must be zero once the sender has finished, been killed, or
    given up. *)

(** {1 Receiver} *)

type receiver_stats = {
  mutable adus_delivered : int;
  mutable bytes_delivered : int;
  mutable out_of_order : int;  (** Delivered before some lower index. *)
  mutable adus_lost : int;  (** Declared gone by the sender. *)
  mutable nacks_sent : int;
  mutable duplicates : int;  (** Fragments that carried nothing new: for
      an index already settled, or already held by its partial. *)
  mutable frags_corrupt_dropped : int;  (** Datagrams failing the
      integrity trailer, dropped at stage 1. *)
  mutable adus_auth_dropped : int;  (** Reassembled ADUs failing record
      authentication ({!Secure.Record}): counted, un-retired for NACK
      repair, never delivered. *)
  mutable adus_gone_local : int;  (** Declared gone by the receiver: NACK
      budget or deadline exhausted, or the sender went silent. *)
}

type receiver

val receiver_io :
  sched:Rt.Sched.t ->
  io:Dgram.t ->
  port:int ->
  stream:int ->
  ?nack_interval:float ->
  ?nack_holdoff:float ->
  ?nack_budget:int ->
  ?adu_deadline:float ->
  ?giveup_idle:float ->
  ?integrity:Checksum.Kind.t option ->
  ?secure:Secure.Record.t ->
  ?seed:int64 ->
  ?reasm_pool:Bufkit.Pool.t ->
  deliver:(Adu.t -> unit) ->
  unit ->
  receiver
(** A receiver over any datagram substrate (see {!sender_io}). Stage 1
    is {!Rx}: [deliver] fires once per ADU, the moment its last fragment
    arrives, regardless of index order. Compose it with {!deliver_values}
    or {!deliver_views} to run stage 2 in the same callback.

    Delivered payloads are {e borrowed}: a single-fragment ADU aliases
    the received datagram, and a reassembled one aliases its reassembly
    buffer, which [?reasm_pool] recycles the moment [deliver] returns.
    Consume, transform ({!Ilp.run_fused}) or copy within the callback —
    never retain.

    The repair loop is paced by an {!Transport.Rto} estimator seeded at
    [nack_interval] (default 20 ms, also its floor; ceiling 1 s): rounds
    that keep asking with no progress back off exponentially, a repair
    that answers a single NACK feeds the measured round trip back, and a
    small deterministic jitter (seeded from [seed], default derived from
    port and stream) desynchronises rounds. An individual index is
    re-requested no sooner than [nack_holdoff] seconds (default 60 ms —
    cover a repair round trip), doubling per retry.

    Hostile-network bounds: after [nack_budget] requests (default 50) or
    [adu_deadline] seconds missing (default 10), an index is declared
    {e locally gone} — reported in [adus_gone_local] exactly like a
    sender-side GONE, so the application sees the loss in its own terms
    instead of a hung transfer. After [giveup_idle] seconds (default 3)
    with no integrity-verified datagram, the sender is presumed dead: all
    outstanding indices go locally gone and the repair loop stops (so a
    simulation can quiesce); any later verified datagram revives it.

    [integrity] must match the sender's (default [Some Crc32]);
    datagrams failing the check are dropped before they can poison
    reassembly, forge control traffic, or latch a spoofed sender
    address, and are counted in [frags_corrupt_dropped]. Fragments and
    GONE indices at or above a known CLOSE total are ignored. *)

val deliver_values :
  ?plan:Ilp.plan ->
  sink:Ilp.sink ->
  (Adu.name -> Wire.Value.t -> unit) ->
  Adu.t ->
  unit
(** [deliver_values ~sink f] is a [deliver] callback for {!receiver_io}
    mirroring {!send_value}: each delivered ADU's payload is run through
    [plan] (the receive-side mirror of the send plan — same stages,
    ciphers at matching positions) and decoded by [sink] {e in one pass
    over the borrowed payload} ({!Ilp.run_unmarshal} with [dst =
    payload]: decrypt in place, parse just behind), then handed to [f].
    The decode completes before the stage-1 callback returns, as the
    borrow requires. Payloads that fail to decode are dropped and
    counted on the [alf.receiver.unmarshal_failed] registry counter (the
    ADU itself already passed its CRC, so this means sender/receiver plan
    or schema disagreement). *)

val deliver_views :
  ?plan:Ilp.plan ->
  prog:Wire.Schema.prog ->
  (Adu.name -> Wire.View.t -> unit) ->
  Adu.t ->
  unit
(** The lazy mirror of {!deliver_values}: one pass runs [plan] plus the
    compiled {!Wire.Schema.validate} over the borrowed payload
    ({!Ilp.run_view} with [dst = payload] — in place, zero copies, zero
    allocations), and [f] receives a {!Wire.View.t} instead of a
    materialized value. The view borrows the payload: it is valid only
    during the callback (copy out to retain — that is the point: the
    application pays decode cost only for the fields it touches).
    Invalid payloads are dropped and counted on
    [alf.receiver.view_invalid]; arbitrary bytes never raise. *)

val set_receiver_tracer : receiver -> (string -> unit) -> unit
(** Line-oriented event tracer (NACKs, out-of-order completions). *)

val receiver_stats : receiver -> receiver_stats

val reassembly_stats : receiver -> Framing.reasm_stats
(** Stage-1 reassembly counters. [corrupt_adus] counts every ADU that
    failed its decode or CRC, single-fragment ones included — it staying
    zero under a corrupting link is the soak evidence that integrity
    drops happen before reassembly. The other counters cover
    multi-fragment ADUs only: single-fragment ones never touch the
    reassembler. *)

val complete : receiver -> bool
(** CLOSE seen and every index below the total delivered or declared
    gone. *)

val abandoned : receiver -> bool
(** The repair loop gave up after [giveup_idle] of sender silence without
    reaching completion. Cleared if verified traffic resumes. *)

val settled : receiver -> int -> bool
(** Index delivered or gone (either end's declaration) — the
    accounting soak invariants check. Answered by comparison against the
    contiguous frontier for indices below it, by table lookup above:
    per-index state is retired as the frontier passes it, so a streaming
    receiver's tables stay sized by the reordering window, not the
    stream. *)

val receiver_frontier : receiver -> int
(** Lowest index not yet settled; everything below is delivered or
    gone. *)

val receiver_table_sizes : receiver -> int * int
(** [(ahead, reqs)] Hashtbl loads — the bounded-state probe: on a
    long-lived in-order stream both stay flat (entries exist only for
    indices settled or chased out of order). *)

val receiver_retired_count : receiver -> int
(** Live entries in the stage-1 reassembler's retired-index table (see
    {!Framing.retire_below}); rides the same frontier as the receiver
    tables. *)

val on_complete : receiver -> (unit -> unit) -> unit

val missing : receiver -> int list
(** Indices currently known missing (diagnostic). *)
