(** Deterministic fault injection.

    A {!plan} is a seeded schedule of faults — the failure modes the
    paper's §5 robustness argument says a transfer-control architecture
    must absorb, plus the end-system ones (memory pressure, a dying
    worker domain) that FlexTOE-style fine-grained data paths add. Every
    fault fires at a virtual instant through hooks in [netsim], [bufkit]
    and [par], so a whole hostile run is reproducible from one RNG seed:
    same seed, same packet fates, same fault timings, same counters. *)

open Netsim

exception Fault of string
(** What an injected worker-domain fault raises. *)

type dir = Forward | Backward | Both
(** Which side of a duplex topology a link fault hits ([Forward] is the
    data direction a→b). *)

type event =
  | Kill_sender of { at : float }
      (** The sending process dies: queued data never leaves, NACKs go
          unanswered forever after. *)
  | Link_down of { dir : dir; at : float; duration : float }
      (** Administrative outage: sends fail (counted [dropped_down]);
          packets already in flight still arrive. *)
  | Burst_impair of { dir : dir; at : float; duration : float; impair : Impair.t }
      (** A burst window swaps the link's impairment model, then restores
          what it found. *)
  | Pool_squeeze of { at : float; duration : float; hold : int }
      (** Acquire up to [hold] buffers from a capped {!Bufkit.Pool} and
          hold them for [duration] — memory pressure on demand. *)
  | Worker_fault of { at : float }
      (** Arm a one-shot {!Par.Pool} fault injector: the next task after
          [at] raises {!Fault}. *)

type plan = { seed : int64; events : event list }

val none : seed:int64 -> plan

val schedule :
  engine:Engine.t ->
  net:Topology.duplex ->
  ?kill_sender:(unit -> unit) ->
  ?pool:Bufkit.Pool.t ->
  ?par:Par.Pool.t ->
  plan ->
  unit
(** Install every event of the plan on the engine. Events whose target
    hook was not provided ([?kill_sender], [?pool], [?par]) are silently
    skipped, so one plan can drive worlds of different shapes. *)

val corrupting_dgram :
  rng:Rng.t -> rate:float -> Alf_core.Dgram.t -> Alf_core.Dgram.t
(** Above-substrate corruption: flip one byte of each inbound datagram
    with probability [rate], {e after} the substrate's own checksum has
    vouched for it (a checksum-recomputing middlebox, a DMA error). UDP
    and AAL5 filter in-flight corruption themselves, so this is the
    fault the ALF transport's per-fragment integrity trailer exists to
    catch — and what soak cases use to prove corrupted transmission
    units die at stage 1. [rate <= 0] returns the substrate unchanged. *)

val auth_corrupting_dgram :
  rng:Netsim.Rng.t ->
  rate:float ->
  integrity:Checksum.Kind.t option ->
  Alf_core.Dgram.t ->
  Alf_core.Dgram.t
(** Above-{e every}-checksum corruption: with probability [rate], flip
    one bit of the Poly1305 tag in an inbound single-fragment sealed
    data unit and {e recompute} the ADU CRC and integrity trailer over
    the damage, so stage 1 vouches for it and only the AEAD record open
    ({!Alf_core.Secure.Record}) can reject it — the fault the record
    layer exists to catch. *)

val lossy_dgram :
  rng:Rng.t -> rate:float -> Alf_core.Dgram.t -> Alf_core.Dgram.t
(** Wire loss at the datagram seam, for substrates with no in-flight
    drop hook (real loopback UDP): each send vanishes with probability
    [rate] but still reports success, exactly as a packet lost beyond
    the first hop would. Deterministic from [rng]. [rate <= 0] returns
    the substrate unchanged. *)

val pp_event : Format.formatter -> event -> unit
val pp_plan : Format.formatter -> plan -> unit
