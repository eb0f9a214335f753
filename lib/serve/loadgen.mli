(** A deterministic many-session traffic source for the {!Server} engine.

    Drives any {!Dgram.t} with [sessions] independent single-fragment ADU
    streams, fanned out over enough source ports that every stream id
    stays 16-bit. Emission is round-robin across sessions — every
    session's ADU 0 precedes any session's ADU 1 — so all sessions are
    concurrently live at the server from the first round until their
    CLOSEs resolve: peak server concurrency equals [sessions] by
    construction. Datagrams are built in one reusable scratch buffer
    (the substrates transmit or copy synchronously) by the shared
    datagram writer ({!Framing.seal_single}), so the generator creates
    no buffer per datagram; it does allocate a few small records (the
    ADU name, digests, views): about 26 GC words per datagram, sockets
    included, in the serve-small benchmark's traced run.

    Recovery mirrors a real sender: the bound handlers parse server
    control traffic — a NACK queues deterministic regeneration of exactly
    the missing ADUs (payloads are a pure function of session and index),
    a DONE marks the session finished — and {!nudge} re-CLOSEs unfinished
    sessions when the driver suspects a lost CLOSE or DONE. *)

open Alf_core

type config = {
  sessions : int;
  adus_per_session : int;
  payload_len : int;
  base_port : int;  (** First source port; one port per
      [streams_per_port] sessions. *)
  streams_per_port : int;
  server : int;  (** Server address on the substrate. *)
  server_port : int;
  integrity : Checksum.Kind.t option;  (** Must match the server's. *)
  secure : Secure.Record.t option;  (** Seal every ADU payload as
      [ct ‖ epoch ‖ tag] under the AEAD record layer (a private
      {!Secure.Record.clone} is taken at {!create}); must share a base
      key with the server's. NACK regeneration re-seals at the current
      epoch — the receiver window accepts it. Default [None]. *)
}

val default_config : config
val ports_used : config -> int

type stats = {
  mutable sent_datagrams : int;
  mutable sent_bytes : int;
  mutable send_failed : int;  (** Substrate refusals (wire loss). *)
  mutable dones_rx : int;
  mutable nacks_rx : int;
  mutable regens : int;  (** ADUs re-emitted in answer to NACKs. *)
  mutable recloses : int;
}

type t

val create : io:Dgram.t -> config -> t
(** Binds every source port on the substrate. *)

val step : t -> budget:int -> int
(** Emit up to [budget] datagrams — queued repairs and re-CLOSEs first,
    then fresh round-robin emission — returning the number sent. [0]
    means there is nothing left to transmit right now. *)

val nudge : t -> unit
(** Queue a re-CLOSE for every unfinished session (recovers lost
    CLOSE/DONE datagrams on a lossy substrate). *)

val emitted_all : t -> bool
(** The initial emission schedule (all ADUs + one CLOSE per session) has
    gone out. *)

val done_count : t -> int

val finished : t -> bool
(** Everything emitted and every session acknowledged by a server DONE. *)

val stats : t -> stats
val session_port : t -> int -> int
val session_stream : t -> int -> int
