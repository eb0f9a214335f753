(** Out-of-band session establishment.

    The paper deliberately separates data transfer from "session
    initiation, service location, and so on" and wants transfer-rate
    negotiation "performed on an out-of-band basis" (§3). This module is
    that out-of-band channel: a SETUP/ACCEPT exchange, before any data
    flows, that agrees on

    - the transfer syntax (by name, sender preference order — the
      presentation negotiation of §5),
    - the record cipher (same shape: preference order against the
      responder's supported set; ["chacha20"] is the default offer and
      the default supported list, so an AEAD record layer is what two
      unconfigured endpoints agree on — "rc4" survives only as the §5
      in-order chaining ablation and must be enabled explicitly,
      "none" means plaintext records),
    - the sending rate (responder may clamp the initiator's proposal),
    - the recovery policy the sender intends (advisory, so the receiver
      can size its expectations).

    The exchange is one datagram each way, retried by the initiator;
    the responder answers duplicates idempotently from its session table.
    What comes back is a {!granted} contract both sides then use to
    construct their {!Alf_transport} endpoints — no in-band control was
    added to the data-transfer path. *)

open Netsim

type offer = {
  stream : int;
  syntaxes : string list;  (** Preference order, e.g. ["lwts"; "ber"]. *)
  rate_bps : float;  (** Proposed sending rate; 0 = unpaced. *)
  policy : string;  (** "buffer" | "recompute" | "none" (advisory). *)
  ciphers : string list;  (** Record-cipher preference order; [[]] is
      shorthand for [["chacha20"]] — plaintext must be asked for by
      name ("none"), and "rc4" only exists as the §5 ablation. *)
}

type granted = {
  g_stream : int;
  g_syntax : string;  (** The agreed transfer syntax name. *)
  g_rate_bps : float;  (** The agreed (possibly clamped) rate; 0 = unpaced. *)
  g_policy : string;
  g_cipher : string;  (** The agreed record cipher ("chacha20" | "rc4" |
      "none") — both sides derive their {!Secure.Record} keys under it. *)
}

type responder

val listen :
  io:Dgram.t ->
  port:int ->
  supported:string list ->
  ?ciphers:string list ->
  ?max_rate_bps:float ->
  on_session:(peer:Packet.addr -> granted -> unit) ->
  unit ->
  responder
(** Accept sessions whose syntax list intersects [supported] {e and}
    whose cipher list intersects [ciphers] (first match in the
    {e initiator's} order wins on both; [ciphers] defaults to
    [["chacha20"; "none"]] — accepting the RC4 ablation takes an
    explicit opt-in); clamp rates above [max_rate_bps]
    (default: unlimited). [on_session] fires once per new session — the
    place to create the receiving endpoint. *)

val sessions_accepted : responder -> int
val sessions_rejected : responder -> int

val initiate :
  sched:Rt.Sched.t ->
  io:Dgram.t ->
  port:int ->
  peer:Packet.addr ->
  peer_port:int ->
  offer:offer ->
  ?retry_interval:float ->
  ?max_retries:int ->
  on_result:(granted option -> unit) ->
  unit ->
  unit
(** Send SETUP and await ACCEPT/REJECT, resending every [retry_interval]
    seconds on [sched]; [on_result None] after a rejection or exhausted
    retries. *)
