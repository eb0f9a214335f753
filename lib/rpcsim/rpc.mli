(** Remote procedure call over the datagram substrate.

    The paper's "general paradigm of the Remote Procedure Call": each call
    is naturally one ADU in each direction — self-contained, independently
    decodable, meaningful to the application. Calls are at-least-once with
    client retransmission and a server-side reply cache keyed by
    transaction id, so duplicate requests are answered from the cache
    rather than re-executed.

    The transfer syntax is chosen per call ({!Wire.Syntax}); for
    schema-bearing syntaxes (XDR/LWTS) both sides derive the schema from
    the registered {!Stub.frame}, mirroring out-of-band presentation
    negotiation. *)

open Netsim

type transfer = T_ber | T_xdr | T_lwts

val transfer_name : transfer -> string

type server

val server : engine:Engine.t -> udp:Netsim.Udp.t -> port:int -> server

val server_io : engine:Engine.t -> io:Alf_core.Dgram.t -> port:int -> server
(** The same over any datagram substrate (e.g. [Atmsim.Bearer.dgram]):
    each call and each reply is one self-contained frame. *)

val register :
  server ->
  proc:int ->
  args:Stub.frame ->
  (Wire.Value.t -> Wire.Value.t) ->
  unit
(** Install a procedure: arriving arguments are scattered into [args]'s
    slots (the presentation step) before the body runs on the gathered
    value; the body's result is marshalled back in the caller's syntax. *)

type server_stats = {
  mutable calls_executed : int;
  mutable duplicate_calls : int;  (** Answered from the reply cache. *)
  mutable decode_failures : int;
  mutable unknown_procs : int;
}

val server_stats : server -> server_stats

type client

val client :
  engine:Engine.t ->
  udp:Netsim.Udp.t ->
  port:int ->
  server_addr:Packet.addr ->
  server_port:int ->
  ?retry_interval:float ->
  ?max_retries:int ->
  unit ->
  client

val client_io :
  engine:Engine.t ->
  io:Alf_core.Dgram.t ->
  port:int ->
  server_addr:Packet.addr ->
  server_port:int ->
  ?retry_interval:float ->
  ?max_retries:int ->
  unit ->
  client

val call :
  client ->
  proc:int ->
  ?transfer:transfer ->
  args:Stub.frame ->
  Wire.Value.t ->
  reply:(Wire.Value.t option -> unit) ->
  unit
(** Asynchronous call ([transfer] defaults to [T_ber]); [reply None] after
    retries are exhausted. [args] supplies the schema for schema-bearing
    syntaxes and must match the server's registration. *)

type client_stats = {
  mutable calls_sent : int;
  mutable retries : int;
  mutable replies : int;
  mutable timeouts : int;
}

val client_stats : client -> client_stats
