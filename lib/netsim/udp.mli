(** A UDP-like datagram service.

    Checksummed, unordered, unreliable delivery of self-contained
    datagrams — the thin substrate an ALF transport builds on when it
    takes ordering and recovery decisions for itself. The 8-byte header
    carries source and destination ports and the payload length; corrupted
    datagrams are discarded and counted. *)

open Bufkit

val header_size : int
(** 8 bytes. *)

type t

val create :
  engine:Engine.t -> node:Node.t -> ?proto:int -> unit -> t
(** One datagram endpoint per node ([proto] defaults to 17). *)

val bind : t -> port:int -> (src:Packet.addr -> src_port:int -> Bytebuf.t -> unit) -> unit
(** Register the handler for a local port (replacing any previous). The
    payload aliases the receive buffer; copy to retain. *)

val send :
  t -> dst:Packet.addr -> dst_port:int -> src_port:int -> Bytebuf.t -> bool
(** Fire and forget; [false] if the first-hop queue refused it. *)

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable discarded_checksum : int;
  mutable discarded_no_port : int;
}

val stats : t -> stats
