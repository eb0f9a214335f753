(** An ATM bearer service: frames over cells over the simulator.

    Each endpoint attaches to a {!Netsim.Node} and exchanges 53-byte cells
    (riding the simulator's links as minimal packets, so cell loss,
    corruption and queueing all apply per cell). Frames are segmented with
    {!Aal5}; the VCI is the demultiplexing key, with one reassembler per
    (source, VCI) so interleaved senders do not corrupt each other.

    {!dgram} wraps the bearer in a port-addressed datagram service: ports
    map onto VCIs (one circuit per destination port) and a 2-byte header
    carries the source port — which is what lets the ALF transport run
    unchanged over ATM, the paper's portability claim made executable. *)

open Bufkit
open Netsim

type t

val create : engine:Engine.t -> node:Node.t -> ?proto:int -> unit -> t
(** Attach to [node] ([proto] defaults to 42). One bearer per node. *)

val send_frame : t -> dst:Packet.addr -> vci:int -> Bytebuf.t -> bool
(** Segment and transmit; [false] if any cell was refused by the first
    hop (remaining cells are still sent — loss detection is the
    receiver's CRC's job, as in real ATM). *)

val on_frame : t -> (src:Packet.addr -> vci:int -> Bytebuf.t -> unit) -> unit
(** Complete, CRC-verified frames, in per-circuit arrival order. *)

type stats = {
  mutable cells_sent : int;
  mutable cells_received : int;
  mutable cells_bad_header : int;
  mutable frames_sent : int;
  mutable frames_delivered : int;
}

val stats : t -> stats

val frame_payload_limit : int
(** Largest frame the AAL accepts. *)

val dgram : t -> Alf_core.Dgram.t
(** Datagrams over ATM: the destination port selects the virtual circuit
    (VCI), a 2-byte in-frame header carries the source port, and the AAL
    handles segmentation into cells. Claims the bearer's frame handler —
    create at most one datagram service per bearer. *)
