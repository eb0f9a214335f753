(** The datagram service the ALF transport runs over.

    The paper insists the architecture outlive "the network technology of
    the day": ADUs must move equally well over classic packet switching
    or over ATM cells. This record is that seam — an unreliable,
    unordered, message-boundary-preserving service with ports — with
    constructors for each substrate ({!of_udp} and {!of_rt} here; the ATM
    bearer provides its own, [Atmsim.Bearer.dgram]). *)

open Bufkit
open Netsim

type handler = src:Packet.addr -> src_port:int -> Bytebuf.t -> unit

type t = {
  send : dst:Packet.addr -> dst_port:int -> src_port:int -> Bytebuf.t -> bool;
      (** Fire and forget; [false] when the first hop refused it. The
          payload is borrowed only for the duration of the call: the
          substrate copies or transmits it before returning, so the
          caller may reuse or recycle the buffer at once (every sender's
          pooled and scratch datagrams rely on this). *)
  bind : port:int -> handler -> unit;
      (** Register the handler for a local port (replacing any previous). *)
  max_payload : int;
      (** Largest datagram the substrate will carry. *)
}

val of_udp : Netsim.Udp.t -> t
(** UDP-like datagrams over the packet-switched simulator. *)

val of_rt : Rt.Udp_link.t -> t
(** Real UDP datagrams over kernel sockets ({!Rt.Udp_link}): the link's
    integer peer addresses are {!Netsim.Packet.addr}-compatible, so the
    transport built on this record is byte-for-byte the one that runs
    over the simulator. Delivered payloads are borrowed (stage-1
    contract); pair with [Rt.Loop.sched] as the transport scheduler. *)

val striped : t list -> t
(** §7's parallel-network dispersal: one logical channel over several
    physical ones. Sends go round-robin across the stripes; a [bind]
    registers the handler on every stripe. The stripes will reorder
    traffic against each other freely (they may have different delays) —
    which is exactly the situation self-describing ADUs were designed
    for, and which a sequence-numbered byte stream cannot tolerate.
    [max_payload] is the minimum across stripes. Raises
    [Invalid_argument] on an empty list. *)
