(** Store-and-forward packet switches.

    A switch terminates nothing above the network layer — the paper's
    argument for layered isolation at relay nodes. It looks up the
    destination, charges a per-packet forwarding latency, and queues the
    packet on the output link; congestion loss emerges from the output
    links' finite queues. *)

type t

val create : engine:Engine.t -> unit -> t
(** Every forwarded packet waits 10 µs, which models table lookup and
    switching fabric transit. *)

val add_port : t -> dst:Packet.addr -> Link.t -> unit
(** Route packets for [dst] out of [link]. A destination may be re-homed;
    the last registration wins. *)

val add_port_range : t -> dsts:Packet.addr list -> Link.t -> unit

val recv : t -> Packet.t -> unit
(** Intended as the [Link.set_receiver] target for inbound links. *)

val forwarded : t -> int
val no_route : t -> int
