(** Stream multiplexing for the ALF transport.

    Every ALF message — data fragment or control — carries its stream id
    in the same syntactic position (bytes 1–2), the §8 idea of "a single
    syntactical field … interpreted by a number of modules". The mux
    exploits that: one demultiplexing step at one layer routes a datagram
    to its stream's handler, instead of a port per stream (layered
    multiplexing, which [18] considers harmful). Several senders and
    receivers can then share one datagram endpoint.

    FEC-wrapped fragments are not mux-compatible: an FEC block carries
    its group number where the stream id would be. *)

type t

val create : io:Dgram.t -> port:int -> t
(** Binds [port] on [io]; datagrams whose stream has no handler are
    counted and dropped. *)

val port : t -> int

val stream_io : t -> stream:int -> Dgram.t
(** The endpoint one stream sees: sends go out through the mux's
    substrate, and [bind ~port handler] attaches [handler] for [stream]
    (replacing any previous one), so [Alf_transport.receiver_io] and
    [sender_io] run on it unchanged. [port] must be {!port}; any other
    raises [Invalid_argument]. On one node a stream id can be attached
    once — a sender and a receiver for the {e same} stream belong on
    different nodes anyway. *)

val unrouted : t -> int
(** Datagrams dropped for lack of a stream handler. *)
