(** Session-to-shard routing: one pure function, used by the {!Server}
    ingest path and by the test oracle, so the property "every datagram
    of a session lands on the same shard" is true by construction and
    checkable from outside. *)

open Bufkit

val hash : peer:int -> peer_port:int -> stream:int -> int64
(** Full-avalanche 64-bit hash of the session key. *)

val shard_of : shards:int -> peer:int -> peer_port:int -> stream:int -> int
(** The owning shard in [0, shards). Deterministic; raises
    [Invalid_argument] when [shards <= 0]. *)

val stream_of_datagram : Bytebuf.t -> int option
(** The stream id at bytes 1–2 — valid for {e sealed} fragments and
    control messages (both keep it at a fixed offset; the integrity
    trailer sits at the end), so routing happens before unsealing. An
    FEC block carries its group number there instead, which is why
    stage 0 rejects FEC. [None] when the datagram is too short. *)
