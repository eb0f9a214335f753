(** Session-to-shard routing: one pure function, used by the {!Server}
    ingest path and by the test oracle, so the property "every datagram
    of a session lands on the same shard" is true by construction and
    checkable from outside. The stream id is the one stage 0's reader
    leaves in its view: bytes 1–2, read before unsealing. *)

val hash : peer:int -> peer_port:int -> stream:int -> int
(** Full-avalanche 64-bit hash of the session key, kept to its low 63
    bits: an immediate [int], no boxed result. *)

val slot : int -> n:int -> int
(** [slot h ~n] is [h]'s 63 bits read as an unsigned number, modulo
    [n > 0]: where {!shard_of} and the {!Police} tables put a hash. *)

val shard_of : shards:int -> peer:int -> peer_port:int -> stream:int -> int
(** The owning shard in [0, shards): [slot (hash ...) ~n:shards].
    Deterministic; raises [Invalid_argument] when [shards <= 0]. *)
