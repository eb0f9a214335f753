(** Fixed-size buffer pools.

    End systems that run manipulation loops at line rate cannot afford an
    allocation per packet; a pool recycles same-sized buffers through a
    free list and keeps occupancy statistics so benchmarks can report
    allocation behaviour alongside throughput.

    Domain-safe: acquire/release/stats serialize on an internal mutex, so
    worker domains can share one pool without two of them being handed
    the same buffer. The buffers themselves are not synchronized — a
    buffer belongs to whichever domain acquired it until released. *)

type t

type stats = {
  buf_size : int;  (** Size of every buffer handed out. *)
  allocated : int;  (** Fresh buffers ever created. *)
  reused : int;  (** Acquisitions served from the free list. *)
  outstanding : int;  (** Currently acquired and not yet released. *)
  high_water : int;  (** Maximum simultaneous outstanding buffers. *)
  exhausted : int;  (** Acquisitions refused by the [max_outstanding] cap. *)
}

exception Exhausted
(** Raised by {!acquire} when the pool is capped and every buffer is out.
    Chaos soaks use a small cap to model memory pressure; well-behaved
    stages either handle this or use {!try_acquire}. *)

val create : ?capacity:int -> ?max_outstanding:int -> buf_size:int -> unit -> t
(** [create ~buf_size ()] is a pool of [buf_size]-byte buffers. At most
    [capacity] (default 64) released buffers are retained; beyond that,
    releases drop the buffer for the GC. [max_outstanding] (default
    unlimited) caps simultaneously-acquired buffers: at the cap,
    {!acquire} raises {!Exhausted} and {!try_acquire} returns [None].
    Raises [Invalid_argument] if [buf_size <= 0], [capacity < 0], or
    [max_outstanding <= 0]. *)

val acquire : t -> Bytebuf.t
(** A zeroed buffer of [buf_size] bytes, recycled when possible. Raises
    {!Exhausted} if a [max_outstanding] cap is set and reached. *)

val try_acquire : t -> Bytebuf.t option
(** Like {!acquire} but [None] instead of raising at the cap. *)

val release : t -> Bytebuf.t -> unit
(** Return a buffer to the pool. Raises [Invalid_argument] if the buffer
    is not [buf_size] bytes long (it cannot have come from this pool), if
    the buffer is already sitting in the free list (double release — the
    alias would corrupt data for two later acquirers), or if there are no
    outstanding buffers at all. [stats.outstanding] therefore never goes
    negative. The check is best-effort: a double release of a buffer the
    pool dropped at capacity, or a release of a foreign same-sized buffer
    while others are outstanding, cannot be told apart from legal use.

    A buffer the pool made marks itself while it is free, so releasing it
    is O(1) and allocates nothing, however many buffers are free; a
    foreign buffer is looked for in the free list. *)

val stats : t -> stats
