(** One timer heap for both clocks.

    A binary min-heap of cells ordered by (deadline, schedule order):
    the simulator's [Netsim.Engine] runs its whole event queue on it
    over virtual time, and {!Loop} keeps its timers on it over the wall
    clock. Insertion and removal of the earliest cell are O(log n), the
    earliest deadline is read in O(1) once any cancelled cells at the
    top are dropped, and a cell is its own cancel handle: {!cancel}
    marks it, and it leaves the heap when it reaches the top. The heap
    needs no compaction, because protocol timers are cancelled only at
    teardown (a sender's pace and close timers, a receiver's NACK
    timer, the serve engine's harvest timer), so a cancelled cell waits
    at most until its own deadline; every other cell leaves by firing.
    The clock is a boxed float field, so reading {!now} or
    {!next_deadline} allocates nothing.

    Ordering contract (the {!Sched} guarantee): cells fire in
    (deadline, schedule order) order, and a deadline before the clock
    is clamped to it, so a zero or negative delay never jumps ahead of
    cells already due. While a cell runs, the clock reads its deadline;
    a cell scheduled from a callback and due within the same {!advance}
    fires in it, after every cell already due. *)

type t

type cell
(** One scheduled callback, and its handle. *)

val create : unit -> t
(** An empty heap with its clock at 0. *)

val now : t -> float
(** The clock: the deadline of the last fired cell, or the [now] of the
    last {!advance}, whichever is later. *)

val schedule : t -> at:float -> (unit -> unit) -> cell
(** Run the callback at [at], clamped to {!now} if earlier. *)

val cancel : cell -> unit
(** The callback will not run. Idempotent; a no-op on a fired cell. *)

val next_deadline : t -> float
(** The earliest live deadline, [infinity] when nothing is pending. *)

val step : t -> bool
(** Fire the earliest live cell, moving the clock to its deadline.
    [false] if nothing was pending. *)

val advance : t -> now:float -> int
(** Fire every live cell with [deadline <= now], in order, each at its
    own deadline, then move the clock to [now]; returns how many fired.
    A [now] before the clock leaves the clock where it is. *)

val pending : t -> int
(** Live (uncancelled, unfired) cells; counted by one pass over the
    heap. *)
