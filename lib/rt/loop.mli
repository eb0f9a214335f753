(** A poll-based event loop over real file descriptors and a timer
    heap: the real-I/O counterpart of [Netsim.Engine], on the same
    {!Timers}.

    One loop owns a wall clock (seconds since the loop's creation, so
    timestamps look like the simulator's small floats), a {!Timers}
    heap, and a set of descriptors with read-ready callbacks. Each
    wakeup fires the due timers, then blocks in [select] until the next
    deadline or a descriptor turns readable — no busy wait, no external
    deps. The [select] list is built when a descriptor is registered or
    cleared, and ready descriptors are dispatched by a walk of the
    registrations, so a wakeup allocates only what [Unix.select]
    returns and its clock reads (test_rt's [loop] group holds the
    words).

    Single-threaded by design, like the simulator: callbacks run on the
    caller's thread inside {!run_until}/{!run_for}. *)

type t

val create : unit -> t

val now : t -> float
(** Wall-clock seconds since [create]. *)

val sched : t -> Sched.t
(** The loop as a backend: {!Sched.t} closures over this loop's clock and
    heap. Timers become live on the next wakeup. *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register (or replace) the read-ready callback for a descriptor. The
    callback must drain the descriptor to quiescence — level-triggered
    [select] will re-report it otherwise. *)

val clear_readable : t -> Unix.file_descr -> unit

val pending_timers : t -> int

val run_until : t -> timeout:float -> (unit -> bool) -> bool
(** Drive the loop until the predicate turns true ([true]) or [timeout]
    wall seconds elapse ([false]). The predicate is re-checked after
    every round of due timers, and no single wait in [select] exceeds
    50 ms, so an idle loop still polls it. *)

val run_for : t -> float -> unit
(** Drive the loop for a fixed wall-clock duration. *)
