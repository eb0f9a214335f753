(** The discrete-event core: a virtual clock and an event queue.

    Everything in the simulator — link serialisation, propagation,
    retransmission timers, application service times — is a closure
    scheduled at a virtual instant. Events at equal times fire in
    scheduling order (a strict FIFO tie-break), which keeps runs
    deterministic. The queue is [Rt.Timers], the heap the real event
    loop ([Rt.Loop]) keeps its timers on: an event is a heap cell and
    its own cancel handle, and the clock is the heap's, so scheduling
    an event allocates only its cell and reading {!now} nothing. *)

type t

type timer
(** Handle to a scheduled event; allows cancellation (e.g. an ACK
    arriving before the retransmission timer fires). *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val schedule_at : t -> float -> (unit -> unit) -> timer
(** [schedule_at t when_ f] runs [f] at virtual time [when_]. Times in the
    past (including before [now]) are clamped to [now]: the event fires on
    the next step. *)

val schedule_after : t -> float -> (unit -> unit) -> timer
(** [schedule_after t delay f] = [schedule_at t (now t +. delay)]. *)

val cancel : timer -> unit
(** Idempotent; cancelling a fired timer is a no-op. *)

val sched : t -> Rt.Sched.t
(** The engine as a scheduler backend: the same closures a real event
    loop ([Rt.Loop.sched]) provides, but over virtual time. Code written
    against [Rt.Sched.t] runs unchanged over the simulator or the
    kernel. *)

val pending : t -> int
(** Number of live (uncancelled, unfired) events. *)

val step : t -> bool
(** Fire the earliest event. [false] if the queue was empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Fire events in order until the queue empties, the next event lies
    beyond [until], or [max_events] have fired. The clock never runs
    backwards and finishes at the last fired event's time (or [until] if
    given and reached). *)

val run_until_idle : t -> unit
(** [run] with no bounds. *)
