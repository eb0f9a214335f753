(** The receiving application as a pipeline stage.

    §5's mechanical point: when a presentation conversion is involved, the
    application process is the bottleneck of the whole path — "if the
    application cannot run whenever data arrives from the network, it will
    fall behind, and since it is the bottleneck, it will never catch up".

    This module models that bottleneck inside the discrete-event world: an
    application that converts at a fixed rate (bytes per virtual second),
    fed work as data becomes {e processable} — in-order bytes from a
    TCP-like stream, or whole ADUs from an ALF transport. It records when
    work arrived, how long the converter sat idle for lack of processable
    data, and when everything finished: the numbers behind experiments E5
    and E6. *)

open Netsim

type t

val create : engine:Engine.t -> rate_bps:float -> ?per_unit_cost:float -> unit -> t
(** A converter consuming [rate_bps] bits of input per second of virtual
    time, plus [per_unit_cost] seconds of fixed overhead per fed unit
    (default 0; models per-ADU dispatch). *)

val feed : t -> bytes:int -> unit
(** A unit of processable data reached the application at the current
    virtual instant. *)

val processed_bytes : t -> int
(** Bytes whose conversion has finished by now. *)

val backlog_bytes : t -> int
(** Fed but not yet converted. *)

val idle_time : t -> float
(** Total virtual time since creation during which the converter had
    nothing to do. Includes time before the first byte arrived. *)

val finish_time : t -> float
(** When the converter last ran dry (the completion time once feeding has
    ended and the engine has drained). *)

val progress : t -> Stats.series
(** (virtual time, cumulative converted bytes), one point per completed
    unit of work. *)
