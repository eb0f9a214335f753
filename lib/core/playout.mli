(** Playout buffering for continuous media.

    The paper lists timestamping among the transfer-control functions:
    "some real-time protocols rely on packet timestamps to support the
    regeneration of inter-packet timing". A playout buffer is that
    regenerator: ADUs named in time ([Adu.timestamp_us]) are held until
    their presentation instant (capture time plus a fixed playout delay),
    then released in timestamp order; whatever has not arrived by its
    deadline is skipped and counted, never waited for — the
    no-retransmission discipline continuous media needs.

    Out-of-order arrival is the normal case here: ADUs are inserted in
    any order and the deadline schedule alone decides emission. *)

open Netsim

type t

type stats = {
  mutable played : int;  (** Released at their deadline. *)
  mutable early_margin : Stats.summary;  (** Arrival lead time (s) of played ADUs. *)
  mutable late : int;  (** Arrived after their deadline (dropped). *)
  mutable missing : int;  (** Deadline passed with no arrival at all. *)
}

val create :
  sched:Rt.Sched.t ->
  playout_delay:float ->
  play:(Adu.t -> unit) ->
  unit ->
  t
(** [play] fires at [timestamp + playout_delay] on [sched]'s clock for
    every ADU that made it in time. *)

val expect : t -> timestamp_us:int64 -> unit
(** Announce a presentation instant (e.g. from the media schedule), so a
    never-arriving ADU can be counted as [missing] when its deadline
    passes. Idempotent per timestamp. *)

val insert : t -> Adu.t -> unit
(** Hand over an arrived ADU (any order). ADUs past their deadline count
    as [late] and are dropped. *)

val stats : t -> stats
val buffered : t -> int
(** ADUs waiting for their instant. *)
