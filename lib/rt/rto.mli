(** Round-trip estimation and retransmission timeout (Jacobson/Karels).

    srtt/rttvar smoothing with the standard gains (1/8, 1/4), Karn's rule
    (samples from retransmitted segments are never fed back), exponential
    backoff on timeout, and clamping to configurable floor/ceiling. *)

type t

val create : ?initial_rto:float -> ?min_rto:float -> ?max_rto:float -> unit -> t
(** Defaults: initial 1 s, floor 10 ms, ceiling 60 s. *)

val sample : ?retransmitted:bool -> t -> float -> unit
(** Feed a round-trip measurement. A sample taken on a segment that was
    retransmitted is ambiguous — the ACK may answer either copy — so with
    [~retransmitted:true] (Karn's algorithm) the sample is discarded
    entirely: it neither updates srtt/rttvar nor resets the backoff.
    A clean sample ([retransmitted] false, the default) resets any
    backoff. *)

val rto : t -> float
(** Current timeout: (srtt + 4·rttvar) · 2^backoff, clamped. *)

val backoff : t -> unit
(** Double the timeout (cap 2⁶) after a retransmission. *)

val srtt : t -> float option
(** None until the first sample. *)
