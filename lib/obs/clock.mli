(** Wall-clock time in nanoseconds, for instrumenting real (not
    simulated) execution — the per-run cost of a manipulation loop. *)

val now_ns : unit -> float
(** Nanoseconds since the epoch (microsecond resolution underneath). *)
