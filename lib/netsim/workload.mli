(** Traffic generators.

    Deterministic (per RNG seed) sources that drive a sink callback
    through the event engine: constant bit rate for continuous media,
    Poisson arrivals for datagram background traffic, and a two-state
    on/off source for burstiness. Benchmarks and examples use these as
    the workload side of an experiment. *)

type t
(** A running source: it emits its first payload at once (on the engine's
    next step) and stops at [until] or when {!stop}ped. *)

val cbr :
  engine:Engine.t ->
  rate_bps:float ->
  payload_bytes:int ->
  ?until:float ->
  emit:(Bufkit.Bytebuf.t -> unit) ->
  unit ->
  t
(** Constant bit rate: a [payload_bytes] buffer every
    [8·payload_bytes / rate_bps] seconds. *)

val poisson :
  engine:Engine.t ->
  rng:Rng.t ->
  mean_rate_pps:float ->
  payload_bytes:int ->
  ?until:float ->
  emit:(Bufkit.Bytebuf.t -> unit) ->
  unit ->
  t
(** Exponential inter-arrival times with the given mean rate. *)

val on_off :
  engine:Engine.t ->
  rng:Rng.t ->
  rate_bps:float ->
  payload_bytes:int ->
  mean_on:float ->
  mean_off:float ->
  ?until:float ->
  emit:(Bufkit.Bytebuf.t -> unit) ->
  unit ->
  t
(** CBR during exponentially-distributed ON periods, silent during OFF
    periods. *)

val stop : t -> unit
val emitted : t -> int
(** Payloads emitted so far. *)

val emitted_bytes : t -> int
