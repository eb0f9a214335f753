open Netsim

type t = {
  engine : Engine.t;
  rate_bps : float;
  per_unit_cost : float;
  created_at : float;
  mutable busy_until : float;
  mutable processed : int;
  mutable backlog : int;
  mutable idle_accum : float;
  mutable last_drain : float;
  series : Stats.series;
}

let create ~engine ~rate_bps ?(per_unit_cost = 0.0) () =
  if rate_bps <= 0.0 then invalid_arg "Pipeline.create: rate must be positive";
  let now = Engine.now engine in
  {
    engine;
    rate_bps;
    per_unit_cost;
    created_at = now;
    busy_until = now;
    processed = 0;
    backlog = 0;
    idle_accum = 0.0;
    last_drain = now;
    series = Stats.series ();
  }

let feed t ~bytes =
  if bytes > 0 then begin
    let now = Engine.now t.engine in
    (* Idle gap: converter was free and starved until this arrival. *)
    if now > t.busy_until then begin
      t.idle_accum <- t.idle_accum +. (now -. t.busy_until);
      t.busy_until <- now
    end;
    let service = (8.0 *. float_of_int bytes /. t.rate_bps) +. t.per_unit_cost in
    t.busy_until <- t.busy_until +. service;
    t.backlog <- t.backlog + bytes;
    Obs.Counter.add (Obs.Registry.counter "pipeline.fed_bytes") bytes;
    Obs.Gauge.observe_max
      (Obs.Registry.gauge "pipeline.backlog_peak_bytes")
      (float_of_int t.backlog);
    let finish = t.busy_until in
    ignore
      (Engine.schedule_at t.engine finish (fun () ->
           t.processed <- t.processed + bytes;
           t.backlog <- t.backlog - bytes;
           t.last_drain <- finish;
           Obs.Counter.add (Obs.Registry.counter "pipeline.drained_bytes") bytes;
           Stats.record t.series ~t:finish (float_of_int t.processed)))
  end

let processed_bytes t = t.processed
let backlog_bytes t = t.backlog

let idle_time t =
  let now = Engine.now t.engine in
  if now > t.busy_until then t.idle_accum +. (now -. t.busy_until)
  else t.idle_accum

let finish_time t = t.last_drain
let progress t = t.series
