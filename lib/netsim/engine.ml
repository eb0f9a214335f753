module Timers = Rt.Timers

type t = Timers.t
type timer = Timers.cell

let create = Timers.create
let now = Timers.now
let schedule_at t when_ f = Timers.schedule t ~at:when_ f
let schedule_after t delay f = schedule_at t (now t +. delay) f
let cancel = Timers.cancel

let sched t =
  {
    Rt.Sched.now = (fun () -> now t);
    schedule =
      (fun delay f ->
        let ev = schedule_after t delay f in
        Rt.Sched.make_timer (fun () -> cancel ev));
  }

let pending = Timers.pending
let step = Timers.step

let run ?until ?max_events t =
  let horizon = match until with Some h -> h | None -> infinity in
  let budget = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 in
  while !fired < budget && Timers.next_deadline t <= horizon && step t do
    incr fired
  done;
  (* Nothing left within the horizon: the clock ends on it. *)
  if Timers.next_deadline t > horizon then
    ignore (Timers.advance t ~now:horizon)

let run_until_idle t = run t
