open Netsim

type slot = {
  deadline : float;
  mutable expected : int;
  mutable arrived_rev : (Adu.t * float) list;  (* with arrival times *)
  mutable fired : bool;
}

type stats = {
  mutable played : int;
  mutable early_margin : Stats.summary;
  mutable late : int;
  mutable missing : int;
}

type t = {
  sched : Rt.Sched.t;
  playout_delay : float;
  play : Adu.t -> unit;
  slots : (int64, slot) Hashtbl.t;
  stats : stats;
}

let create ~sched ~playout_delay ~play () =
  if playout_delay < 0.0 then invalid_arg "Playout.create: negative delay";
  {
    sched;
    playout_delay;
    play;
    slots = Hashtbl.create 64;
    stats = { played = 0; early_margin = Stats.summary (); late = 0; missing = 0 };
  }

let stats t = t.stats

let buffered t =
  Hashtbl.fold
    (fun _ slot acc -> if slot.fired then acc else acc + List.length slot.arrived_rev)
    t.slots 0

let fire t ts slot =
  slot.fired <- true;
  Hashtbl.remove t.slots ts;
  let arrived = List.rev slot.arrived_rev in
  List.iter
    (fun (adu, arrived_at) ->
      t.stats.played <- t.stats.played + 1;
      Stats.observe t.stats.early_margin (slot.deadline -. arrived_at);
      t.play adu)
    arrived;
  let got = List.length arrived in
  if slot.expected > got then t.stats.missing <- t.stats.missing + (slot.expected - got)

let slot_for t ts =
  match Hashtbl.find_opt t.slots ts with
  | Some slot -> slot
  | None ->
      let deadline = (Int64.to_float ts /. 1e6) +. t.playout_delay in
      let slot = { deadline; expected = 0; arrived_rev = []; fired = false } in
      Hashtbl.replace t.slots ts slot;
      let delay = deadline -. Rt.Sched.now t.sched in
      ignore (Rt.Sched.schedule_after t.sched delay (fun () -> fire t ts slot));
      slot

let expect t ~timestamp_us =
  let deadline = (Int64.to_float timestamp_us /. 1e6) +. t.playout_delay in
  if Rt.Sched.now t.sched > deadline then t.stats.missing <- t.stats.missing + 1
  else begin
    let slot = slot_for t timestamp_us in
    slot.expected <- slot.expected + 1
  end

let insert t (adu : Adu.t) =
  let ts = adu.Adu.name.Adu.timestamp_us in
  let deadline = (Int64.to_float ts /. 1e6) +. t.playout_delay in
  let now = Rt.Sched.now t.sched in
  if now > deadline then t.stats.late <- t.stats.late + 1
  else begin
    let slot = slot_for t ts in
    if slot.fired then t.stats.late <- t.stats.late + 1
    else slot.arrived_rev <- (adu, now) :: slot.arrived_rev
  end
