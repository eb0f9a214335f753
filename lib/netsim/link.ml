type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable impair : Impair.t;
  mutable up : bool;
  queue_limit : int;
  bandwidth_bps : float;
  delay : float;
  stats : Stats.link;
  mutable receiver : (Packet.t -> unit) option;
  mutable busy_until : float;
  mutable queued : int;
  mutable last_arrival : float;  (* detects overtaking for the reorder count *)
}

let create ~engine ~rng ?(impair = Impair.none) ?(queue_limit = 64) ?name
    ~bandwidth_bps ~delay () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  if delay < 0.0 then invalid_arg "Link.create: negative delay";
  let stats = Stats.link () in
  (match name with
  | Some name -> Stats.register_link ~name stats
  | None -> ());
  {
    engine;
    rng;
    impair;
    up = true;
    queue_limit;
    bandwidth_bps;
    delay;
    stats;
    receiver = None;
    busy_until = 0.0;
    queued = 0;
    last_arrival = neg_infinity;
  }

let set_receiver t f = t.receiver <- Some f
let set_impair t impair = t.impair <- impair
let impair t = t.impair
let set_down t = t.up <- false
let set_up t = t.up <- true
let is_up t = t.up
let stats t = t.stats
let busy_until t = t.busy_until
let queue_depth t = t.queued
let bandwidth_bps t = t.bandwidth_bps
let propagation_delay t = t.delay

let serialisation_time t pkt =
  8.0 *. float_of_int (Packet.wire_size pkt) /. t.bandwidth_bps

let deliver t (pkt : Packet.t) =
  t.stats.delivered_pkts <- t.stats.delivered_pkts + 1;
  t.stats.delivered_bytes <- t.stats.delivered_bytes + Packet.wire_size pkt;
  if Engine.now t.engine < t.last_arrival then
    t.stats.reordered <- t.stats.reordered + 1;
  t.last_arrival <- Engine.now t.engine;
  match t.receiver with None -> () | Some f -> f pkt

let transmit t pkt =
  t.queued <- t.queued - 1;
  match Impair.judge t.impair t.rng with
  | Impair.Drop -> t.stats.dropped_loss <- t.stats.dropped_loss + 1
  | Impair.Deliver { extra_delay; corrupted; copies } ->
      let pkt =
        if corrupted then begin
          t.stats.corrupted <- t.stats.corrupted + 1;
          { pkt with Packet.payload = Impair.corrupt_payload t.rng pkt.Packet.payload }
        end
        else pkt
      in
      if copies = 2 then t.stats.duplicated <- t.stats.duplicated + 1;
      for copy = 1 to copies do
        (* The duplicate trails its twin slightly, as a retransmitted or
           looped copy would, and carries its own bytes: no two arrivals
           on a real wire share storage, and receivers work in place. *)
        let dup_lag = if copy = 1 then 0.0 else 1e-6 in
        let pkt =
          if copy = 1 then pkt
          else
            { pkt with Packet.payload = Bufkit.Bytebuf.copy pkt.Packet.payload }
        in
        ignore
          (Engine.schedule_after t.engine (t.delay +. extra_delay +. dup_lag)
             (fun () -> deliver t pkt))
      done

let send t pkt =
  if not t.up then begin
    t.stats.dropped_down <- t.stats.dropped_down + 1;
    false
  end
  else if t.queued >= t.queue_limit then begin
    t.stats.dropped_queue <- t.stats.dropped_queue + 1;
    false
  end
  else begin
    t.stats.sent_pkts <- t.stats.sent_pkts + 1;
    t.stats.sent_bytes <- t.stats.sent_bytes + Packet.wire_size pkt;
    let now = Engine.now t.engine in
    let start = if t.busy_until > now then t.busy_until else now in
    let finish = start +. serialisation_time t pkt in
    t.busy_until <- finish;
    t.queued <- t.queued + 1;
    ignore (Engine.schedule_at t.engine finish (fun () -> transmit t pkt));
    true
  end
