open Bufkit
open Alf_core

type key = { peer : int; peer_port : int; stream : int }

type config = {
  port : int;
  shards : int;
  integrity : Checksum.Kind.t option;
  max_sessions_per_shard : int;
  rx_buf_size : int;
  rx_bufs_per_shard : int;
  ctl_bufs_per_shard : int;
  reasm_bufs_per_shard : int;
  max_adu : int;
  idle_timeout : float;
  done_linger : float;
  harvest_interval : float;
  nack_holdoff : float;
  nack_budget : int;
  stage2_plan : Ilp.plan;
  stage2_schema : Wire.Xdr.schema option;
  secure : Secure.Record.t option;
  admit_burst : float;
  ctl_burst : float;
  load_ticks : int;
}

(* Registry namespace: [serve.shard<N>.<counter>], [serve.load_state]
   and [serve.drop.<reason>]. *)
let obs_prefix = "serve"

(* Largest accepted distance of any index (fragment or GONE) above a
   session's frontier; beyond it the datagram is dropped ([drop.window]).
   Bounds the ahead table and the repair scan against forged indices and
   hostile CLOSE totals. *)
let max_ahead_window = 4096

(* Token buckets per shard per {!Police} table (fixed size,
   pre-allocated — never grows). *)
let police_buckets = 1024

(* Session-creation and control-datagram tokens/second per peer bucket.
   Rates are per (shard, peer-hash) bucket: honest load spreads one
   peer's streams across all shards, so a bucket sees 1/shards of a
   port's traffic — the burst covers honest startup several times over
   while a single-port flood exhausts it quickly. *)
let admit_rate = 200.
let ctl_rate = 400.

(* Occupancy fractions proposing Shedding, Brownout, and Normal again. *)
let shed_hi = 0.75
let brown_hi = 0.92
let load_lo = 0.35

let default_config =
  {
    port = 7000;
    shards = 4;
    integrity = Some Checksum.Kind.Crc32;
    max_sessions_per_shard = 1 lsl 17;
    rx_buf_size = 2048;
    rx_bufs_per_shard = 1024;
    ctl_bufs_per_shard = 256;
    reasm_bufs_per_shard = 64;
    max_adu = 1 lsl 14;
    idle_timeout = 5.0;
    done_linger = 0.5;
    harvest_interval = 0.05;
    nack_holdoff = 0.06;
    nack_budget = 8;
    stage2_plan = [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ];
    stage2_schema = None;
    secure = None;
    admit_burst = 512.;
    ctl_burst = 1024.;
    load_ticks = 2;
  }

type load_state = Normal | Shedding | Brownout

let load_state_index = function Normal -> 0 | Shedding -> 1 | Brownout -> 2

(* Stage-1 state is {!Rx}'s; the session adds only what the harvest
   sweep needs. [stamp] is the time of the last NACK (or of admission)
   while the session is live, and its completion time once complete —
   the sweep measures repair holdoff from the one and DONE linger from
   the other, never both. *)
type session = {
  rx : key Rx.t;
  mutable last_rx : float;
  mutable stamp : float;
  mutable nack_tries : int;
}

(* The inbox: a ring of staging slots, each an [rx_buf_size]-byte view
   of one per-shard block, with the datagram's source and length beside
   it in flat arrays. Its capacity is the staging budget; a full ring is
   backpressure. *)
type inbox = {
  bufs : Bytebuf.t array;
  src : int array;
  src_port : int array;
  len : int array;
  mutable head : int;
  mutable count : int;
}

(* The outbox: control replies as the fields their writers need,
   captured when queued and written at drain. A ring that doubles when
   full, so a repair burst queues without a fallback buffer. *)
type outbox = {
  mutable dst : int array;
  mutable dst_port : int array;
  mutable stream : int array;
  mutable below : int array;  (* a NACK's [have_below]; [-1] for a DONE *)
  mutable missing : int list array;  (* a NACK's indices *)
  mutable o_head : int;
  mutable o_count : int;
}

type counters = {
  c_arrivals : Obs.Counter.t;
  c_accepted : Obs.Counter.t;
  c_datagrams : Obs.Counter.t;
  c_delivered : Obs.Counter.t;
  c_bytes : Obs.Counter.t;
  c_gone : Obs.Counter.t;
  c_gone_local : Obs.Counter.t;
  c_dups : Obs.Counter.t;
  c_admitted : Obs.Counter.t;
  c_evicted : Obs.Counter.t;
  c_harvested : Obs.Counter.t;
  c_ctl_sent : Obs.Counter.t;
  c_nacks : Obs.Counter.t;
  c_dones : Obs.Counter.t;
  c_views : Obs.Counter.t;
  c_view_invalid : Obs.Counter.t;
  c_drops : Obs.Counter.t array;  (* indexed by Ingress.reason_index *)
}

type shard = {
  sid : int;
  lock : Mutex.t;
  sessions : (key, session) Hashtbl.t;
  inbox : inbox;
  outbox : outbox;
  reasm_pool : Pool.t;
  ctr : counters;
  env : key Rx.env;  (* window, reassembly pool, record layer, stage 2 *)
  view : Framing.view;  (* the reader's view of each staged datagram *)
  admit_police : Police.t;  (* session creation, under the shard lock *)
  ctl_police : Police.t;  (* control traffic, under the shard lock *)
  mutable peak_sessions : int;
  mutable inbox_peak : int;  (* high-water marks since the last harvest, *)
  mutable outbox_peak : int;  (* the overload-control occupancy signal *)
}

type t = {
  config : config;
  sched : Rt.Sched.t;
  io : Dgram.t option;
  pool : Par.Pool.t option;
  shards : shard array;
  tasks : (unit -> unit) array;  (* one [process_shard] per shard *)
  view : Framing.view;  (* stage 0's, on the ingest thread *)
  ctl : Bytebuf.t;  (* every control reply is written here at drain *)
  ctl_done : Bytebuf.t;  (* [ctl]'s prefix a sealed DONE fills *)
  on_complete : (key -> delivered:int -> gone:int -> unit) option;
  mutable load : load_state;
  mutable load_pending : load_state;  (* candidate next state... *)
  mutable load_streak : int;  (* ...and its consecutive confirmations *)
  mutable harvest_timer : Rt.Sched.timer option;
  mutable stopped : bool;
}

let load_state t = t.load

(* The memory budget is allocated up front: fill each pool's free list at
   create so steady state never sees a fresh buffer — the zero-allocation
   gate then measures the hot path, not warm-up timing. *)
let warm pool n =
  List.init n (fun _ -> Pool.try_acquire pool)
  |> List.iter (function Some b -> Pool.release pool b | None -> ())

(* Stage 2, the {!Rx} delivery callback: runs once per delivered ADU on
   the owning shard's task, after stage 1 has settled it. The shard's
   compiled plan transforms the borrowed payload into the shard scratch;
   with a schema, the compiled validator then checks the result there
   and hands [on_view] a lazy view that reads fields on demand.
   Byzantine payloads land in [view_invalid], never an exception. Every
   payload fits the [max_adu]-byte scratch: stage 0 and the shards read
   no longer ADU ({!view_of}). *)
let stage2 ~prog ~plan ~on_adu ~on_view scratch ctr key (adu : Adu.t) =
  let payload = adu.Adu.payload in
  let plen = Bytebuf.length payload in
  if plen > 0 then Ilp.exec plan ~dst:scratch payload;
  (match prog with
  | Some prog -> (
      match Wire.View.make prog (Bytebuf.take scratch plen) ~pos:0 with
      | Ok (view, _) -> (
          Obs.Counter.incr ctr.c_views;
          match on_view with Some f -> f key view | None -> ())
      | Error _ -> Obs.Counter.incr ctr.c_view_invalid)
  | None -> ());
  Obs.Counter.incr ctr.c_delivered;
  Obs.Counter.add ctr.c_bytes plen;
  match on_adu with Some f -> f key adu | None -> ()

(* Stage 0 and the shards read with the same bounds: no datagram longer
   than a staging buffer, no ADU larger than a reassembly buffer. *)
let view_of config =
  Framing.view ~max_len:config.rx_buf_size
    ~max_total_len:(config.max_adu + Adu.header_size)
    ()

let make_shard config registry ~prog ~on_adu ~on_view sid =
  let c name =
    Obs.Registry.counter ?registry
      (Printf.sprintf "%s.shard%d.%s" obs_prefix sid name)
  in
  let sessions = Hashtbl.create 256 in
  Obs.Registry.pull ?registry
    (Printf.sprintf "%s.shard%d.sessions" obs_prefix sid)
    (fun () -> float_of_int (Hashtbl.length sessions));
  let staging = config.rx_bufs_per_shard and size = config.rx_buf_size in
  (* Every slot views one block, left uninitialised: a slot is read only
     below the length a datagram wrote into it, and the slots a light
     load never reaches are never touched. *)
  let block = Bytebuf.of_bytes (Bytes.create (staging * size)) in
  let inbox =
    {
      bufs =
        Array.init staging (fun i -> Bytebuf.sub block ~pos:(i * size) ~len:size);
      src = Array.make staging 0;
      src_port = Array.make staging 0;
      len = Array.make staging 0;
      head = 0;
      count = 0;
    }
  in
  let replies = max 16 config.ctl_bufs_per_shard in
  let outbox =
    {
      dst = Array.make replies 0;
      dst_port = Array.make replies 0;
      stream = Array.make replies 0;
      below = Array.make replies 0;
      missing = Array.make replies [];
      o_head = 0;
      o_count = 0;
    }
  in
  let reasm_pool =
    Pool.create ~capacity:config.reasm_bufs_per_shard
      ~buf_size:(config.max_adu + Adu.header_size) ()
  in
  warm reasm_pool config.reasm_bufs_per_shard;
  let ctr =
    {
      c_arrivals = c "arrivals";
      c_accepted = c "accepted";
      c_datagrams = c "datagrams";
      c_delivered = c "delivered";
      c_bytes = c "delivered_bytes";
      c_gone = c "gone";
      c_gone_local = c "gone_local";
      c_dups = c "dups";
      c_admitted = c "admitted";
      c_evicted = c "evicted";
      c_harvested = c "harvested";
      c_ctl_sent = c "ctl_sent";
      c_nacks = c "nacks";
      c_dones = c "dones";
      c_views = c "views";
      c_view_invalid = c "view_invalid";
      c_drops =
        Array.map
          (fun r -> c ("drop." ^ Ingress.reason_name r))
          Ingress.all_reasons;
    }
  in
  (* One stage-2 destination and one compiled plan per shard domain. *)
  let scratch = Bytebuf.create config.max_adu in
  let plan = Ilp.compile config.stage2_plan in
  {
    sid;
    lock = Mutex.create ();
    sessions;
    inbox;
    outbox;
    reasm_pool;
    ctr;
    env =
      Rx.env ~window:max_ahead_window ~pool:reasm_pool
        ?secure:(Option.map Secure.Record.clone config.secure)
        ~deliver:(fun key adu ->
          stage2 ~prog ~plan ~on_adu ~on_view scratch ctr key adu)
        ();
    view = view_of config;
    admit_police =
      Police.create ~buckets:police_buckets ~rate:admit_rate
        ~burst:config.admit_burst ();
    ctl_police =
      Police.create ~buckets:police_buckets ~rate:ctl_rate
        ~burst:config.ctl_burst ();
    peak_sessions = 0;
    inbox_peak = 0;
    outbox_peak = 0;
  }

let count_drop sh reason =
  Obs.Counter.incr sh.ctr.c_drops.(Ingress.reason_index reason)

(* ---- session bookkeeping (all under the owning shard's lock) ---- *)

let key_of s = Rx.owner s.rx

let drop_session sh s =
  (* [Rx.clear], not a frontier sweep: a hostile sender can hold a partial
     at an index the frontier never reaches (or the session can be
     evicted mid-reassembly), and a bound-based sweep would strand that
     partial's pooled buffer — a budget leak a churn flood turns into
     exhaustion. *)
  Rx.clear s.rx;
  Hashtbl.remove sh.sessions (key_of s)

(* Victim choice when a shard is at capacity: a completed session that is
   merely lingering for a late re-CLOSE beats any live one; among
   completed, the longest-done; among live, the longest-idle (LRU). *)
let evict_one sh =
  let victim =
    Hashtbl.fold
      (fun _ s best ->
        match best with
        | None -> Some s
        | Some b ->
            let sc = Rx.complete s.rx and bc = Rx.complete b.rx in
            let better =
              if sc <> bc then sc
              else if sc then s.stamp < b.stamp
              else s.last_rx < b.last_rx
            in
            if better then Some s else best)
      sh.sessions None
  in
  match victim with
  | Some s ->
      drop_session sh s;
      Obs.Counter.incr sh.ctr.c_evicted
  | None -> ()

let admit t sh k now =
  if Hashtbl.length sh.sessions >= t.config.max_sessions_per_shard then
    evict_one sh;
  let s = { rx = Rx.create k; last_rx = now; stamp = now; nack_tries = 0 } in
  Hashtbl.replace sh.sessions k s;
  Obs.Counter.incr sh.ctr.c_admitted;
  let live = Hashtbl.length sh.sessions in
  if live > sh.peak_sessions then sh.peak_sessions <- live;
  s

(* ---- control replies (queued; the main thread drains after pump) ---- *)

(* Twice the slots, the live replies moved to the front in queue order. *)
let grow_outbox o =
  let cap = Array.length o.dst in
  let move a fill =
    let b = Array.make (2 * cap) fill in
    for j = 0 to o.o_count - 1 do
      b.(j) <- a.((o.o_head + j) mod cap)
    done;
    b
  in
  o.dst <- move o.dst 0;
  o.dst_port <- move o.dst_port 0;
  o.stream <- move o.stream 0;
  o.below <- move o.below 0;
  o.missing <- move o.missing [];
  o.o_head <- 0

(* A reply's fields go in now; its bytes are written at drain. *)
let queue_ctl sh (k : key) ~below missing =
  let o = sh.outbox in
  if o.o_count = Array.length o.dst then grow_outbox o;
  let cap = Array.length o.dst in
  let j = (o.o_head + o.o_count) mod cap in
  o.dst.(j) <- k.peer;
  o.dst_port.(j) <- k.peer_port;
  o.stream.(j) <- k.stream;
  o.below.(j) <- below;
  o.missing.(j) <- missing;
  o.o_count <- o.o_count + 1;
  if o.o_count > sh.outbox_peak then sh.outbox_peak <- o.o_count;
  Obs.Counter.incr sh.ctr.c_ctl_sent

let send_done sh s =
  queue_ctl sh (key_of s) ~below:(-1) [];
  Obs.Counter.incr sh.ctr.c_dones

let completed t sh s =
  s.stamp <- Rt.Sched.now t.sched;
  send_done sh s;
  match t.on_complete with
  | Some f ->
      f (key_of s) ~delivered:(Rx.delivered s.rx) ~gone:(Rx.gone_count s.rx)
  | None -> ()

(* ---- per-datagram dispatch (inside a shard task) ----

   Every handler returns [Some reason] (the datagram was dropped, count
   it under that one reason) or [None] (accepted). Handlers are total:
   the [Dispatch_error] guard in {!process_pending} is a last resort,
   not a code path. *)

(* A data or CLOSE verdict decides the datagram's fate. Each completing
   or re-announcing CLOSE gets exactly one DONE. *)
let judge t sh s = function
  | Rx.Pending | Rx.Settled -> None
  | Rx.Completed ->
      completed t sh s;
      None
  | Rx.Already_complete ->
      (* A CLOSE landing after completion means our DONE was lost. *)
      send_done sh s;
      None
  | Rx.Duplicate ->
      Obs.Counter.incr sh.ctr.c_dups;
      None
  | Rx.Window -> Some Ingress.Window
  | Rx.Bad_adu -> Some Ingress.Bad_adu
  | Rx.Bad_frag -> Some Ingress.Frag_header
  | Rx.Auth -> Some Ingress.Auth

(* Sender GONEs and local give-ups settle indices one at a time; the one
   that completes the session sends its DONE. *)
let count_gone t sh s counter = function
  | Rx.Settled -> Obs.Counter.incr counter
  | Rx.Completed ->
      Obs.Counter.incr counter;
      completed t sh s
  | _ -> ()

(* A data fragment, CLOSE or GONE on its session. *)
let on_session t sh now (v : Framing.view) s =
  s.last_rx <- now;
  match v.Framing.kind with
  | Framing.Gone ->
      for i = 0 to v.Framing.count - 1 do
        count_gone t sh s sh.ctr.c_gone
          (Rx.gone sh.env s.rx (Framing.index_at v i))
      done;
      None
  | Framing.Close -> judge t sh s (Rx.close s.rx v.Framing.total)
  | _ -> judge t sh s (Rx.fragment sh.env s.rx v)

(* The staged copy is read again, now with its trailer: the digest is the
   shard's work, and layout verdicts repeat stage 0's. Control is policed
   per peer first; data, CLOSE and GONE then meet one admission, so
   forged GONE indices cannot grow the ahead table either. A datagram
   that would create a session is refused outright in brownout, then
   rate-limited per peer. *)
let dispatch t (sh : shard) now slot =
  let ib = sh.inbox and v = sh.view in
  let src = ib.src.(slot) and src_port = ib.src_port.(slot) in
  let verdict =
    Framing.read_prefix v t.config.integrity ib.bufs.(slot) ~len:ib.len.(slot)
  in
  let kind = v.Framing.kind in
  match Ingress.validate v verdict with
  | Some reason -> Some reason
  | None
    when kind <> Framing.Data
         && not
              (Police.allow sh.ctl_police
                 ~key:(Demux.hash ~peer:src ~peer_port:src_port ~stream:0)
                 ~now) ->
      Some Ingress.Policed_ctl
  | None when kind = Framing.Nack || kind = Framing.Done -> None
  | None -> (
      let k = { peer = src; peer_port = src_port; stream = v.Framing.stream } in
      match Hashtbl.find sh.sessions k with
      | s -> on_session t sh now v s
      | exception Not_found ->
          if t.load = Brownout then Some Ingress.Shed
          else if
            not
              (Police.allow sh.admit_police
                 ~key:(Demux.hash ~peer:src ~peer_port:src_port ~stream:0)
                 ~now)
          then Some Ingress.Policed_new
          else on_session t sh now v (admit t sh k now))

let process_slot t sh now slot =
  Obs.Counter.incr sh.ctr.c_datagrams;
  match dispatch t sh now slot with
  | None -> Obs.Counter.incr sh.ctr.c_accepted
  | Some reason -> count_drop sh reason
  | exception _ ->
      (* The last-resort guard the satellite audit demands: a dispatch
         bug costs one counted datagram, never the server. *)
      count_drop sh Ingress.Dispatch_error

(* Every staged datagram in arrival order; a slot is reused only after
   its datagram was dispatched. The emptied ring starts again at slot 0,
   so a steady load keeps reusing the same few cache-warm buffers. *)
let process_inbox t sh =
  let ib = sh.inbox in
  let now = Rt.Sched.now t.sched in
  while ib.count > 0 do
    let slot = ib.head in
    process_slot t sh now slot;
    ib.head <- (if slot + 1 = Array.length ib.bufs then 0 else slot + 1);
    ib.count <- ib.count - 1
  done;
  ib.head <- 0

let process_shard t sh =
  Mutex.lock sh.lock;
  match process_inbox t sh with
  | () -> Mutex.unlock sh.lock
  | exception e ->
      Mutex.unlock sh.lock;
      raise e

(* ---- ingest (main thread: the bound handler or a test driver) ---- *)

let ingest t ~src ~src_port buf =
  let len = Bytebuf.length buf in
  let v = t.view in
  let verdict = Framing.read_layout v t.config.integrity buf in
  (* Route first (datagrams under 3 bytes land on shard 0) so that every
     arrival — and the accept or single drop reason it resolves to — is
     charged to exactly one shard: per-shard [arrivals = accepted + Σ
     drops] holds by construction. *)
  let sh =
    if v.Framing.stream < 0 then t.shards.(0)
    else
      t.shards.(Demux.shard_of ~shards:t.config.shards ~peer:src
                  ~peer_port:src_port ~stream:v.Framing.stream)
  in
  Obs.Counter.incr sh.ctr.c_arrivals;
  match Ingress.validate v verdict with
  | Some reason -> count_drop sh reason
  | None ->
      let ib = sh.inbox in
      let cap = Array.length ib.bufs in
      Mutex.lock sh.lock;
      if ib.count = cap then begin
        (* The shard's staging budget is spent: admission control by
           backpressure, counted, never blocking the ingest thread. *)
        Mutex.unlock sh.lock;
        count_drop sh Ingress.Backpressure
      end
      else begin
        let slot = ib.head + ib.count in
        let slot = if slot >= cap then slot - cap else slot in
        Bytebuf.blit ~src:buf ~src_pos:0 ~dst:ib.bufs.(slot) ~dst_pos:0 ~len;
        ib.src.(slot) <- src;
        ib.src_port.(slot) <- src_port;
        ib.len.(slot) <- len;
        ib.count <- ib.count + 1;
        if ib.count > sh.inbox_peak then sh.inbox_peak <- ib.count;
        Mutex.unlock sh.lock
      end

(* ---- outbox drain (main thread only: substrates are not thread-safe) ---- *)

(* Write, seal and send one queued reply from the engine scratch. A DONE
   always seals to the same length, so its view is made once. *)
let send_reply t io o j =
  let integrity = t.config.integrity in
  let dg =
    if o.below.(j) < 0 then begin
      let len = Ctl.write_done t.ctl ~stream:o.stream.(j) in
      ignore (Ctl.seal_in_place integrity t.ctl ~len);
      t.ctl_done
    end
    else
      let len =
        Ctl.write_nack t.ctl ~stream:o.stream.(j) ~have_below:o.below.(j)
          o.missing.(j)
      in
      Bytebuf.take t.ctl (Ctl.seal_in_place integrity t.ctl ~len)
  in
  ignore
    (io.Dgram.send ~dst:o.dst.(j) ~dst_port:o.dst_port.(j)
       ~src_port:t.config.port dg)

let drain_outbox t sh =
  let o = sh.outbox in
  Mutex.lock sh.lock;
  while o.o_count > 0 do
    let j = o.o_head in
    (match t.io with Some io -> send_reply t io o j | None -> ());
    o.missing.(j) <- [];
    o.o_head <- (if j + 1 = Array.length o.dst then 0 else j + 1);
    o.o_count <- o.o_count - 1
  done;
  o.o_head <- 0;
  Mutex.unlock sh.lock

let drain_outboxes t =
  for i = 0 to Array.length t.shards - 1 do
    drain_outbox t t.shards.(i)
  done

(* Shard tasks in shard order: on the worker pool when more than one
   shard has work and the pool has more than one domain, else inline. *)
let pump t =
  let busy = ref 0 and last = ref 0 in
  for i = 0 to Array.length t.shards - 1 do
    if t.shards.(i).inbox.count > 0 then begin
      incr busy;
      last := i
    end
  done;
  (match t.pool with
  | Some pool when !busy > 1 && Par.Pool.size pool > 1 ->
      let tasks = Array.make !busy ignore and k = ref 0 in
      for i = 0 to Array.length t.shards - 1 do
        if t.shards.(i).inbox.count > 0 then begin
          tasks.(!k) <- t.tasks.(i);
          incr k
        end
      done;
      Par.Pool.run pool tasks
  | _ ->
      if !busy = 1 then process_shard t t.shards.(!last)
      else
        for i = 0 to Array.length t.shards - 1 do
          if t.shards.(i).inbox.count > 0 then process_shard t t.shards.(i)
        done);
  drain_outboxes t

(* ---- harvest: idle/lingering eviction + NACK repair ---- *)

let repair t sh s now =
  (* Fit the NACK in the engine's control scratch: 13-byte body header,
     4 bytes per index, 4-byte trailer. *)
  let cap = Int.min 256 ((t.config.rx_buf_size - 17) / 4) in
  match Rx.missing sh.env s.rx ~cap with
  | [] -> ()
  | missing ->
      let holdoff =
        t.config.nack_holdoff *. float_of_int (1 lsl Int.min s.nack_tries 6)
      in
      if now -. s.stamp >= holdoff then
        if s.nack_tries >= t.config.nack_budget then
          (* Repair budget spent: declare the rest locally gone so the
             session can settle instead of hanging — the loss is reported
             in application terms, exactly like a sender GONE. The scan
             stops at the admission window, so a hostile CLOSE total
             cannot turn it into a 4-billion-iteration stall. *)
          List.iter
            (fun i -> count_gone t sh s sh.ctr.c_gone_local (Rx.give_up s.rx i))
            (Rx.missing sh.env s.rx ~cap:max_int)
        else begin
          queue_ctl sh (key_of s) ~below:(Rx.frontier s.rx) missing;
          Obs.Counter.incr sh.ctr.c_nacks;
          s.nack_tries <- s.nack_tries + 1;
          s.stamp <- now
        end

(* Shedding tightens the timers (completed sessions go immediately,
   idle ones in half the time); brownout halves them again and — via
   {!gated_admit} — refuses new admissions entirely. Completed-first
   ordering is already {!evict_one}'s victim policy, so the ladder is
   completed-first → LRU → new-admission refusal, as load rises. *)
let effective_linger t =
  match t.load with Normal -> t.config.done_linger | Shedding | Brownout -> 0.

let effective_idle t =
  match t.load with
  | Normal -> t.config.idle_timeout
  | Shedding -> t.config.idle_timeout /. 2.
  | Brownout -> t.config.idle_timeout /. 4.

(* Returns the shard's staging occupancy since the last harvest: the
   larger of inbox depth against the rx budget and outbox depth against
   the ctl budget, as a fraction. Peaks reset so each harvest sees one
   interval's pressure. *)
let harvest_shard t sh now =
  Mutex.lock sh.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.lock)
    (fun () ->
      let linger = effective_linger t and idle = effective_idle t in
      let expired = ref [] in
      Hashtbl.iter
        (fun _ s ->
          if Rx.complete s.rx then begin
            if now -. s.stamp >= linger then expired := s :: !expired
          end
          else if now -. s.last_rx >= idle then expired := s :: !expired
          else repair t sh s now)
        sh.sessions;
      List.iter
        (fun s ->
          drop_session sh s;
          Obs.Counter.incr sh.ctr.c_harvested)
        !expired;
      let occ =
        Float.max
          (float_of_int sh.inbox_peak
          /. float_of_int (max 1 t.config.rx_bufs_per_shard))
          (float_of_int sh.outbox_peak
          /. float_of_int (max 1 t.config.ctl_bufs_per_shard))
      in
      sh.inbox_peak <- 0;
      sh.outbox_peak <- 0;
      occ)

(* Deterministic hysteresis: the occupancy signal proposes a target
   state; the engine moves one level at a time, and only after the same
   proposal held for [load_ticks] consecutive harvests. The middle band
   (between [load_lo] and [shed_hi]) proposes at most Shedding, so
   Brownout — which refuses the admissions that would keep staging busy —
   always has a way back down. *)
let update_load t occ =
  let target =
    if occ >= brown_hi then Brownout
    else if occ >= shed_hi then Shedding
    else if occ <= load_lo then Normal
    else if t.load = Normal then Normal
    else Shedding
  in
  if target = t.load then begin
    t.load_pending <- t.load;
    t.load_streak <- 0
  end
  else begin
    if target = t.load_pending then t.load_streak <- t.load_streak + 1
    else begin
      t.load_pending <- target;
      t.load_streak <- 1
    end;
    if t.load_streak >= t.config.load_ticks then begin
      let step a b = if b > a then a + 1 else a - 1 in
      let next =
        match
          step (load_state_index t.load) (load_state_index target)
        with
        | 0 -> Normal
        | 1 -> Shedding
        | _ -> Brownout
      in
      t.load <- next;
      t.load_streak <- 0;
      t.load_pending <- target
    end
  end

let harvest t =
  let now = Rt.Sched.now t.sched in
  let occ =
    Array.fold_left
      (fun acc sh -> Float.max acc (harvest_shard t sh now))
      0. t.shards
  in
  update_load t occ;
  drain_outboxes t

let rec arm_harvest t =
  if t.config.harvest_interval > 0. && not t.stopped then
    t.harvest_timer <-
      Some
        (Rt.Sched.schedule_after t.sched t.config.harvest_interval (fun () ->
             if not t.stopped then begin
               harvest t;
               arm_harvest t
             end))

let stop t =
  t.stopped <- true;
  (match t.harvest_timer with Some tm -> Rt.Sched.cancel tm | None -> ());
  t.harvest_timer <- None

(* The counter [f] picks, summed over the shards. *)
let sum_shards t f =
  Array.fold_left (fun acc sh -> acc + Obs.Counter.value (f sh.ctr)) 0 t.shards

let drop_count t reason =
  let i = Ingress.reason_index reason in
  sum_shards t (fun c -> c.c_drops.(i))

let create ~sched ?io ?pool ?registry ?on_adu ?on_view ?on_complete
    ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Server.create: shards";
  if config.max_sessions_per_shard < 1 then
    invalid_arg "Server.create: max_sessions_per_shard";
  if config.rx_buf_size < Framing.fragment_header_size + Ctl.trailer_size then
    invalid_arg "Server.create: rx_buf_size";
  let prog = Option.map Wire.Schema.prog_of_xdr config.stage2_schema in
  let shards =
    Array.init config.shards
      (make_shard config registry ~prog ~on_adu ~on_view)
  in
  let ctl = Bytebuf.create config.rx_buf_size in
  let t =
    {
      config;
      sched;
      io;
      pool;
      shards;
      tasks = Array.make config.shards ignore;
      view = view_of config;
      ctl;
      ctl_done =
        Bytebuf.take ctl
          (Ctl.seal_in_place config.integrity ctl
             ~len:(Ctl.write_done ctl ~stream:0));
      on_complete;
      load = Normal;
      load_pending = Normal;
      load_streak = 0;
      harvest_timer = None;
      stopped = false;
    }
  in
  Array.iteri (fun i sh -> t.tasks.(i) <- (fun () -> process_shard t sh)) shards;
  Obs.Registry.pull ?registry
    (obs_prefix ^ ".load_state")
    (fun () -> float_of_int (load_state_index t.load));
  Array.iter
    (fun r ->
      Obs.Registry.pull ?registry
        (obs_prefix ^ ".drop." ^ Ingress.reason_name r)
        (fun () -> float_of_int (drop_count t r)))
    Ingress.all_reasons;
  (match io with
  | Some io ->
      io.Dgram.bind ~port:config.port (fun ~src ~src_port buf ->
          ingest t ~src ~src_port buf)
  | None -> ());
  arm_harvest t;
  t

(* ---- observation ---- *)

type snapshot = {
  arrivals : int;
  accepted : int;
  datagrams : int;
  delivered : int;
  delivered_bytes : int;
  gone : int;
  gone_local : int;
  dups : int;
  admitted : int;
  evicted : int;
  harvested : int;
  ctl_sent : int;
  nacks : int;
  dones : int;
  fallback_allocs : int;
  views : int;  (* validated lazy views handed to on_view *)
  view_invalid : int;  (* payloads failing schema validation *)
  drops : int array;  (* indexed by Ingress.reason_index *)
  dropped : int;  (* Σ drops *)
}

(* Every snapshot is built through one reader, [read f]: the counter [f]
   picks, of one shard or summed over the shards. *)
let snapshot_of read =
  let drops =
    Array.init Ingress.reason_count (fun i -> read (fun c -> c.c_drops.(i)))
  in
  {
    arrivals = read (fun c -> c.c_arrivals);
    accepted = read (fun c -> c.c_accepted);
    datagrams = read (fun c -> c.c_datagrams);
    delivered = read (fun c -> c.c_delivered);
    delivered_bytes = read (fun c -> c.c_bytes);
    gone = read (fun c -> c.c_gone);
    gone_local = read (fun c -> c.c_gone_local);
    dups = read (fun c -> c.c_dups);
    admitted = read (fun c -> c.c_admitted);
    evicted = read (fun c -> c.c_evicted);
    harvested = read (fun c -> c.c_harvested);
    ctl_sent = read (fun c -> c.c_ctl_sent);
    nacks = read (fun c -> c.c_nacks);
    dones = read (fun c -> c.c_dones);
    fallback_allocs = 0;
    views = read (fun c -> c.c_views);
    view_invalid = read (fun c -> c.c_view_invalid);
    drops;
    dropped = Array.fold_left ( + ) 0 drops;
  }

let malformed_drops s =
  Array.fold_left ( + ) 0
    (Array.map
       (fun r ->
         if Ingress.is_malformed r then s.drops.(Ingress.reason_index r) else 0)
       Ingress.all_reasons)

let shard_count t = Array.length t.shards
let shard_snapshot t sid =
  snapshot_of (fun f -> Obs.Counter.value (f t.shards.(sid).ctr))

let totals t = snapshot_of (sum_shards t)

let shard_sessions t sid = Hashtbl.length t.shards.(sid).sessions

let live_sessions t =
  Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.sessions) 0 t.shards

let peak_sessions t =
  Array.fold_left (fun acc sh -> acc + sh.peak_sessions) 0 t.shards

(* Staging slots count as buffers created at [create] and held while
   their datagram waits; reassembly buffers are the pool's. *)
let pool_sum t staging stat =
  Array.fold_left
    (fun acc sh -> acc + staging sh.inbox + stat (Pool.stats sh.reasm_pool))
    0 t.shards

let pool_allocated t =
  pool_sum t (fun ib -> Array.length ib.bufs) (fun s -> s.Pool.allocated)

let pool_outstanding t =
  pool_sum t (fun ib -> ib.count) (fun s -> s.Pool.outstanding)

let shard_of_key t ~peer ~peer_port ~stream =
  Demux.shard_of ~shards:t.config.shards ~peer ~peer_port ~stream

let locate t ~peer ~peer_port ~stream =
  let k = { peer; peer_port; stream } in
  let found = ref None in
  Array.iter
    (fun sh ->
      if !found = None && Hashtbl.mem sh.sessions k then found := Some sh.sid)
    t.shards;
  !found

type session_view = {
  v_frontier : int;
  v_total : int;
  v_delivered : int;
  v_gone : int;
  v_completed : bool;
  v_ahead_load : int;
}

let session_view t ~peer ~peer_port ~stream =
  let k = { peer; peer_port; stream } in
  let sid = shard_of_key t ~peer ~peer_port ~stream in
  match Hashtbl.find_opt t.shards.(sid).sessions k with
  | None -> None
  | Some s ->
      Some
        {
          v_frontier = Rx.frontier s.rx;
          v_total = Rx.total s.rx;
          v_delivered = Rx.delivered s.rx;
          v_gone = Rx.gone_count s.rx;
          v_completed = Rx.complete s.rx;
          v_ahead_load = Rx.ahead_load s.rx;
        }

let max_ahead_load t =
  Array.fold_left
    (fun acc sh ->
      Hashtbl.fold
        (fun _ s m -> max m (Rx.ahead_load s.rx))
        sh.sessions acc)
    0 t.shards
