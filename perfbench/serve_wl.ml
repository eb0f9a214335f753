(* serve-small and serve-lossy: the sharded serve engine
   ([Alf_serve.Server], default shards and policing) fed by [Loadgen].

   serve-small runs over real loopback UDP; the generator and the engine
   each own an [Rt.Loop] and an [Rt.Udp_link] on this one thread.
   serve-lossy runs over netsim with seeded loss in both directions, so
   its repair traffic is a pure function of the seed.

   One round is one [Loadgen] generation: [sessions] sessions, each
   sending [adus] single-fragment ADUs and a CLOSE, until every session
   holds a DONE. It is a closed loop: the generator emits a window of
   [window] datagrams, the substrate is run until every datagram of that
   window has been received (or, in the simulator, received or lost),
   the engine is pumped, and the replies are carried back the same way
   before the next window goes out. *)

open Bufkit
open Alf_core
module Server = Alf_serve.Server
module Loadgen = Alf_serve.Loadgen
module Ingress = Alf_serve.Ingress

type substrate = Udp | Sim of { loss : float }

type cfg = {
  sessions : int;
  adus : int;  (* per session *)
  seed : int;
  substrate : substrate;
}

let payload = 64

(* Datagrams in flight per closed-loop turn: half of the 256 123-byte
   datagrams a socket holds at the common rmem_default of 212992, so no
   window can overflow a receive buffer. *)
let window = 128

let spp = Loadgen.default_config.Loadgen.streams_per_port
let server_port = Server.default_config.Server.port

(* Integer peer names registered on the links: far above the addresses
   a link hands out to its own sockets. *)
let server_addr = 1_000_001
let gen_addr = 2_000_001

(* The seed picks the session -> (port, stream) mapping, and with it the
   demux shard and police bucket of every session. Loadgen payloads are
   a pure function of (session, index). *)
let base_port cfg = 10_000 + (cfg.seed land 4095 * 8)

(* Loadgen's payload: byte j of ADU [index] of session [k] is
   [(k * 131) + (index * 31) + (j * 7) + 5] mod 256. Top-level recursion,
   so the check allocates no closure. *)
let rec bytes_match p ~base ~len j =
  j >= len
  || Bytebuf.get_uint8 p j = (base + (j * 7)) land 0xff
     && bytes_match p ~base ~len (j + 1)

let payload_matches p ~len k index =
  Bytebuf.length p = len
  && bytes_match p ~base:((k * 131) + (index * 31) + 5) ~len 0

(* Bookkeeping shared by the wrappers and callbacks; sized once per run
   and reset before each round's set-up. *)
type st = {
  cfg : cfg;
  base : int;
  sent_ns : int array;  (* first send of each ADU, -1 before *)
  delivered : Bytes.t;  (* distinct intact deliveries *)
  completed : Bytes.t;  (* sessions seen completing at least once *)
  mutable intact : int;
  mutable redelivered : int;
  mutable mismatched : int;
  mutable unknown : int;
  mutable completions : int;
  mutable gone : int;  (* from first completions *)
  mutable gen_dgrams : int;
  mutable gen_data : int;
}

let make_st cfg =
  let n = cfg.sessions * cfg.adus in
  {
    cfg;
    base = base_port cfg;
    sent_ns = Array.make n (-1);
    delivered = Bytes.make n '\000';
    completed = Bytes.make cfg.sessions '\000';
    intact = 0;
    redelivered = 0;
    mismatched = 0;
    unknown = 0;
    completions = 0;
    gone = 0;
    gen_dgrams = 0;
    gen_data = 0;
  }

let reset st =
  Array.fill st.sent_ns 0 (Array.length st.sent_ns) (-1);
  Bytes.fill st.delivered 0 (Bytes.length st.delivered) '\000';
  Bytes.fill st.completed 0 (Bytes.length st.completed) '\000';
  st.intact <- 0;
  st.redelivered <- 0;
  st.mismatched <- 0;
  st.unknown <- 0;
  st.completions <- 0;
  st.gone <- 0;
  st.gen_dgrams <- 0;
  st.gen_data <- 0

let session_of st ~port ~stream = ((port - st.base) * spp) + (stream - 1)

(* The application: verify in place, count distinct ADUs, take the
   latency sample. Runs inside [Server.pump]. *)
let on_adu st (key : Server.key) (adu : Adu.t) =
  let t = Clock.now_ns () in
  let k = session_of st ~port:key.Server.peer_port ~stream:key.Server.stream in
  let index = adu.Adu.name.Adu.index in
  Span.enter Span.app_deliver ~session:k ~index;
  let cfg = st.cfg in
  if k < 0 || k >= cfg.sessions || index < 0 || index >= cfg.adus then
    st.unknown <- st.unknown + 1
  else if
    (not (payload_matches adu.Adu.payload ~len:payload k index))
    || (!Common.inject_mismatch && k = 0 && index = 0)
  then
    st.mismatched <- st.mismatched + 1
  else begin
    let id = (k * cfg.adus) + index in
    if Bytes.unsafe_get st.delivered id <> '\000' then
      st.redelivered <- st.redelivered + 1
    else begin
      Bytes.unsafe_set st.delivered id '\001';
      st.intact <- st.intact + 1;
      Common.add_latency (t - st.sent_ns.(id))
    end
  end;
  Span.leave ()

let on_complete st (key : Server.key) ~delivered:_ ~gone =
  let k = session_of st ~port:key.Server.peer_port ~stream:key.Server.stream in
  if k >= 0 && k < st.cfg.sessions && Bytes.get st.completed k = '\000' then begin
    Bytes.set st.completed k '\001';
    st.completions <- st.completions + 1;
    st.gone <- st.gone + gone
  end

(* The generator's substrate: stamps each ADU's first send, counts its
   datagrams and wire bytes, and names the ADU in the send span. *)
let gen_io st r ~send_span (io : Dgram.t) =
  let adus = st.cfg.adus and n = Array.length st.sent_ns in
  let send ~dst ~dst_port ~src_port buf =
    let len = Bytebuf.length buf in
    r.Common.wire_bytes <- r.Common.wire_bytes + len;
    st.gen_dgrams <- st.gen_dgrams + 1;
    if len > 7 && Bytebuf.get_uint8 buf 0 = Framing.frag_magic then begin
      st.gen_data <- st.gen_data + 1;
      let stream = (Bytebuf.get_uint8 buf 1 lsl 8) lor Bytebuf.get_uint8 buf 2 in
      let index =
        (Bytebuf.get_uint8 buf 3 lsl 24)
        lor (Bytebuf.get_uint8 buf 4 lsl 16)
        lor (Bytebuf.get_uint8 buf 5 lsl 8)
        lor Bytebuf.get_uint8 buf 6
      in
      let k = session_of st ~port:src_port ~stream in
      let id = (k * adus) + index in
      if k >= 0 && index < adus && id < n && st.sent_ns.(id) < 0 then
        st.sent_ns.(id) <- Clock.now_ns ();
      Span.enter send_span ~session:k ~index
    end
    else Span.enter send_span ~session:(-1) ~index:(-1);
    let ok = io.Dgram.send ~dst ~dst_port ~src_port buf in
    Span.leave ();
    ok
  in
  { (Common.counting_io r ~send_span ~handler_span:Span.gen_handle io) with Dgram.send }

let loadgen_config cfg st ~server =
  {
    Loadgen.default_config with
    Loadgen.sessions = cfg.sessions;
    adus_per_session = cfg.adus;
    payload_len = payload;
    base_port = st.base;
    server;
    server_port;
  }

let pump server =
  Span.enter Span.serve_pump ~session:(-1) ~index:(-1);
  Server.pump server;
  Span.leave ()

let gen_step gen =
  Span.enter Span.gen_step ~session:(-1) ~index:(-1);
  let sent = Loadgen.step gen ~budget:window in
  Span.leave ();
  sent

(* Engine-side checks common to both substrates, and the per-layer
   numbers the round reports. *)
let finish_round st (r : Common.round) server gen =
  let cfg = st.cfg in
  let open Common in
  let attempted = cfg.sessions * cfg.adus in
  r.attempted <- attempted;
  r.intact <- st.intact;
  check r (Loadgen.finished gen) "generator unfinished: %d of %d sessions DONE"
    (Loadgen.done_count gen) cfg.sessions;
  check r (st.mismatched = 0) "%d delivered payloads differ from Loadgen's"
    st.mismatched;
  check r (st.unknown = 0) "%d deliveries name no generated ADU" st.unknown;
  check r (st.completions = cfg.sessions) "%d of %d sessions completed"
    st.completions cfg.sessions;
  check r
    (st.intact + st.gone = attempted)
    "delivered (%d) + gone (%d) <> attempted (%d)" st.intact st.gone attempted;
  for sid = 0 to Server.shard_count server - 1 do
    let s = Server.shard_snapshot server sid in
    check r
      (s.Server.arrivals = s.Server.accepted + s.Server.dropped)
      "shard %d: arrivals %d <> accepted %d + dropped %d" sid s.Server.arrivals
      s.Server.accepted s.Server.dropped
  done;
  let tot = Server.totals server in
  let gs = Loadgen.stats gen in
  seti r "serve.fallback_allocs" tot.Server.fallback_allocs;
  seti r "serve.datagrams" tot.Server.datagrams;
  seti r "serve.dropped" tot.Server.dropped;
  Array.iter
    (fun reason ->
      let c = tot.Server.drops.(Ingress.reason_index reason) in
      if c > 0 then seti r ("serve.drop." ^ Ingress.reason_name reason) c)
    Ingress.all_reasons;
  seti r "serve.dups" tot.Server.dups;
  seti r "serve.nacks" tot.Server.nacks;
  seti r "serve.gone_local" tot.Server.gone_local;
  seti r "serve.harvested" tot.Server.harvested;
  seti r "serve.redelivered" st.redelivered;
  seti r "serve.peak_sessions" (Server.peak_sessions server);
  seti r "serve.pool_outstanding" (Server.pool_outstanding server);
  seti r "gen.dgrams" st.gen_dgrams;
  seti r "gen.data_dgrams" st.gen_data;
  seti r "gen.regens" gs.Loadgen.regens;
  seti r "gen.recloses" gs.Loadgen.recloses

(* ---- serve-small: real loopback UDP ---- *)

let round_udp st ~traced =
  let cfg = st.cfg in
  let r = Common.new_round ~traced in
  reset st;
  let t_setup = Clock.now_ns () in
  let loop_e = Rt.Loop.create () in
  let link_e =
    Rt.Udp_link.create ~loop:loop_e
      ~pool:(Pool.create ~capacity:128 ~buf_size:2048 ())
      ~buf_size:2048 ()
  in
  let sched_e = Rt.Loop.sched loop_e in
  let server =
    Server.create
      ~sched:(if traced then Common.timer_sched Span.serve_harvest sched_e else sched_e)
      ~io:
        (Common.counting_io r ~send_span:Span.rt_send ~handler_span:Span.serve_ingest
           (Dgram.of_rt link_e))
      ~registry:(Obs.Registry.create ()) ~on_adu:(on_adu st)
      ~on_complete:(on_complete st) ()
  in
  let loop_g = Rt.Loop.create () in
  let link_g =
    Rt.Udp_link.create ~loop:loop_g
      ~pool:(Pool.create ~capacity:128 ~buf_size:2048 ())
      ~buf_size:2048 ()
  in
  Rt.Udp_link.set_peer link_g ~addr:server_addr ~port:server_port
    (Rt.Udp_link.local_sockaddr link_e ~port:server_port);
  let gen =
    Loadgen.create
      ~io:(gen_io st r ~send_span:Span.rt_send (Dgram.of_rt link_g))
      (loadgen_config cfg st ~server:server_addr)
  in
  (* Name every generator socket on the engine's link, so sessions are
     keyed by the generator's own ports. *)
  for p = 0 to Loadgen.ports_used (loadgen_config cfg st ~server:0) - 1 do
    let port = st.base + p in
    Rt.Udp_link.set_peer link_e ~addr:gen_addr ~port
      (Rt.Udp_link.local_sockaddr link_g ~port)
  done;
  let se = Rt.Udp_link.stats link_e and sg = Rt.Udp_link.stats link_g in
  let to_engine () = se.Rt.Udp_link.datagrams_received >= sg.Rt.Udp_link.datagrams_sent in
  let to_gen () = sg.Rt.Udp_link.datagrams_received >= se.Rt.Udp_link.datagrams_sent in
  let poll loop pred =
    Span.enter Span.rt_poll ~session:(-1) ~index:(-1);
    let ok = Rt.Loop.run_until loop ~timeout:10.0 pred in
    Span.leave ();
    ok
  in
  r.setup_ns <- Clock.now_ns () - t_setup;
  let m = Common.mark_start () in
  Span.on := traced;
  let running = ref true in
  while !running do
    if Loadgen.finished gen then running := false
    else if gen_step gen = 0 then begin
      Common.fail r "generator stalled with %d of %d sessions DONE"
        (Loadgen.done_count gen) cfg.sessions;
      running := false
    end
    else if not (poll loop_e to_engine) then begin
      Common.fail r "kernel loss: engine received %d of %d datagrams"
        se.Rt.Udp_link.datagrams_received sg.Rt.Udp_link.datagrams_sent;
      running := false
    end
    else begin
      pump server;
      if not (poll loop_g to_gen) then begin
        Common.fail r "kernel loss: generator received %d of %d datagrams"
          sg.Rt.Udp_link.datagrams_received se.Rt.Udp_link.datagrams_sent;
        running := false
      end
      else Calib.tick ()
    end
  done;
  Span.on := false;
  Common.mark_stop r m;
  finish_round st r server gen;
  let open Common in
  check r
    (sg.Rt.Udp_link.datagrams_sent = se.Rt.Udp_link.datagrams_received
    && se.Rt.Udp_link.datagrams_sent = sg.Rt.Udp_link.datagrams_received)
    "datagrams sent <> received (gen %d->%d, engine %d->%d)"
    sg.Rt.Udp_link.datagrams_sent se.Rt.Udp_link.datagrams_received
    se.Rt.Udp_link.datagrams_sent sg.Rt.Udp_link.datagrams_received;
  check r
    (sg.Rt.Udp_link.send_dropped + se.Rt.Udp_link.send_dropped = 0)
    "%d sends refused by the kernel"
    (sg.Rt.Udp_link.send_dropped + se.Rt.Udp_link.send_dropped);
  check r (get r "serve.dropped" = 0.) "engine dropped %.0f datagrams"
    (get r "serve.dropped");
  check r (get r "gen.regens" = 0. && get r "gen.recloses" = 0.)
    "repair traffic on a lossless substrate";
  check r (get r "serve.fallback_allocs" = 0.) "%.0f engine pool-miss allocations"
    (get r "serve.fallback_allocs");
  seti r "rt.sends" (sg.Rt.Udp_link.datagrams_sent + se.Rt.Udp_link.datagrams_sent);
  seti r "rt.received"
    (sg.Rt.Udp_link.datagrams_received + se.Rt.Udp_link.datagrams_received);
  seti r "rt.recv_batches"
    (sg.Rt.Udp_link.recv_batches + se.Rt.Udp_link.recv_batches);
  seti r "rt.recv_pool_misses"
    (sg.Rt.Udp_link.recv_pool_misses + se.Rt.Udp_link.recv_pool_misses);
  Server.stop server;
  Rt.Udp_link.close link_g;
  Rt.Udp_link.close link_e;
  r

(* ---- serve-lossy: netsim, seeded loss both ways ---- *)

(* The first round's repair signature; every later round of the run
   replays the same seed and must reproduce it exactly. *)
let signature = ref None

let round_sim st ~loss ~traced =
  let cfg = st.cfg in
  let r = Common.new_round ~traced in
  reset st;
  let t_setup = Clock.now_ns () in
  let engine = Netsim.Engine.create () in
  let net =
    Netsim.Topology.point_to_point ~engine
      ~rng:(Netsim.Rng.create ~seed:(Int64.of_int cfg.seed))
      ~impair:(Netsim.Impair.lossy loss) ~impair_back:(Netsim.Impair.lossy loss)
      ~queue_limit:1_000_000 ~bandwidth_bps:1e9 ~delay:1e-4 ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Netsim.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Netsim.Topology.b () in
  let sched = Netsim.Engine.sched engine in
  let server =
    Server.create
      ~sched:(if traced then Common.timer_sched Span.serve_harvest sched else sched)
      ~io:
        (Common.counting_io r ~send_span:Span.netsim_send ~handler_span:Span.serve_ingest
           (Dgram.of_udp ub))
      ~registry:(Obs.Registry.create ()) ~on_adu:(on_adu st)
      ~on_complete:(on_complete st) ()
  in
  let gen =
    Loadgen.create
      ~io:(gen_io st r ~send_span:Span.netsim_send (Dgram.of_udp ua))
      (loadgen_config cfg st ~server:2)
  in
  let ab = Netsim.Link.stats net.Netsim.Topology.ab
  and ba = Netsim.Link.stats net.Netsim.Topology.ba in
  let settled (s : Netsim.Stats.link) =
    s.Netsim.Stats.delivered_pkts + s.Netsim.Stats.dropped_loss
    >= s.Netsim.Stats.sent_pkts
  in
  (* Run the simulator until every datagram in flight has landed or
     been lost: a count predicate, never a time slice. *)
  let settle () =
    Span.enter Span.netsim_run ~session:(-1) ~index:(-1);
    while (not (settled ab && settled ba)) && Netsim.Engine.step engine do
      ()
    done;
    Span.leave ()
  in
  let harvest_interval = Server.default_config.Server.harvest_interval in
  let max_stalls = 10_000 in
  r.setup_ns <- Clock.now_ns () - t_setup;
  let m = Common.mark_start () in
  Span.on := traced;
  let stalls = ref 0 in
  let running = ref true in
  while !running do
    if Loadgen.finished gen then running := false
    else if gen_step gen > 0 then begin
      settle ();
      pump server;
      settle ();
      Calib.tick ()
    end
    else begin
      (* Nothing left to send but sessions without DONE: let one
         harvest interval of virtual time pass so the engine's repair
         schedule runs, and re-CLOSE every third time, as a sender
         whose CLOSE or DONE was lost would. *)
      incr stalls;
      if !stalls > max_stalls then begin
        Common.fail r "repair did not converge: %d of %d sessions DONE"
          (Loadgen.done_count gen) cfg.sessions;
        running := false
      end
      else begin
        Span.enter Span.netsim_run ~session:(-1) ~index:(-1);
        Netsim.Engine.run
          ~until:(Netsim.Engine.now engine +. harvest_interval)
          engine;
        Span.leave ();
        settle ();
        pump server;
        settle ();
        if !stalls mod 3 = 0 then Loadgen.nudge gen
      end
    end
  done;
  Span.on := false;
  Common.mark_stop r m;
  finish_round st r server gen;
  let open Common in
  seti r "netsim.dgrams" (ab.Netsim.Stats.sent_pkts + ba.Netsim.Stats.sent_pkts);
  seti r "netsim.lost" (ab.Netsim.Stats.dropped_loss + ba.Netsim.Stats.dropped_loss);
  check r
    (ab.Netsim.Stats.dropped_queue + ba.Netsim.Stats.dropped_queue = 0)
    "simulator queue overflow";
  let sig_ =
    ( get r "serve.nacks",
      get r "gen.regens",
      get r "gen.recloses",
      get r "gen.dgrams",
      r.wire_bytes,
      st.redelivered )
  in
  (match !signature with
  | None -> signature := Some sig_
  | Some s0 ->
      check r (s0 = sig_)
        "repair counts differ from the first round of this seed");
  Server.stop server;
  r

let round cfg =
  let st = make_st cfg in
  signature := None;
  match cfg.substrate with
  | Udp -> fun ~traced -> round_udp st ~traced
  | Sim { loss } -> fun ~traced -> round_sim st ~loss ~traced
