(* The sharded many-session engine: demux routing against a single-table
   oracle, session placement, completion accounting, per-shard Obs
   counters, and the pre-allocated memory budget. *)

open Bufkit
open Netsim
open Alf_core
module Demux = Alf_serve.Demux
module Server = Alf_serve.Server
module Loadgen = Alf_serve.Loadgen
module Ingress = Alf_serve.Ingress
module Police = Alf_serve.Police
module Hostile = Alf_chaos.Hostile

let qcheck t = QCheck_alcotest.to_alcotest t
let integrity = Some Checksum.Kind.Crc32

(* --- demux vs. the session key ---

   The engine routes every datagram from its first three bytes, before
   unsealing; a single-table receiver would route from the full session
   key after reassembly. The property: both give the same shard, for
   every datagram kind a session can emit — data fragments (all of them,
   not just the first) and each control message. *)
let demux_matches_oracle =
  QCheck.Test.make ~name:"sealed datagrams route like their session key"
    ~count:200
    QCheck.(
      quad (int_range 1 5000) (int_range 1 65535) (int_range 0 65535)
        (int_range 1 32))
    (fun (peer, peer_port, stream, shards) ->
      let oracle = Demux.shard_of ~shards ~peer ~peer_port ~stream in
      let payload = Bytebuf.of_string (String.make 100 'a') in
      let adu = Adu.make (Adu.name ~stream ~index:3 ()) payload in
      let datagrams =
        List.map (Ctl.seal integrity)
          (Framing.fragment ~mtu:60 adu
          @ [
              Ctl.build (Ctl.write_close ~stream ~total:4);
              Ctl.build (Ctl.write_done ~stream);
              Ctl.build (fun b -> Ctl.write_nack b ~stream ~have_below:1 [ 2; 3 ]);
              Ctl.build (fun b -> Ctl.write_gone b ~stream [ 1 ]);
            ])
      in
      let v = Framing.view () in
      List.length datagrams > 4
      && List.for_all
           (fun d ->
             Framing.read_layout v integrity d = Framing.Valid
             &&
             let s = v.Framing.stream in
             s = stream
             && oracle >= 0 && oracle < shards
             && Demux.shard_of ~shards ~peer ~peer_port ~stream:s = oracle)
           datagrams)

(* The demux hash is an immediate int; every shard and bucket
   assignment is the one the boxed 64-bit hash made. *)
let int64_reference ~peer ~peer_port ~stream =
  let open Int64 in
  let mix64 x =
    let x = logxor x (shift_right_logical x 30) in
    let x = mul x 0xbf58476d1ce4e5b9L in
    let x = logxor x (shift_right_logical x 27) in
    let x = mul x 0x94d049bb133111ebL in
    logxor x (shift_right_logical x 31)
  in
  mix64
    (add
       (mul (of_int peer) 0x9E3779B97F4A7C15L)
       (add (mul (of_int peer_port) 0xC2B2AE3D27D4EB4FL) (of_int stream)))

let demux_matches_int64 =
  QCheck.Test.make ~name:"int hash places like the 64-bit hash" ~count:2000
    QCheck.(
      quad (int_bound 3_000_000) (int_bound 65535) (int_bound 65535)
        (int_range 1 4096))
    (fun (peer, peer_port, stream, n) ->
      let h64 = int64_reference ~peer ~peer_port ~stream in
      let slot64 =
        Int64.to_int (Int64.rem (Int64.logand h64 Int64.max_int) (Int64.of_int n))
      in
      Demux.slot (Demux.hash ~peer ~peer_port ~stream) ~n = slot64
      && Demux.shard_of ~shards:n ~peer ~peer_port ~stream = slot64)

(* A datagram substrate that captures sends instead of carrying them:
   lets the load generator build real wire datagrams for a server driven
   entirely by hand. *)
let capture_io () =
  let sent = ref [] in
  ( {
      Dgram.send =
        (fun ~dst:_ ~dst_port:_ ~src_port buf ->
          sent := (src_port, Bytebuf.copy buf) :: !sent;
          true);
      bind = (fun ~port:_ _ -> ());
      max_payload = 65507;
    },
    sent )

(* --- session placement: every session lives exactly where the demux
   says, and the shard tables partition the session set --- *)
let test_ingest_placement () =
  let sessions = 150 and adus = 2 in
  let io, sent = capture_io () in
  let gen =
    Loadgen.create ~io
      {
        Loadgen.default_config with
        Loadgen.sessions;
        adus_per_session = adus;
        payload_len = 48;
        streams_per_port = 40;
        server = 1;
        integrity;
      }
  in
  while Loadgen.step gen ~budget:1000 > 0 do
    ()
  done;
  let engine = Engine.create () in
  let registry = Obs.Registry.create () in
  let server =
    Server.create ~sched:(Engine.sched engine) ~registry
      ~config:
        { Server.default_config with Server.shards = 5; harvest_interval = 0. }
      ()
  in
  let peer = 77 in
  List.iter
    (fun (src_port, buf) -> Server.ingest server ~src:peer ~src_port buf)
    (List.rev !sent);
  Server.pump server;
  let totals = Server.totals server in
  Alcotest.(check int) "all ADUs delivered" (sessions * adus)
    totals.Server.delivered;
  Alcotest.(check int) "every session completed (DONE queued)" sessions
    totals.Server.dones;
  Alcotest.(check int) "nothing dropped" 0 totals.Server.dropped;
  Alcotest.(check int) "arrivals conserve" totals.Server.arrivals
    (totals.Server.accepted + totals.Server.dropped);
  Alcotest.(check int) "no duplicates" 0 totals.Server.dups;
  (* Placement: the table that holds each session is the one the pure
     demux function names; the shard tables partition the session set. *)
  for k = 0 to sessions - 1 do
    let peer_port = Loadgen.session_port gen k
    and stream = Loadgen.session_stream gen k in
    let expected = Server.shard_of_key server ~peer ~peer_port ~stream in
    (match Server.locate server ~peer ~peer_port ~stream with
    | Some sid ->
        if sid <> expected then
          Alcotest.failf "session %d in shard %d, demux says %d" k sid expected
    | None -> Alcotest.failf "session %d not found in any shard" k);
    match Server.session_view server ~peer ~peer_port ~stream with
    | Some v ->
        if not v.Server.v_completed then
          Alcotest.failf "session %d not completed" k
    | None -> Alcotest.failf "session %d has no view" k
  done;
  let sum = ref 0 in
  for sid = 0 to Server.shard_count server - 1 do
    sum := !sum + Server.shard_sessions server sid
  done;
  Alcotest.(check int) "shards partition the sessions" sessions !sum;
  Server.stop server

(* --- dispatch words: Loadgen datagrams fed in process to ingest and
   pump, no substrate, harvest off. After a warm-up generation, stage 0
   and the dispatch of a datagram stay within a few words: the key, the
   delivered ADU, and a session's admission and completion. With a
   schema, stage 2 validates each payload where the shard's compiled
   plan wrote it, for a few words more. --- *)
let dispatch_words stage2_schema =
  let sessions = 1000 and adus = 4 and window = 128 in
  let io, sent = capture_io () in
  let gen =
    Loadgen.create ~io
      {
        Loadgen.default_config with
        Loadgen.sessions;
        adus_per_session = adus;
        payload_len = 64;
        server = 1;
        integrity;
      }
  in
  while Loadgen.step gen ~budget:1000 > 0 do
    ()
  done;
  let dgs = Array.of_list (List.rev !sent) in
  let engine = Engine.create () in
  let server =
    Server.create ~sched:(Engine.sched engine) ~registry:(Obs.Registry.create ())
      ~config:
        {
          Server.default_config with
          harvest_interval = 0.;
          done_linger = 0.;
          stage2_schema;
        }
      ()
  in
  let words = Float.Array.make 2 0. in
  let generation () =
    Float.Array.fill words 0 2 0.;
    let i = ref 0 in
    while !i < Array.length dgs do
      let last = min (Array.length dgs) (!i + window) in
      let w0 = Gc.minor_words () in
      for j = !i to last - 1 do
        let src_port, dg = Array.unsafe_get dgs j in
        Server.ingest server ~src:5 ~src_port dg
      done;
      let w1 = Gc.minor_words () in
      Server.pump server;
      let w2 = Gc.minor_words () in
      Float.Array.set words 0 (Float.Array.get words 0 +. (w1 -. w0));
      Float.Array.set words 1 (Float.Array.get words 1 +. (w2 -. w1));
      i := last
    done;
    (* Every session completed: the harvest clears them for the next
       generation, which reuses their keys, and virtual time refills the
       admission buckets. *)
    Server.harvest server;
    Engine.run ~until:(Engine.now engine +. 10.) engine
  in
  generation ();
  generation ();
  let n = float_of_int (Array.length dgs) in
  let ingest = Float.Array.get words 0 /. n
  and pump = Float.Array.get words 1 /. n in
  let totals = Server.totals server in
  Alcotest.(check int) "both generations delivered" (2 * sessions * adus)
    totals.Server.delivered;
  Alcotest.(check int) "nothing dropped" 0 totals.Server.dropped;
  Alcotest.(check int) "no fallback allocation" 0 totals.Server.fallback_allocs;
  if ingest > 8. then Alcotest.failf "ingest: %.2f words per datagram" ingest;
  Server.stop server;
  (pump, totals)

let test_dispatch_words () =
  let pump, _ = dispatch_words None in
  if pump > 24. then Alcotest.failf "pump: %.2f words per datagram" pump;
  (* An XDR int heads each 64-byte payload, so every ADU validates. *)
  let pump, totals = dispatch_words (Some Wire.Xdr.S_int) in
  Alcotest.(check int) "every ADU validated" totals.Server.delivered
    totals.Server.views;
  Alcotest.(check int) "no invalid view" 0 totals.Server.view_invalid;
  if pump > 40. then
    Alcotest.failf "pump with a schema: %.2f words per datagram" pump

let registry_counter registry name =
  match Obs.Registry.find ~registry name with
  | Some (Obs.Registry.Counter c) -> Obs.Counter.value c
  | _ -> Alcotest.failf "missing registry counter %s" name

(* --- multi-domain stress: a real parallel pump over netsim, with the
   per-shard registry counters summing to the engine totals and the
   pre-warmed pool budget never growing --- *)
let test_multidomain_stress () =
  let sessions = 2000 and adus = 2 and shards = 4 in
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:Impair.none
      ~queue_limit:1_000_000 ~bandwidth_bps:1e9 ~delay:1e-4 ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
  let registry = Obs.Registry.create () in
  let pool = Par.Pool.create ~domains:2 () in
  let server =
    Server.create ~sched:(Engine.sched engine) ~io:(Dgram.of_udp ub) ~pool
      ~registry
      ~config:
        {
          Server.default_config with
          Server.shards;
          harvest_interval = 0.02;
          rx_bufs_per_shard = 512;
          ctl_bufs_per_shard = 512;
        }
      ()
  in
  let gen =
    Loadgen.create ~io:(Dgram.of_udp ua)
      {
        Loadgen.default_config with
        Loadgen.sessions;
        adus_per_session = adus;
        payload_len = 64;
        server = 2;
        integrity;
      }
  in
  let budget_allocated = Server.pool_allocated server in
  let rounds = ref 0 in
  while (not (Loadgen.finished gen)) && !rounds < 500 do
    incr rounds;
    let sent = Loadgen.step gen ~budget:1024 in
    Engine.run ~until:(Engine.now engine +. 0.005) ~max_events:1_000_000 engine;
    Server.pump server;
    Engine.run ~until:(Engine.now engine +. 0.005) ~max_events:1_000_000 engine;
    if sent = 0 && not (Loadgen.finished gen) then begin
      Server.harvest server;
      Engine.run ~until:(Engine.now engine +. 0.05) ~max_events:1_000_000
        engine;
      Server.pump server;
      Loadgen.nudge gen
    end
  done;
  Alcotest.(check bool) "all sessions acknowledged" true
    (Loadgen.finished gen);
  let totals = Server.totals server in
  Alcotest.(check int) "delivered union gone = sent" (sessions * adus)
    (totals.Server.delivered + totals.Server.gone + totals.Server.gone_local);
  Alcotest.(check int) "no fallback allocations" 0
    totals.Server.fallback_allocs;
  Alcotest.(check int) "pool budget never grows past the pre-warm"
    budget_allocated
    (Server.pool_allocated server);
  Alcotest.(check bool) "ahead tables stay flat" true
    (Server.max_ahead_load server <= 64);
  (* The Obs wiring: per-shard registry counters, summed, reproduce the
     programmatic totals — and each shard's exported counter matches its
     own snapshot. *)
  let sum name field =
    let acc = ref 0 in
    for sid = 0 to shards - 1 do
      let exported =
        registry_counter registry (Printf.sprintf "serve.shard%d.%s" sid name)
      in
      let snap = Server.shard_snapshot server sid in
      Alcotest.(check int)
        (Printf.sprintf "shard %d %s export" sid name)
        (field snap) exported;
      acc := !acc + exported
    done;
    !acc
  in
  Alcotest.(check int) "delivered sums across shards" totals.Server.delivered
    (sum "delivered" (fun s -> s.Server.delivered));
  Alcotest.(check int) "datagrams sum across shards" totals.Server.datagrams
    (sum "datagrams" (fun s -> s.Server.datagrams));
  Alcotest.(check int) "admissions sum across shards" totals.Server.admitted
    (sum "admitted" (fun s -> s.Server.admitted));
  Alcotest.(check int) "dones sum across shards" totals.Server.dones
    (sum "dones" (fun s -> s.Server.dones));
  Server.stop server;
  Par.Pool.shutdown pool

(* --- capacity eviction: at the admission cap the shard evicts rather
   than grow, and the engine keeps serving --- *)
let test_admission_eviction () =
  let engine = Engine.create () in
  let registry = Obs.Registry.create () in
  let server =
    Server.create ~sched:(Engine.sched engine) ~registry
      ~config:
        {
          Server.default_config with
          Server.shards = 1;
          max_sessions_per_shard = 10;
          harvest_interval = 0.;
        }
      ()
  in
  let io, sent = capture_io () in
  let gen =
    Loadgen.create ~io
      {
        Loadgen.default_config with
        Loadgen.sessions = 25;
        adus_per_session = 1;
        payload_len = 16;
        streams_per_port = 25;
        server = 1;
        integrity;
      }
  in
  while Loadgen.step gen ~budget:100 > 0 do
    ()
  done;
  List.iter
    (fun (src_port, buf) -> Server.ingest server ~src:9 ~src_port buf)
    (List.rev !sent);
  Server.pump server;
  Alcotest.(check int) "table capped" 10 (Server.shard_sessions server 0);
  let totals = Server.totals server in
  (* Evicted sessions may be re-admitted by their later datagrams, so
     admissions can exceed the session count — the table just never
     grows past the cap, and every admission is still resident or was
     evicted (conservation). *)
  Alcotest.(check bool) "every session admitted at least once" true
    (totals.Server.admitted >= 25);
  Alcotest.(check int) "admissions = live + evicted"
    totals.Server.admitted
    (Server.live_sessions server + totals.Server.evicted
   + totals.Server.harvested);
  Server.stop server

(* --- stage-0 ingress: the total pre-demux classifier --- *)

let test_ingress_verdicts () =
  let v = Framing.view ~max_len:512 ~max_total_len:(4096 + Adu.header_size) () in
  let seal = Ctl.seal integrity in
  let verdict buf = Ingress.validate v (Framing.read_layout v integrity buf) in
  let reject name expect buf =
    match verdict buf with
    | Some r when r = expect -> ()
    | Some r ->
        Alcotest.failf "%s: dropped as %s, expected %s" name
          (Ingress.reason_name r) (Ingress.reason_name expect)
    | None -> Alcotest.failf "%s: accepted" name
  in
  let accept name stream buf =
    match verdict buf with
    | None -> Alcotest.(check int) name stream v.Framing.stream
    | Some r ->
        Alcotest.failf "%s: rejected as %s" name (Ingress.reason_name r)
  in
  let payload = Bytebuf.of_string (String.make 60 'p') in
  let adu = Adu.make (Adu.name ~stream:9 ~index:1 ()) payload in
  let frag = seal (List.hd (Framing.fragment ~mtu:1200 adu)) in
  accept "valid fragment" 9 frag;
  accept "valid close" 9 (seal (Ctl.build (Ctl.write_close ~stream:9 ~total:2)));
  accept "valid done" 9 (seal (Ctl.build (Ctl.write_done ~stream:9)));
  accept "valid nack" 9 (seal (Ctl.build (fun b -> Ctl.write_nack b ~stream:9 ~have_below:0 [ 1 ])));
  accept "valid gone" 9 (seal (Ctl.build (fun b -> Ctl.write_gone b ~stream:9 [ 1 ])));
  reject "empty" Ingress.Runt (Bytebuf.of_string "");
  reject "trailer-only" Ingress.Runt (Bytebuf.of_string "\xAD\x12\x34\x00\x00");
  (* A runt of 3 bytes or more still names the stream it is routed by. *)
  Alcotest.(check int) "runt routed by bytes 1-2" 0x1234 v.Framing.stream;
  reject "two bytes" Ingress.Runt (Bytebuf.of_string "\xAD\x12");
  Alcotest.(check int) "no stream under 3 bytes" (-1) v.Framing.stream;
  reject "oversize" Ingress.Oversize (Bytebuf.create 513);
  reject "unknown kind" Ingress.Bad_kind (Bytebuf.of_string "\x99aaaaaaa");
  (let b = Bytebuf.copy frag in
   Bytebuf.set_uint8 b 9 0;
   Bytebuf.set_uint8 b 10 0;
   (* nfrags = 0 *)
   reject "zero nfrags" Ingress.Frag_header b);
  (let b = Bytebuf.copy frag in
   Bytebuf.set_uint8 b 7 0xFF;
   Bytebuf.set_uint8 b 8 0xFF;
   (* frag_idx >= nfrags *)
   reject "frag index past count" Ingress.Frag_header b);
  (let b = Bytebuf.copy frag in
   Bytebuf.set_uint8 b 11 0xFF;
   (* total_len > max_total_len: attacker-controlled allocation *)
   reject "huge total_len" Ingress.Frag_header b);
  reject "truncated fragment" Ingress.Frag_header (Bytebuf.take frag 30);
  (let b = seal (Ctl.build (fun b -> Ctl.write_nack b ~stream:9 ~have_below:0 [ 1; 2; 3 ])) in
   reject "nack count disagrees" Ingress.Ctl_malformed
     (Bytebuf.take b (Bytebuf.length b - 8)));
  (let b = Bytebuf.create 40 in
   Bytebuf.set_uint8 b 0 0xFE;
   reject "fec" Ingress.Fec_unsupported b);
  (* Total over arbitrary bytes: every one-byte prefix-to-length slice of
     a valid datagram classifies without raising. *)
  for l = 1 to Bytebuf.length frag - 1 do
    ignore (verdict (Bytebuf.take frag l))
  done

let test_police () =
  let p = Police.create ~buckets:8 ~rate:10. ~burst:3. () in
  let k = 0x1234 and k2 = 0x1235 in
  Alcotest.(check bool) "burst passes" true
    (Police.allow p ~key:k ~now:0.
    && Police.allow p ~key:k ~now:0.
    && Police.allow p ~key:k ~now:0.);
  Alcotest.(check bool) "burst exhausted" false (Police.allow p ~key:k ~now:0.);
  Alcotest.(check bool) "other bucket untouched" true
    (Police.allow p ~key:k2 ~now:0.);
  Alcotest.(check bool) "refill after elapsed time" true
    (Police.allow p ~key:k ~now:0.1);
  Alcotest.(check bool) "refill is rate-limited" false
    (Police.allow p ~key:k ~now:0.1);
  Alcotest.(check bool) "backwards clock is safe" false
    (Police.allow p ~key:k ~now:0.05);
  Alcotest.(check bool) "negative keys map into the table" true
    (Police.allow p ~key:(-7) ~now:0.)

(* --- hostile churn must not leak reassembly buffers: evicting a session
   with a live partial releases its pooled buffer --- *)
let test_eviction_releases_partials () =
  let engine = Engine.create () in
  let registry = Obs.Registry.create () in
  let cap = 8 in
  let server =
    Server.create ~sched:(Engine.sched engine) ~registry
      ~config:
        {
          Server.default_config with
          Server.shards = 1;
          max_sessions_per_shard = cap;
          reasm_bufs_per_shard = 2 * cap;
          harvest_interval = 0.;
        }
      ()
  in
  let seal = Ctl.seal integrity in
  let payload = Bytebuf.of_string (String.make 64 'x') in
  (* First fragment only of a 2-fragment ADU: the session parks a pooled
     partial that only eviction (or completion) can release. *)
  let first_frag_of stream =
    let adu = Adu.make (Adu.name ~stream ~index:0 ()) payload in
    match Framing.fragment ~mtu:77 adu with
    | f0 :: _ :: _ -> seal f0
    | _ -> Alcotest.fail "expected a 2-fragment ADU"
  in
  let warm = Server.pool_allocated server in
  for round = 1 to 5 do
    for s = 1 to cap do
      Server.ingest server ~src:3 ~src_port:2000
        (first_frag_of ((100 * round) + s));
      Server.pump server
    done
  done;
  Alcotest.(check int) "table capped" cap (Server.shard_sessions server 0);
  (* 40 sessions churned through holding partials; without the release-
     on-drop fix the evicted 32 would pin their buffers forever. *)
  Alcotest.(check bool)
    (Printf.sprintf "outstanding bounded by live partials (%d)"
       (Server.pool_outstanding server))
    true
    (Server.pool_outstanding server <= cap);
  Alcotest.(check int) "pool budget never grows past the pre-warm" warm
    (Server.pool_allocated server);
  (* The pool still serves: a fresh multi-fragment session completes. *)
  let stream = 7777 in
  let adu = Adu.make (Adu.name ~stream ~index:0 ()) payload in
  List.iter
    (fun f -> Server.ingest server ~src:3 ~src_port:2000 (seal f))
    (Framing.fragment ~mtu:77 adu);
  Server.ingest server ~src:3 ~src_port:2000
    (seal (Ctl.build (Ctl.write_close ~stream ~total:1)));
  Server.pump server;
  (match Server.session_view server ~peer:3 ~peer_port:2000 ~stream with
  | Some v -> Alcotest.(check bool) "fresh session completed" true v.Server.v_completed
  | None -> Alcotest.fail "fresh session missing");
  let totals = Server.totals server in
  Alcotest.(check int) "no fallback allocations" 0 totals.Server.fallback_allocs;
  Alcotest.(check int) "arrivals conserve" totals.Server.arrivals
    (totals.Server.accepted + totals.Server.dropped);
  Server.stop server

(* --- the load-state ladder: occupancy proposes, hysteresis confirms,
   one level at a time, and brownout refuses new admissions --- *)
let test_load_state_ladder () =
  let engine = Engine.create () in
  let registry = Obs.Registry.create () in
  let bufs = 16 in
  let server =
    Server.create ~sched:(Engine.sched engine) ~registry
      ~config:
        {
          Server.default_config with
          Server.shards = 1;
          rx_bufs_per_shard = bufs;
          ctl_bufs_per_shard = bufs;
          harvest_interval = 0.;
          load_ticks = 2;
        }
      ()
  in
  let seal = Ctl.seal integrity in
  let payload = Bytebuf.of_string (String.make 16 'y') in
  let frag_for stream =
    let adu = Adu.make (Adu.name ~stream ~index:0 ()) payload in
    seal (List.hd (Framing.fragment ~mtu:1200 adu))
  in
  let d = frag_for 5 in
  let flood () =
    (* Fill the staging pool completely: occupancy 1.0 >= brown_hi. *)
    for _ = 1 to bufs do
      Server.ingest server ~src:4 ~src_port:2100 d
    done;
    Server.harvest server;
    Server.pump server
  in
  let states = [ Server.Normal; Server.Shedding; Server.Brownout ] in
  ignore states;
  Alcotest.(check int) "starts Normal" 0
    (Server.load_state_index (Server.load_state server));
  flood ();
  Alcotest.(check int) "one pressured harvest: still Normal (hysteresis)" 0
    (Server.load_state_index (Server.load_state server));
  flood ();
  Alcotest.(check int) "confirmed: one level up, Shedding" 1
    (Server.load_state_index (Server.load_state server));
  flood ();
  flood ();
  Alcotest.(check int) "confirmed again: Brownout" 2
    (Server.load_state_index (Server.load_state server));
  (* Brownout refuses new admissions, reason-coded. *)
  let shed_before =
    (Server.totals server).Server.drops.(Ingress.reason_index Ingress.Shed)
  in
  Server.ingest server ~src:4 ~src_port:2101 (frag_for 99);
  Server.pump server;
  let shed_after =
    (Server.totals server).Server.drops.(Ingress.reason_index Ingress.Shed)
  in
  Alcotest.(check int) "brownout sheds the new admission" (shed_before + 1)
    shed_after;
  Alcotest.(check bool) "new session refused" true
    (Server.locate server ~peer:4 ~peer_port:2101 ~stream:99 = None);
  (* Quiet harvests walk it back down, one level per confirmation. *)
  let quiet () =
    Server.harvest server;
    Server.pump server
  in
  quiet ();
  Alcotest.(check int) "still Brownout (hysteresis)" 2
    (Server.load_state_index (Server.load_state server));
  quiet ();
  Alcotest.(check int) "back to Shedding" 1
    (Server.load_state_index (Server.load_state server));
  quiet ();
  quiet ();
  Alcotest.(check int) "back to Normal" 0
    (Server.load_state_index (Server.load_state server));
  Server.stop server

(* --- control replies at drain: the control datagrams one scripted
   exchange puts on the wire, bytes and order --- *)
let control_exchange () =
  let engine = Engine.create () in
  let net =
    Topology.point_to_point ~engine ~rng:(Rng.create ~seed:11L)
      ~impair:Impair.none ~queue_limit:100_000 ~bandwidth_bps:1e9 ~delay:1e-4
      ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
  let server =
    Server.create ~sched:(Engine.sched engine) ~io:(Dgram.of_udp ub)
      ~registry:(Obs.Registry.create ())
      ~config:
        {
          Server.default_config with
          Server.shards = 3;
          harvest_interval = 0.;
          nack_holdoff = 0.01;
          nack_budget = 2;
          done_linger = 10.;
          idle_timeout = 100.;
        }
      ()
  in
  let wire = ref [] in
  List.iter
    (fun port ->
      Transport.Udp.bind ua ~port (fun ~src:_ ~src_port:_ buf ->
          wire := (port, Bytebuf.to_string buf) :: !wire))
    [ 5001; 5002; 5003 ];
  let settle () = Engine.run ~until:(Engine.now engine +. 0.001) engine in
  let send port d =
    ignore
      (Transport.Udp.send ua ~dst:2 ~dst_port:Server.default_config.Server.port
         ~src_port:port d)
  in
  let data port stream index =
    let adu =
      Adu.make (Adu.name ~stream ~index ())
        (Bytebuf.of_string (String.make 24 (Char.chr (65 + index))))
    in
    send port (Ctl.seal integrity (List.hd (Framing.fragment ~mtu:1200 adu)))
  in
  let close port stream total =
    send port (Ctl.seal integrity (Ctl.build (Ctl.write_close ~stream ~total)))
  in
  let turn () =
    settle ();
    Server.pump server;
    settle ()
  in
  let harvest_after dt =
    Engine.run ~until:(Engine.now engine +. dt) engine;
    Server.harvest server;
    settle ()
  in
  (* A completes; B, C and D leave gaps (C without a CLOSE). *)
  List.iter (data 5001 1) [ 0; 1; 2 ];
  close 5001 1 3;
  List.iter (data 5001 2) [ 0; 2 ];
  close 5001 2 4;
  data 5002 7 1;
  List.iter (data 5003 9) [ 0; 3 ];
  close 5003 9 5;
  turn ();
  (* A's DONE was lost: its re-CLOSE draws a second. *)
  close 5001 1 3;
  turn ();
  (* First repair round: NACKs for B, C and D. *)
  harvest_after 0.02;
  data 5001 2 1;
  turn ();
  (* Second round, then the budget runs out: B and D give up what is
     still missing and complete; C has no total yet. *)
  harvest_after 0.05;
  harvest_after 0.1;
  close 5002 7 2;
  close 5003 9 5;
  turn ();
  Server.stop server;
  List.rev !wire

(* The wire of the engine before replies were written at drain (it
   wrote and sealed each reply when it was queued): DONE, re-DONE, two
   NACK rounds across the shards, the local give-ups' DONEs, then the
   last re-DONE and DONE. *)
let expected_control =
  [
    (5001, "\xc3\x00\x01\x1b\xaf\xc1\x9d");
    (5001, "\xc3\x00\x01\x1b\xaf\xc1\x9d");
    (5003, "\xc1\x00\x09\x00\x00\x00\x01\x00\x03\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x04\xa8\x28\x3f\x86");
    (5001, "\xc1\x00\x02\x00\x00\x00\x01\x00\x02\x00\x00\x00\x01\x00\x00\x00\x03\x4a\x14\xaa\x3f");
    (5002, "\xc1\x00\x07\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\xdb\x5e\x17\x88");
    (5003, "\xc1\x00\x09\x00\x00\x00\x01\x00\x03\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x04\xa8\x28\x3f\x86");
    (5001, "\xc1\x00\x02\x00\x00\x00\x03\x00\x01\x00\x00\x00\x03\x02\xe8\xf0\xed");
    (5002, "\xc1\x00\x07\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\xdb\x5e\x17\x88");
    (5003, "\xc3\x00\x09\x15\x74\x49\xaf");
    (5001, "\xc3\x00\x02\x82\xa6\x90\x27");
    (5003, "\xc3\x00\x09\x15\x74\x49\xaf");
    (5002, "\xc3\x00\x07\xf2\xcc\x64\xa8");
  ]

let test_control_at_drain () =
  let got = control_exchange () in
  Alcotest.(check int) "control datagrams" (List.length expected_control)
    (List.length got);
  List.iteri
    (fun i ((p, b), (p', b')) ->
      Alcotest.(check int) (Printf.sprintf "reply %d port" i) p p';
      Alcotest.(check string) (Printf.sprintf "reply %d bytes" i) b b')
    (List.combine expected_control got)

(* --- the byzantine client against a netsim server: honest sessions
   complete exactly, every drop is reason-coded, pool budget flat --- *)
let test_hostile_mix () =
  let sessions = 400 and adus = 2 in
  let engine = Engine.create () in
  let rng = Rng.create ~seed:11L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:Impair.none
      ~queue_limit:1_000_000 ~bandwidth_bps:1e9 ~delay:1e-4 ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
  let registry = Obs.Registry.create () in
  let honest = ref 0 and honest_dg = ref 0 in
  let mu = Mutex.create () in
  let server =
    Server.create ~sched:(Engine.sched engine) ~io:(Dgram.of_udp ub) ~registry
      ~on_complete:(fun k ~delivered ~gone ->
        if k.Server.peer_port < 40_000 then begin
          Mutex.lock mu;
          incr honest;
          honest_dg := !honest_dg + delivered + gone;
          Mutex.unlock mu
        end)
      ~config:
        { Server.default_config with Server.shards = 4; harvest_interval = 0.02 }
      ()
  in
  let warm = Server.pool_allocated server in
  let gen =
    Loadgen.create ~io:(Dgram.of_udp ua)
      {
        Loadgen.default_config with
        Loadgen.sessions;
        adus_per_session = adus;
        payload_len = 64;
        server = 2;
        integrity;
      }
  in
  let hostile =
    Hostile.create ~io:(Dgram.of_udp ua)
      { Hostile.default_config with Hostile.server = 2; payload_len = 64 }
  in
  let rounds = ref 0 in
  while (not (Loadgen.finished gen)) && !rounds < 400 do
    incr rounds;
    let sent = Loadgen.step gen ~budget:256 in
    ignore (Hostile.step hostile ~budget:110);
    Engine.run ~until:(Engine.now engine +. 0.005) ~max_events:1_000_000 engine;
    Server.pump server;
    Engine.run ~until:(Engine.now engine +. 0.005) ~max_events:1_000_000 engine;
    if sent = 0 && not (Loadgen.finished gen) then begin
      Server.harvest server;
      Engine.run ~until:(Engine.now engine +. 0.05) ~max_events:1_000_000 engine;
      Server.pump server;
      Loadgen.nudge gen
    end
  done;
  Engine.run ~until:(Engine.now engine +. 0.01) ~max_events:1_000_000 engine;
  Server.pump server;
  Alcotest.(check bool) "honest generator finished" true (Loadgen.finished gen);
  Alcotest.(check int) "every honest session completed exactly once" sessions
    !honest;
  Alcotest.(check int) "honest delivered+gone = sent" (sessions * adus)
    !honest_dg;
  let totals = Server.totals server in
  let hs = Hostile.stats hostile in
  Alcotest.(check bool) "at least 30% byzantine" true
    (float_of_int hs.Hostile.sent
    >= 0.3 *. float_of_int (hs.Hostile.sent + (Loadgen.stats gen).Loadgen.sent_datagrams));
  Alcotest.(check int) "arrivals conserve under attack" totals.Server.arrivals
    (totals.Server.accepted + totals.Server.dropped);
  let malformed_drops = Server.malformed_drops totals in
  let backpressure =
    totals.Server.drops.(Ingress.reason_index Ingress.Backpressure)
  in
  Alcotest.(check bool)
    (Printf.sprintf "injected malformed (%d) within [%d, %d]"
       hs.Hostile.malformed malformed_drops (malformed_drops + backpressure))
    true
    (malformed_drops <= hs.Hostile.malformed
    && hs.Hostile.malformed <= malformed_drops + backpressure);
  Alcotest.(check int) "zero dispatch errors" 0
    totals.Server.drops.(Ingress.reason_index Ingress.Dispatch_error);
  Alcotest.(check int) "pool budget never grows past the pre-warm" warm
    (Server.pool_allocated server);
  (* Per-shard drop counters sum to the engine totals, per reason. *)
  Array.iteri
    (fun i r ->
      let acc = ref 0 in
      for sid = 0 to Server.shard_count server - 1 do
        acc :=
          !acc
          + registry_counter registry
              (Printf.sprintf "serve.shard%d.drop.%s" sid
                 (Ingress.reason_name r))
      done;
      Alcotest.(check int)
        (Printf.sprintf "drop.%s sums across shards" (Ingress.reason_name r))
        totals.Server.drops.(i) !acc)
    Ingress.all_reasons;
  Server.stop server

(* --- lazy stage 2: views over the shard scratch ---

   Drive the same hand-built load through an engine whose stage 2 is the
   schema-validate pass. With [S_int] every Loadgen payload validates
   (any >= 4 bytes parse as an int with trailing bytes), so the engine
   surfaces exactly one view per delivered ADU and [on_view] can read
   the leading word lazily. With [S_bool] no Loadgen pattern payload can
   validate (consecutive payload bytes differ by 7, so the first word is
   never 0 or 1): all deliveries land in [view_invalid] — and the
   sessions still complete, because a hostile-to-the-schema payload must
   not wedge the stream. *)
let run_lazy_stage2 ~schema ~on_view =
  let sessions = 40 and adus = 3 in
  let io, sent = capture_io () in
  let gen =
    Loadgen.create ~io
      {
        Loadgen.default_config with
        Loadgen.sessions;
        adus_per_session = adus;
        payload_len = 48;
        streams_per_port = 16;
        server = 1;
        integrity;
      }
  in
  while Loadgen.step gen ~budget:1000 > 0 do
    ()
  done;
  let engine = Engine.create () in
  let registry = Obs.Registry.create () in
  let server =
    Server.create ~sched:(Engine.sched engine) ~registry ~on_view
      ~config:
        {
          Server.default_config with
          Server.shards = 3;
          harvest_interval = 0.;
          stage2_schema = Some schema;
        }
      ()
  in
  List.iter
    (fun (src_port, buf) -> Server.ingest server ~src:9 ~src_port buf)
    (List.rev !sent);
  Server.pump server;
  let totals = Server.totals server in
  Alcotest.(check int) "all ADUs delivered" (sessions * adus)
    totals.Server.delivered;
  Alcotest.(check int) "every session completed" sessions totals.Server.dones;
  Alcotest.(check int) "no fallback allocations" 0
    totals.Server.fallback_allocs;
  Server.stop server;
  totals

let test_lazy_stage2_views () =
  let seen = ref 0 in
  let totals =
    run_lazy_stage2 ~schema:Wire.Xdr.S_int
      ~on_view:(fun _key view ->
        (* Lazy read over the borrowed scratch: just touch the word. *)
        ignore (Wire.View.get_int view);
        incr seen)
  in
  Alcotest.(check int) "one view per delivered ADU" totals.Server.delivered
    totals.Server.views;
  Alcotest.(check int) "hook fired per view" totals.Server.views !seen;
  Alcotest.(check int) "none invalid" 0 totals.Server.view_invalid

let test_lazy_stage2_invalid_total () =
  let totals =
    run_lazy_stage2 ~schema:Wire.Xdr.S_bool
      ~on_view:(fun _ _ -> Alcotest.fail "no payload should validate as bool")
  in
  Alcotest.(check int) "every delivery invalid" totals.Server.delivered
    totals.Server.view_invalid;
  Alcotest.(check int) "no views" 0 totals.Server.views

(* --- a CLOSE total closes the stream above it: no delivery, no ahead
   entry, and the datagram counted as [drop.window] --- *)
let test_nothing_beyond_total () =
  let engine = Engine.create () in
  let delivered = ref [] in
  let server =
    Server.create ~sched:(Engine.sched engine)
      ~registry:(Obs.Registry.create ())
      ~on_adu:(fun _ adu -> delivered := adu.Adu.name.Adu.index :: !delivered)
      ~config:{ Server.default_config with Server.harvest_interval = 0. }
      ()
  in
  let stream = 5 in
  let send dgram =
    Server.ingest server ~src:3 ~src_port:2000 (Ctl.seal integrity dgram);
    Server.pump server
  in
  let adu i =
    match
      Framing.fragment ~mtu:1400
        (Adu.make (Adu.name ~stream ~index:i ()) (Bytebuf.of_string "payload"))
    with
    | [ f ] -> send f
    | _ -> Alcotest.fail "expected a single fragment"
  in
  send (Ctl.build (Ctl.write_close ~stream ~total:4));
  adu 0;
  adu 10;
  send (Ctl.build (fun b -> Ctl.write_gone b ~stream [ 11 ]));
  for i = 1 to 3 do
    adu i
  done;
  adu 10;
  Alcotest.(check (list int)) "only indices below the total" [ 0; 1; 2; 3 ]
    (List.sort compare !delivered);
  Alcotest.(check int) "beyond-total fragments dropped as window" 2
    (Server.drop_count server Ingress.Window);
  (match Server.session_view server ~peer:3 ~peer_port:2000 ~stream with
  | Some v ->
      Alcotest.(check bool) "completed" true v.Server.v_completed;
      Alcotest.(check int) "nothing gone" 0 v.Server.v_gone;
      Alcotest.(check int) "no ahead entry left" 0 v.Server.v_ahead_load
  | None -> Alcotest.fail "session missing");
  Alcotest.(check int) "one DONE" 1 (Server.totals server).Server.dones;
  Server.stop server

let () =
  Alcotest.run "serve"
    [
      ("demux", [ qcheck demux_matches_oracle; qcheck demux_matches_int64 ]);
      ( "control",
        [
          Alcotest.test_case "replies written at drain" `Quick
            test_control_at_drain;
        ] );
      ( "placement",
        [
          Alcotest.test_case "sessions live where the demux says" `Quick
            test_ingest_placement;
        ] );
      ( "stress",
        [
          Alcotest.test_case "dispatch words per datagram" `Quick
            test_dispatch_words;
          Alcotest.test_case "multi-domain pump, counters and budget" `Quick
            test_multidomain_stress;
        ] );
      ( "admission",
        [
          Alcotest.test_case "capacity eviction" `Quick test_admission_eviction;
          Alcotest.test_case "nothing beyond the total" `Quick
            test_nothing_beyond_total;
        ] );
      ( "ingress",
        [
          Alcotest.test_case "stage-0 verdicts" `Quick test_ingress_verdicts;
          Alcotest.test_case "token-bucket policing" `Quick test_police;
        ] );
      ( "overload",
        [
          Alcotest.test_case "eviction releases partials" `Quick
            test_eviction_releases_partials;
          Alcotest.test_case "load-state ladder hysteresis" `Quick
            test_load_state_ladder;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "byzantine mix over netsim" `Quick
            test_hostile_mix;
        ] );
      ( "lazy stage 2",
        [
          Alcotest.test_case "views per delivered ADU" `Quick
            test_lazy_stage2_views;
          Alcotest.test_case "invalid payloads are total" `Quick
            test_lazy_stage2_invalid_total;
        ] );
    ]
