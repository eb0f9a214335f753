(* stream-sealed: one [Alf_transport] stream over real loopback UDP.

   The sender marshals multi-KB XDR records with [send_value] through the
   fused marshal + ChaCha20/Poly1305 + CRC plan; each record leaves as
   several 1472-byte fragments. The receiver is [receiver_io ~secure]
   (integrity trailer, reassembly, record open), and its delivery runs
   [Ilp.run_view] with the compiled schema in place over the borrowed
   payload, as [receiver_views] does. Sender and receiver each own an
   [Rt.Loop] and an [Rt.Udp_link].

   One round is one stream of [records] records, closed by CLOSE/DONE.
   It is a closed loop: [window] records are handed to [send_value], the
   sender's loop runs until all their fragments are on the wire, and the
   receiver's loop runs until all of them are delivered. *)

open Bufkit
open Alf_core

type cfg = {
  records : int;  (* per round *)
  seed : int;
}

(* Records in flight per closed-loop turn: at most 32 fragments, far
   below what a socket buffer holds. *)
let window = 8

(* Distinct records, cycled. *)
let values = 16

let schema =
  Wire.Xdr.(
    S_struct [ S_int; S_hyper; S_string; S_array S_int; S_opaque ])

(* Record [i] is 3.5-5 KB, three or four fragments. Its field sizes
   depend on [i] only, so every seed moves the same bytes; the seed picks
   the contents. *)
let make_value rng i =
  let ri bound = Random.State.int rng bound in
  let label =
    String.init (16 + (i * 7 mod 32)) (fun _ -> Char.chr (Char.code 'a' + ri 26))
  in
  let samples =
    Array.init (400 + (i * 37 mod 300)) (fun _ -> Random.State.bits rng - 0x2000_0000)
  in
  let blob = String.init (1000 + (i * 97 mod 1500)) (fun _ -> Char.chr (ri 256)) in
  Wire.Value.List
    [
      Wire.Value.Int i;
      Wire.Value.Int64 (Random.State.int64 rng Int64.max_int);
      Wire.Value.Utf8 label;
      Wire.Value.int_array samples;
      Wire.Value.Octets blob;
    ]

let receiver_port = 9000
let sender_port = 9001
let receiver_addr = 1_000_001
let sender_addr = 2_000_001
let reasm_buf = 8192

type st = {
  cfg : cfg;
  key : int64;  (* record-layer base key *)
  values : Wire.Value.t array;
  expect : Bytes.t array;  (* each value's XDR encoding *)
  names : Adu.name array;
  sent_ns : int array;
  delivered : Bytes.t;
  mutable calls : int;
  mutable intact : int;
  mutable redelivered : int;
  mutable mismatched : int;
  mutable view_invalid : int;
}

let make_st cfg =
  let rng = Random.State.make [| cfg.seed; 0x5eed |] in
  let values = Array.init values (make_value rng) in
  let expect =
    Array.map (fun v -> Bytebuf.to_bytes (Wire.Xdr.encode schema v)) values
  in
  Array.iter
    (fun e ->
      if Bytes.length e + Adu.header_size + Secure.Record.overhead > reasm_buf
      then invalid_arg "stream-sealed: record larger than the reassembly buffer")
    expect;
  {
    cfg;
    key = Random.State.int64 rng Int64.max_int;
    values;
    expect;
    names = Array.init cfg.records (fun index -> Adu.name ~stream:1 ~index ());
    sent_ns = Array.make cfg.records (-1);
    delivered = Bytes.make cfg.records '\000';
    calls = 0;
    intact = 0;
    redelivered = 0;
    mismatched = 0;
    view_invalid = 0;
  }

let reset st =
  Array.fill st.sent_ns 0 st.cfg.records (-1);
  Bytes.fill st.delivered 0 st.cfg.records '\000';
  st.calls <- 0;
  st.intact <- 0;
  st.redelivered <- 0;
  st.mismatched <- 0;
  st.view_invalid <- 0

(* Byte-for-byte, unchecked once the lengths are known to cover [len]. *)
let rec bytes_match payload exp ~len j =
  j >= len
  || Bytebuf.unsafe_get payload j = Bytes.unsafe_get exp j
     && bytes_match payload exp ~len (j + 1)

let matches payload exp ~len =
  Bytebuf.length payload >= len
  && Bytes.length exp >= len
  && bytes_match payload exp ~len 0

(* Stage 2 and the application, inside the receiver's stage-1 handler:
   the record is already opened; validate it against the compiled
   schema in place, then compare it with the sender's encoding. *)
let deliver st prog (adu : Adu.t) =
  let t = Clock.now_ns () in
  let index = adu.Adu.name.Adu.index in
  Span.enter Span.rx_stage2 ~session:0 ~index;
  let r = Ilp.run_view ~dst:adu.Adu.payload [] prog adu.Adu.payload in
  Span.leave ();
  Span.enter Span.app_deliver ~session:0 ~index;
  st.calls <- st.calls + 1;
  (match r.Ilp.view with
  | Error _ -> st.view_invalid <- st.view_invalid + 1
  | Ok (_, len) ->
      if index < 0 || index >= st.cfg.records then st.mismatched <- st.mismatched + 1
      else
        let exp = st.expect.(index mod values) in
        if
          len <> Bytes.length exp
          || (not (matches adu.Adu.payload exp ~len))
          || (!Common.inject_mismatch && index = 0)
        then
          st.mismatched <- st.mismatched + 1
        else if Bytes.unsafe_get st.delivered index <> '\000' then
          st.redelivered <- st.redelivered + 1
        else begin
          Bytes.unsafe_set st.delivered index '\001';
          st.intact <- st.intact + 1;
          Common.add_latency (t - st.sent_ns.(index))
        end);
  Span.leave ()

let link loop =
  Rt.Udp_link.create ~loop ~pool:(Pool.create ~capacity:128 ~buf_size:2048 ())
    ~buf_size:2048 ()

let round st ~traced =
  let cfg = st.cfg in
  let r = Common.new_round ~traced in
  reset st;
  let t_setup = Clock.now_ns () in
  let prog = Wire.Schema.prog_of_xdr schema in
  let sources = Array.map (fun v -> Ilp.Marshal_prog (prog, v)) st.values in
  let loop_r = Rt.Loop.create () in
  let link_r = link loop_r in
  let sched_r = Rt.Loop.sched loop_r in
  let receiver =
    Alf_transport.receiver_io
      ~sched:(if traced then Common.timer_sched Span.rx_timer sched_r else sched_r)
      ~io:
        (Common.counting_io r ~send_span:Span.rt_send ~handler_span:Span.rx_stage1
           (Dgram.of_rt link_r))
      ~port:receiver_port ~stream:1
      ~secure:(Secure.Record.of_int64 st.key)
      ~reasm_pool:(Pool.create ~buf_size:reasm_buf ())
      ~deliver:(deliver st prog) ()
  in
  let loop_s = Rt.Loop.create () in
  let link_s = link loop_s in
  let sched_s = Rt.Loop.sched loop_s in
  Rt.Udp_link.set_peer link_s ~addr:receiver_addr ~port:receiver_port
    (Rt.Udp_link.local_sockaddr link_r ~port:receiver_port);
  let sender =
    Alf_transport.sender_io
      ~sched:(if traced then Common.timer_sched Span.tx_timer sched_s else sched_s)
      ~io:(Common.counting_io r ~send_span:Span.rt_send (Dgram.of_rt link_s))
      ~peer:receiver_addr ~peer_port:receiver_port ~port:sender_port ~stream:1
      ~policy:Recovery.No_recovery
      ~secure:(Secure.Record.of_int64 st.key)
      ~tx_pool:(Pool.create ~buf_size:2048 ())
      ()
  in
  Rt.Udp_link.set_peer link_r ~addr:sender_addr ~port:sender_port
    (Rt.Udp_link.local_sockaddr link_s ~port:sender_port);
  let ss = Rt.Udp_link.stats link_s and sr = Rt.Udp_link.stats link_r in
  let txs = Alf_transport.sender_stats sender in
  let target = ref 0 in
  let on_wire () = ss.Rt.Udp_link.datagrams_sent >= txs.Alf_transport.frags_sent in
  let close_out () =
    ss.Rt.Udp_link.datagrams_sent > txs.Alf_transport.frags_sent
  in
  let all_delivered () = st.calls >= !target in
  let receiver_done () =
    Alf_transport.complete receiver && sr.Rt.Udp_link.datagrams_sent > 0
  in
  let sender_done () = Alf_transport.finished sender in
  let poll loop pred what =
    Span.enter Span.rt_poll ~session:(-1) ~index:(-1);
    let ok = Rt.Loop.run_until loop ~timeout:10.0 pred in
    Span.leave ();
    if not ok then
      Common.fail r "stalled waiting for %s (sent %d/%d, received %d/%d)" what
        ss.Rt.Udp_link.datagrams_sent sr.Rt.Udp_link.datagrams_sent
        sr.Rt.Udp_link.datagrams_received ss.Rt.Udp_link.datagrams_received;
    ok
  in
  r.setup_ns <- Clock.now_ns () - t_setup;
  let m = Common.mark_start () in
  Span.on := traced;
  let i = ref 0 and ok = ref true in
  while !ok && !i < cfg.records do
    let k = min window (cfg.records - !i) in
    Span.enter Span.gen_step ~session:(-1) ~index:(-1);
    for j = !i to !i + k - 1 do
      st.sent_ns.(j) <- Clock.now_ns ();
      Span.enter Span.tx_send_value ~session:0 ~index:j;
      Alf_transport.send_value sender ~name:st.names.(j)
        sources.(j mod values);
      Span.leave ()
    done;
    Span.leave ();
    i := !i + k;
    target := !i;
    ok := poll loop_s on_wire "the fragments to leave" && poll loop_r all_delivered "delivery";
    Calib.tick ()
  done;
  if !ok then begin
    Alf_transport.close sender;
    ok := poll loop_s close_out "CLOSE" && poll loop_r receiver_done "DONE";
    if !ok then ignore (poll loop_s sender_done "the sender to finish")
  end;
  Span.on := false;
  Common.mark_stop r m;
  let open Common in
  let rxs = Alf_transport.receiver_stats receiver in
  r.attempted <- cfg.records;
  r.intact <- st.intact;
  check r (st.mismatched = 0) "%d records differ from the sender's encoding"
    st.mismatched;
  check r (st.view_invalid = 0) "%d records failed schema validation"
    st.view_invalid;
  check r (st.redelivered = 0) "%d records delivered twice" st.redelivered;
  check r (Alf_transport.complete receiver) "receiver incomplete";
  check r (Alf_transport.finished sender) "sender unfinished";
  check r
    (ss.Rt.Udp_link.datagrams_sent = sr.Rt.Udp_link.datagrams_received
    && sr.Rt.Udp_link.datagrams_sent = ss.Rt.Udp_link.datagrams_received)
    "datagrams sent <> received (sender %d->%d, receiver %d->%d)"
    ss.Rt.Udp_link.datagrams_sent sr.Rt.Udp_link.datagrams_received
    sr.Rt.Udp_link.datagrams_sent ss.Rt.Udp_link.datagrams_received;
  check r
    (ss.Rt.Udp_link.send_dropped + sr.Rt.Udp_link.send_dropped = 0)
    "%d sends refused by the kernel"
    (ss.Rt.Udp_link.send_dropped + sr.Rt.Udp_link.send_dropped);
  check r
    (rxs.Alf_transport.adus_auth_dropped + rxs.Alf_transport.frags_corrupt_dropped = 0)
    "receiver dropped %d records (auth) and %d datagrams (integrity)"
    rxs.Alf_transport.adus_auth_dropped rxs.Alf_transport.frags_corrupt_dropped;
  seti r "tx.adus" txs.Alf_transport.adus_sent;
  seti r "tx.frags" txs.Alf_transport.frags_sent;
  seti r "rx.auth_dropped" rxs.Alf_transport.adus_auth_dropped;
  seti r "rx.frags_corrupt_dropped" rxs.Alf_transport.frags_corrupt_dropped;
  seti r "rx.duplicates" rxs.Alf_transport.duplicates;
  seti r "rx.nacks_sent" rxs.Alf_transport.nacks_sent;
  seti r "rx.view_invalid" st.view_invalid;
  seti r "gen.dgrams" txs.Alf_transport.frags_sent;
  seti r "gen.data_dgrams" txs.Alf_transport.frags_sent;
  seti r "rt.sends" (ss.Rt.Udp_link.datagrams_sent + sr.Rt.Udp_link.datagrams_sent);
  seti r "rt.received"
    (ss.Rt.Udp_link.datagrams_received + sr.Rt.Udp_link.datagrams_received);
  seti r "rt.recv_batches"
    (ss.Rt.Udp_link.recv_batches + sr.Rt.Udp_link.recv_batches);
  seti r "rt.recv_pool_misses"
    (ss.Rt.Udp_link.recv_pool_misses + sr.Rt.Udp_link.recv_pool_misses);
  Rt.Udp_link.close link_s;
  Rt.Udp_link.close link_r;
  r
