open Bufkit
open Netsim
open Transport

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- Seq32 --- *)

let test_seq32_basics () =
  Alcotest.(check int) "of/to" 5 (Seq32.to_int (Seq32.of_int 5));
  Alcotest.(check int) "masking" 1 (Seq32.to_int (Seq32.of_int 0x100000001));
  Alcotest.(check int) "add wraps" 1
    (Seq32.to_int (Seq32.add (Seq32.of_int 0xFFFFFFFE) 3))

let test_seq32_diff_wrap () =
  let a = Seq32.of_int 5 and b = Seq32.of_int 0xFFFFFFFB in
  Alcotest.(check int) "forward across wrap" 10 (Seq32.diff a b);
  Alcotest.(check int) "backward across wrap" (-10) (Seq32.diff b a);
  Alcotest.(check bool) "lt across wrap" true (Seq32.lt b a)

let prop_seq32_diff_add =
  QCheck.Test.make ~name:"seq32: diff(add a n, a) = n" ~count:500
    QCheck.(pair (int_bound 0xFFFFFFFF) (int_range (-1000000) 1000000))
    (fun (a0, n) ->
      let a = Seq32.of_int a0 in
      Seq32.diff (Seq32.add a n) a = n)

let prop_seq32_unwrap =
  QCheck.Test.make ~name:"seq32: unwrap recovers absolute" ~count:500
    QCheck.(pair (int_bound 0x3FFFFFFFFFFF) (int_range (-1000000) 1000000))
    (fun (abs0, delta) ->
      let abs = abs0 + 0x100000000 in
      (* keep it positive and past a wrap *)
      let near = abs + delta in
      Seq32.unwrap ~near (Seq32.of_int abs) = abs)

let test_seq32_between () =
  let lo = Seq32.of_int 0xFFFFFFF0 and hi = Seq32.of_int 0x10 in
  Alcotest.(check bool) "inside across wrap" true
    (Seq32.between (Seq32.of_int 5) ~lo ~hi);
  Alcotest.(check bool) "lo inclusive" true (Seq32.between lo ~lo ~hi);
  Alcotest.(check bool) "hi exclusive" false (Seq32.between hi ~lo ~hi);
  Alcotest.(check bool) "outside" false (Seq32.between (Seq32.of_int 0x20) ~lo ~hi)

(* --- Rto --- *)

let test_rto_initial () =
  let r = Rt.Rto.create () in
  Alcotest.(check (float 1e-9)) "initial" 1.0 (Rt.Rto.rto r);
  Alcotest.(check bool) "no srtt" true (Rt.Rto.srtt r = None)

let test_rto_sampling () =
  let r = Rt.Rto.create () in
  Rt.Rto.sample r 0.1;
  (match Rt.Rto.srtt r with
  | Some v -> Alcotest.(check (float 1e-9)) "first sample" 0.1 v
  | None -> Alcotest.fail "srtt unset");
  Alcotest.(check (float 1e-9)) "rto = srtt + 4var" 0.3 (Rt.Rto.rto r);
  (* Steady samples shrink the variance term. *)
  for _ = 1 to 50 do
    Rt.Rto.sample r 0.1
  done;
  Alcotest.(check bool) "converges" true (Rt.Rto.rto r < 0.15)

let test_rto_backoff () =
  let r = Rt.Rto.create () in
  Rt.Rto.sample r 0.1;
  let base = Rt.Rto.rto r in
  Rt.Rto.backoff r;
  Alcotest.(check (float 1e-9)) "doubled" (base *. 2.0) (Rt.Rto.rto r);
  Rt.Rto.backoff r;
  Alcotest.(check (float 1e-9)) "doubled again" (base *. 4.0) (Rt.Rto.rto r);
  Rt.Rto.sample r 0.1;
  Alcotest.(check bool) "sample resets backoff" true (Rt.Rto.rto r < base *. 1.5)

let test_rto_clamps () =
  let r = Rt.Rto.create ~min_rto:0.2 ~max_rto:1.0 () in
  Rt.Rto.sample r 0.01;
  Alcotest.(check (float 1e-9)) "floor" 0.2 (Rt.Rto.rto r);
  (* Backoff is capped at 2^6; 0.03 * 64 = 1.92 exceeds the ceiling. *)
  Rt.Rto.sample r 0.01;
  for _ = 1 to 10 do
    Rt.Rto.backoff r
  done;
  Alcotest.(check (float 1e-9)) "ceiling" 1.0 (Rt.Rto.rto r)

(* Karn's algorithm: an RTT measured on a retransmitted segment is
   ambiguous (the ACK may answer either transmission), so it must
   neither feed the estimator nor cancel an exponential backoff. *)
let test_rto_karn_ignores_retransmit_samples () =
  let r = Rt.Rto.create () in
  Rt.Rto.sample r 0.1;
  let settled = Rt.Rto.rto r in
  (* A wildly wrong ambiguous sample must not move the estimate. *)
  Rt.Rto.sample ~retransmitted:true r 5.0;
  Alcotest.(check (float 1e-9)) "estimator unmoved" settled (Rt.Rto.rto r);
  Rt.Rto.sample ~retransmitted:true r 0.0001;
  Alcotest.(check (float 1e-9)) "still unmoved" settled (Rt.Rto.rto r)

let test_rto_karn_backoff_survives () =
  let r = Rt.Rto.create () in
  Rt.Rto.sample r 0.1;
  let base = Rt.Rto.rto r in
  Rt.Rto.backoff r;
  Rt.Rto.backoff r;
  (* The ambiguous sample arrives while we are backing off: the shift
     must survive it... *)
  Rt.Rto.sample ~retransmitted:true r 0.1;
  Alcotest.(check (float 1e-9)) "backoff survives ambiguous sample"
    (base *. 4.0) (Rt.Rto.rto r);
  (* ...and a clean sample afterwards resets it as usual. *)
  Rt.Rto.sample r 0.1;
  Alcotest.(check bool) "clean sample resets" true (Rt.Rto.rto r < base *. 1.5)

(* --- Reorder --- *)

let buf = Bytebuf.of_string
let strings chunks = List.map Bytebuf.to_string chunks

let test_reorder_in_order () =
  let r = Reorder.create ~capacity:100 ~initial_offset:0 in
  Alcotest.(check (list string)) "first" [ "ab" ] (strings (Reorder.offer r ~off:0 (buf "ab")));
  Alcotest.(check (list string)) "second" [ "cd" ] (strings (Reorder.offer r ~off:2 (buf "cd")));
  Alcotest.(check int) "rcv_nxt" 4 (Reorder.rcv_nxt r)

let test_reorder_hole_holds () =
  let r = Reorder.create ~capacity:100 ~initial_offset:0 in
  Alcotest.(check (list string)) "held" [] (strings (Reorder.offer r ~off:2 (buf "cd")));
  Alcotest.(check int) "buffered" 2 (Reorder.buffered_bytes r);
  Alcotest.(check (list string)) "released together" [ "ab"; "cd" ]
    (strings (Reorder.offer r ~off:0 (buf "ab")));
  Alcotest.(check int) "drained" 0 (Reorder.buffered_bytes r)

let test_reorder_duplicates_trimmed () =
  let r = Reorder.create ~capacity:100 ~initial_offset:0 in
  ignore (Reorder.offer r ~off:0 (buf "abcd"));
  Alcotest.(check (list string)) "duplicate dropped" []
    (strings (Reorder.offer r ~off:0 (buf "abcd")));
  Alcotest.(check int) "dup counted" 4 (Reorder.duplicates r);
  Alcotest.(check (list string)) "partial overlap" [ "ef" ]
    (strings (Reorder.offer r ~off:2 (buf "cdef")))

let test_reorder_overlap_with_buffered () =
  let r = Reorder.create ~capacity:100 ~initial_offset:0 in
  ignore (Reorder.offer r ~off:4 (buf "ef"));
  (* New span overlapping the buffered one on both sides. *)
  ignore (Reorder.offer r ~off:2 (buf "cdEFgh"));
  Alcotest.(check int) "buffered without double count" 6 (Reorder.buffered_bytes r);
  let released = strings (Reorder.offer r ~off:0 (buf "ab")) in
  (* Buffered copy wins where it was there first. *)
  Alcotest.(check string) "assembled" "abcdefgh" (String.concat "" released)

let test_reorder_capacity () =
  let r = Reorder.create ~capacity:4 ~initial_offset:0 in
  ignore (Reorder.offer r ~off:2 (buf "cdefgh"));
  Alcotest.(check bool) "clipped to capacity" true (Reorder.buffered_bytes r <= 4);
  Alcotest.(check int) "window" (4 - Reorder.buffered_bytes r) (Reorder.window r)

let test_reorder_spans () =
  let r = Reorder.create ~capacity:100 ~initial_offset:0 in
  ignore (Reorder.offer r ~off:2 (buf "c"));
  ignore (Reorder.offer r ~off:6 (buf "gh"));
  Alcotest.(check (list (pair int int))) "spans" [ (2, 1); (6, 2) ]
    (Reorder.buffered_spans r)

let test_reorder_initial_offset () =
  let r = Reorder.create ~capacity:10 ~initial_offset:1000 in
  Alcotest.(check (list string)) "aligned start" [ "xy" ]
    (strings (Reorder.offer r ~off:1000 (buf "xy")));
  Alcotest.(check int) "next" 1002 (Reorder.rcv_nxt r)

let test_reorder_seq32_wraparound () =
  (* The contract documented in reorder.mli: endpoints keep absolute
     offsets and convert wire values with [Seq32.unwrap ~near:rcv_nxt]
     before offering. Drive it straight across the 2^32 boundary. *)
  let start = 0x100000000 - 6 in
  let r = Reorder.create ~capacity:100 ~initial_offset:start in
  let offer_wire wire_seq data =
    let off = Seq32.unwrap ~near:(Reorder.rcv_nxt r) (Seq32.of_int wire_seq) in
    strings (Reorder.offer r ~off data)
  in
  (* A hole spanning the boundary: the post-wrap segment (wire seq 0)
     arrives first and must park, not misfile. *)
  Alcotest.(check (list string)) "post-wrap held" [] (offer_wire 0 (buf "ghij"));
  Alcotest.(check int) "parked" 4 (Reorder.buffered_bytes r);
  Alcotest.(check (list string)) "boundary fill releases both"
    [ "abcdef"; "ghij" ]
    (offer_wire start (buf "abcdef"));
  Alcotest.(check int) "rcv_nxt crossed 2^32" (0x100000000 + 4)
    (Reorder.rcv_nxt r);
  (* A stale pre-wrap retransmit now unwraps to an offset below rcv_nxt
     (not 4 GiB ahead) and is trimmed as duplicate. *)
  Alcotest.(check (list string)) "stale pre-wrap dup trimmed" []
    (offer_wire start (buf "abcdef"));
  Alcotest.(check int) "dup bytes" 6 (Reorder.duplicates r);
  Alcotest.(check int) "nothing parked" 0 (Reorder.buffered_bytes r)

let test_reorder_unwrap_negative_trimmed () =
  (* Near-zero [near] can unwrap a stale wire value to a negative offset;
     offer must treat it as ancient duplicate, never as future data. *)
  let r = Reorder.create ~capacity:100 ~initial_offset:2 in
  let off = Seq32.unwrap ~near:(Reorder.rcv_nxt r) (Seq32.of_int 0xFFFFFFFE) in
  Alcotest.(check int) "unwrapped below zero" (-2) off;
  Alcotest.(check (list string)) "trimmed" [] (strings (Reorder.offer r ~off (buf "xy")));
  Alcotest.(check int) "rcv_nxt untouched" 2 (Reorder.rcv_nxt r);
  Alcotest.(check int) "nothing parked" 0 (Reorder.buffered_bytes r)

(* Model check: random segments of a known stream always reassemble to a
   prefix of the stream, never duplicated or reordered. *)
let prop_reorder_stream_model =
  QCheck.Test.make ~name:"reorder: delivers exact stream prefix" ~count:200
    QCheck.(small_list (pair (int_bound 40) (int_range 1 8)))
    (fun segs ->
      let stream = String.init 64 (fun i -> Char.chr (65 + (i mod 26))) in
      let r = Reorder.create ~capacity:1000 ~initial_offset:0 in
      let delivered = Buffer.create 64 in
      List.iter
        (fun (off, len) ->
          let len = min len (String.length stream - off) in
          if len > 0 then
            List.iter
              (fun c -> Buffer.add_string delivered (Bytebuf.to_string c))
              (Reorder.offer r ~off (buf (String.sub stream off len))))
        segs;
      let out = Buffer.contents delivered in
      String.length out <= String.length stream
      && String.sub stream 0 (String.length out) = out
      && Reorder.rcv_nxt r = String.length out)

(* --- Segment --- *)

let test_segment_round_trip () =
  let seg =
    {
      Segment.seq = Seq32.of_int 12345;
      ack = Seq32.of_int 999;
      flags = { Segment.ack = true; fin = false; syn = true };
      wnd = 65535;
      payload = buf "payload!";
    }
  in
  match Segment.decode (Segment.encode seg) with
  | Ok got ->
      Alcotest.(check int) "seq" 12345 (Seq32.to_int got.Segment.seq);
      Alcotest.(check int) "ack" 999 (Seq32.to_int got.Segment.ack);
      Alcotest.(check bool) "ack flag" true got.Segment.flags.Segment.ack;
      Alcotest.(check bool) "syn flag" true got.Segment.flags.Segment.syn;
      Alcotest.(check int) "wnd" 65535 got.Segment.wnd;
      Alcotest.(check string) "payload" "payload!" (Bytebuf.to_string got.Segment.payload)
  | Error e -> Alcotest.fail (Format.asprintf "decode: %a" Segment.pp_error e)

let prop_segment_round_trip =
  QCheck.Test.make ~name:"segment: encode/decode round trip" ~count:300
    QCheck.(
      quad (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF)
        (string_of_size Gen.(0 -- 200)))
    (fun (seq, ack, wnd, payload) ->
      let seg =
        {
          Segment.seq = Seq32.of_int seq;
          ack = Seq32.of_int ack;
          flags = Segment.no_flags;
          wnd;
          payload = buf payload;
        }
      in
      match Segment.decode (Segment.encode seg) with
      | Ok got ->
          Seq32.to_int got.Segment.seq = seq land 0xFFFFFFFF
          && Seq32.to_int got.Segment.ack = ack land 0xFFFFFFFF
          && got.Segment.wnd = wnd
          && Bytebuf.to_string got.Segment.payload = payload
      | Error _ -> false)

let prop_segment_corruption_detected =
  QCheck.Test.make ~name:"segment: any single byte flip detected" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (pair small_nat (int_range 1 255)))
    (fun (payload, (pos, flip)) ->
      let seg =
        {
          Segment.seq = Seq32.of_int 1;
          ack = Seq32.of_int 2;
          flags = Segment.no_flags;
          wnd = 100;
          payload = buf payload;
        }
      in
      let wire = Segment.encode seg in
      let i = pos mod Bytebuf.length wire in
      Bytebuf.set_uint8 wire i (Bytebuf.get_uint8 wire i lxor flip);
      match Segment.decode wire with Ok _ -> false | Error _ -> true)

let test_segment_too_short () =
  match Segment.decode (buf "short") with
  | Error Segment.Too_short -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Too_short"

(* --- TCP end-to-end --- *)

type tcp_world = {
  engine : Engine.t;
  sender : Tcp.t;
  receiver : Tcp.t;
  received : Buffer.t;
  closed : bool ref;
}

let make_world ?(loss = 0.0) ?(corrupt = 0.0) ?(reorder = 0.0) ?(jitter = 0.0)
    ?(duplicate = 0.0) ?(bandwidth = 8e6) ?(delay = 0.005)
    ?(config = Tcp.default_config) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:2024L in
  let impair = Impair.make ~loss ~corrupt ~reorder ~jitter ~duplicate () in
  let net =
    Topology.point_to_point ~engine ~rng ~impair ~queue_limit:256
      ~bandwidth_bps:bandwidth ~delay ~a:1 ~b:2 ()
  in
  let sender = Tcp.create ~engine ~node:net.Topology.a ~peer:2 ~config () in
  let receiver = Tcp.create ~engine ~node:net.Topology.b ~peer:1 ~config () in
  let received = Buffer.create 1024 in
  let closed = ref false in
  Tcp.on_deliver receiver (fun chunk -> Buffer.add_string received (Bytebuf.to_string chunk));
  Tcp.on_close receiver (fun () -> closed := true);
  { engine; sender; receiver; received; closed }

let payload_of_size n = String.init n (fun i -> Char.chr (33 + (i mod 90)))

let run_transfer world data =
  Tcp.send_string world.sender data;
  Tcp.finish world.sender;
  Engine.run ~until:300.0 world.engine

let test_tcp_clean_transfer () =
  let world = make_world () in
  let data = payload_of_size 50_000 in
  run_transfer world data;
  Alcotest.(check string) "stream intact" data (Buffer.contents world.received);
  Alcotest.(check bool) "closed" true !(world.closed);
  Alcotest.(check bool) "all acked" true (Tcp.all_acked world.sender);
  Alcotest.(check int) "no retransmits" 0 (Tcp.stats world.sender).Tcp.retransmits

let test_tcp_lossy_transfer () =
  let world = make_world ~loss:0.05 () in
  let data = payload_of_size 50_000 in
  run_transfer world data;
  Alcotest.(check string) "stream intact under loss" data (Buffer.contents world.received);
  Alcotest.(check bool) "closed" true !(world.closed);
  Alcotest.(check bool) "retransmitted" true
    ((Tcp.stats world.sender).Tcp.retransmits > 0)

let test_tcp_corruption_discarded_then_repaired () =
  let world = make_world ~corrupt:0.03 () in
  let data = payload_of_size 30_000 in
  run_transfer world data;
  Alcotest.(check string) "stream intact under corruption" data
    (Buffer.contents world.received);
  Alcotest.(check bool) "checksum failures seen" true
    ((Tcp.stats world.receiver).Tcp.segs_discarded > 0)

let test_tcp_reordering_repaired () =
  let world = make_world ~reorder:0.3 ~jitter:0.01 () in
  let data = payload_of_size 30_000 in
  run_transfer world data;
  Alcotest.(check string) "stream intact under reordering" data
    (Buffer.contents world.received)

let test_tcp_tiny_window () =
  let config = { Tcp.default_config with Tcp.recv_capacity = 4096; mss = 512 } in
  let world = make_world ~config () in
  let data = payload_of_size 20_000 in
  run_transfer world data;
  Alcotest.(check string) "flow control respected" data (Buffer.contents world.received)

let test_tcp_fast_retransmit_fires () =
  let world = make_world ~loss:0.03 () in
  let data = payload_of_size 200_000 in
  run_transfer world data;
  Alcotest.(check string) "intact" data (Buffer.contents world.received);
  let st = Tcp.stats world.sender in
  Alcotest.(check bool) "fast retransmit used" true (st.Tcp.fast_retransmits > 0)

let test_tcp_control_cheaper_than_manipulation () =
  (* E8's premise, as an invariant: per-packet control operations are tens,
     not thousands, while manipulation touches every byte. *)
  let world = make_world () in
  let data = payload_of_size 100_000 in
  run_transfer world data;
  let s = Tcp.stats world.sender and r = Tcp.stats world.receiver in
  let control = s.Tcp.control_ops + r.Tcp.control_ops in
  let manip =
    s.Tcp.manip_checksum_bytes + s.Tcp.manip_copy_bytes
    + r.Tcp.manip_checksum_bytes + r.Tcp.manip_copy_bytes
  in
  Alcotest.(check bool) "manipulation dominates" true (manip > 10 * control);
  let per_seg = float_of_int control /. float_of_int s.Tcp.segs_sent in
  Alcotest.(check bool) "control ops per segment is small" true (per_seg < 40.0)

let test_tcp_empty_stream_close () =
  let world = make_world () in
  Tcp.finish world.sender;
  Engine.run ~until:10.0 world.engine;
  Alcotest.(check bool) "closed with no data" true !(world.closed);
  Alcotest.(check bool) "fin acked" true (Tcp.all_acked world.sender)

let test_tcp_buffered_bytes_gauge () =
  (* With loss, the receiver must at some point hold out-of-order data. *)
  let world = make_world ~loss:0.1 () in
  let data = payload_of_size 100_000 in
  Tcp.send_string world.sender data;
  Tcp.finish world.sender;
  let peak = ref 0 in
  let rec watch () =
    peak := max !peak (Tcp.buffered_bytes world.receiver);
    if not !(world.closed) && Engine.now world.engine < 300.0 then
      ignore (Engine.schedule_after world.engine 0.001 watch)
  in
  watch ();
  Engine.run ~until:300.0 world.engine;
  Alcotest.(check bool) "some data parked behind holes" true (!peak > 0)

let test_tcp_duplicated_segments_harmless () =
  let world = make_world ~duplicate:0.2 ~loss:0.02 () in
  let data = payload_of_size 60_000 in
  run_transfer world data;
  Alcotest.(check string) "stream intact under duplication" data
    (Buffer.contents world.received);
  Alcotest.(check bool) "closed" true !(world.closed)

let test_tcp_delayed_acks_reduce_ack_traffic () =
  let run ack_delay =
    let config = { Tcp.default_config with Tcp.ack_delay } in
    let world = make_world ~config () in
    let data = payload_of_size 100_000 in
    run_transfer world data;
    Alcotest.(check string) "intact" data (Buffer.contents world.received);
    (Tcp.stats world.receiver).Tcp.acks_sent
  in
  let immediate = run 0.0 in
  let delayed = run 0.01 in
  Alcotest.(check bool)
    (Printf.sprintf "delayed acks (%d) < immediate acks (%d)" delayed immediate)
    true
    (delayed * 3 < immediate * 2)

let test_tcp_sequence_wraparound () =
  (* Start both ends just below the 32-bit boundary: the whole transfer
     crosses the wrap, exercising unwrap on every segment and ack. *)
  let isn = 0xFFFFFFFF - 50_000 in
  let config = { Tcp.default_config with Tcp.isn; peer_isn = isn } in
  let world = make_world ~loss:0.03 ~config () in
  let data = payload_of_size 150_000 in
  run_transfer world data;
  Alcotest.(check string) "stream intact across wrap" data
    (Buffer.contents world.received);
  Alcotest.(check bool) "closed" true !(world.closed);
  Alcotest.(check bool) "snd_nxt passed the wrap" true
    (Tcp.snd_nxt world.sender > 0x100000000)

(* --- UDP --- *)

let test_udp_basic () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5L in
  let net = Topology.point_to_point ~engine ~rng ~bandwidth_bps:1e6 ~delay:0.001 ~a:1 ~b:2 () in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let got = ref [] in
  Netsim.Udp.bind ub ~port:53 (fun ~src ~src_port payload ->
      got := (src, src_port, Bytebuf.to_string payload) :: !got);
  ignore (Netsim.Udp.send ua ~dst:2 ~dst_port:53 ~src_port:1234 (buf "query"));
  Engine.run_until_idle engine;
  Alcotest.(check (list (triple int int string))) "datagram" [ (1, 1234, "query") ] !got

let test_udp_no_port () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:6L in
  let net = Topology.point_to_point ~engine ~rng ~bandwidth_bps:1e6 ~delay:0.001 ~a:1 ~b:2 () in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  ignore (Netsim.Udp.send ua ~dst:2 ~dst_port:99 ~src_port:1 (buf "x"));
  Engine.run_until_idle engine;
  Alcotest.(check int) "counted" 1 (Netsim.Udp.stats ub).Netsim.Udp.discarded_no_port

let test_udp_corruption_discarded () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.make ~corrupt:1.0 ())
      ~bandwidth_bps:1e6 ~delay:0.001 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let got = ref 0 in
  Netsim.Udp.bind ub ~port:1 (fun ~src:_ ~src_port:_ _ -> incr got);
  ignore (Netsim.Udp.send ua ~dst:2 ~dst_port:1 ~src_port:1 (buf "will be corrupted"));
  Engine.run_until_idle engine;
  Alcotest.(check int) "not delivered" 0 !got;
  Alcotest.(check int) "checksum discard" 1 (Netsim.Udp.stats ub).Netsim.Udp.discarded_checksum

let () =
  Alcotest.run "transport"
    [
      ( "seq32",
        [
          Alcotest.test_case "basics" `Quick test_seq32_basics;
          Alcotest.test_case "diff wrap" `Quick test_seq32_diff_wrap;
          Alcotest.test_case "between" `Quick test_seq32_between;
          qcheck prop_seq32_diff_add;
          qcheck prop_seq32_unwrap;
        ] );
      ( "rto",
        [
          Alcotest.test_case "initial" `Quick test_rto_initial;
          Alcotest.test_case "sampling" `Quick test_rto_sampling;
          Alcotest.test_case "backoff" `Quick test_rto_backoff;
          Alcotest.test_case "clamps" `Quick test_rto_clamps;
          Alcotest.test_case "karn ignores retransmit samples" `Quick
            test_rto_karn_ignores_retransmit_samples;
          Alcotest.test_case "karn backoff survives" `Quick
            test_rto_karn_backoff_survives;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "in order" `Quick test_reorder_in_order;
          Alcotest.test_case "hole holds" `Quick test_reorder_hole_holds;
          Alcotest.test_case "duplicates trimmed" `Quick test_reorder_duplicates_trimmed;
          Alcotest.test_case "overlap with buffered" `Quick test_reorder_overlap_with_buffered;
          Alcotest.test_case "capacity" `Quick test_reorder_capacity;
          Alcotest.test_case "spans" `Quick test_reorder_spans;
          Alcotest.test_case "initial offset" `Quick test_reorder_initial_offset;
          Alcotest.test_case "seq32 wraparound" `Quick test_reorder_seq32_wraparound;
          Alcotest.test_case "seq32 negative unwrap trimmed" `Quick
            test_reorder_unwrap_negative_trimmed;
          qcheck prop_reorder_stream_model;
        ] );
      ( "segment",
        [
          Alcotest.test_case "round trip" `Quick test_segment_round_trip;
          Alcotest.test_case "too short" `Quick test_segment_too_short;
          qcheck prop_segment_round_trip;
          qcheck prop_segment_corruption_detected;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "clean transfer" `Quick test_tcp_clean_transfer;
          Alcotest.test_case "lossy transfer" `Quick test_tcp_lossy_transfer;
          Alcotest.test_case "corruption repaired" `Quick
            test_tcp_corruption_discarded_then_repaired;
          Alcotest.test_case "reordering repaired" `Quick test_tcp_reordering_repaired;
          Alcotest.test_case "tiny window" `Quick test_tcp_tiny_window;
          Alcotest.test_case "fast retransmit" `Quick test_tcp_fast_retransmit_fires;
          Alcotest.test_case "control vs manipulation" `Quick
            test_tcp_control_cheaper_than_manipulation;
          Alcotest.test_case "empty stream close" `Quick test_tcp_empty_stream_close;
          Alcotest.test_case "buffered bytes gauge" `Quick test_tcp_buffered_bytes_gauge;
          Alcotest.test_case "sequence wraparound" `Quick test_tcp_sequence_wraparound;
          Alcotest.test_case "delayed acks" `Quick test_tcp_delayed_acks_reduce_ack_traffic;
          Alcotest.test_case "duplicated segments" `Quick test_tcp_duplicated_segments_harmless;
        ] );
      ( "udp",
        [
          Alcotest.test_case "basic" `Quick test_udp_basic;
          Alcotest.test_case "no port" `Quick test_udp_no_port;
          Alcotest.test_case "corruption discarded" `Quick test_udp_corruption_discarded;
        ] );
    ]
