(* Cross-library integration: full stacks assembled the way the examples
   and benchmarks assemble them. *)

open Bufkit
open Netsim
open Atmsim
open Alf_core

(* --- Typed values over the TCP stack: encode, stream, decode --- *)

let test_values_over_tcp () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.02)
      ~bandwidth_bps:8e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let sender = Transport.Tcp.create ~engine ~node:net.Topology.a ~peer:2 () in
  let receiver = Transport.Tcp.create ~engine ~node:net.Topology.b ~peer:1 () in
  let value = Wire.Value.int_array (Array.init 2000 (fun i -> (i * 7) - 3000)) in
  let encoded = Wire.Ber.encode value in
  let got = Buffer.create 1024 in
  Transport.Tcp.on_deliver receiver (fun chunk ->
      Buffer.add_string got (Bytebuf.to_string chunk));
  Transport.Tcp.send sender encoded;
  Transport.Tcp.finish sender;
  Engine.run ~until:120.0 engine;
  let decoded = Wire.Ber.decode (Bytebuf.of_string (Buffer.contents got)) in
  Alcotest.(check bool) "value survives the stack" true (Wire.Value.equal decoded value)

(* --- The headline E6 comparison as a coarse invariant --- *)

(* Application presentation conversion modelled as the bottleneck; under
   loss, ALF (out-of-order ADUs) must finish converting no later than the
   in-order byte stream does, and clearly earlier at a meaningful loss
   rate. *)
let completion_time ~alf ~loss =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:4242L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay:0.01 ~a:1 ~b:2 ()
  in
  let total_bytes = 200_000 in
  let app = Repro.Pipeline.create ~engine ~rate_bps:12e6 () in
  if alf then begin
    let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
    let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
    let _receiver =
      Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:9 ~stream:1
        ~deliver:(fun adu -> Repro.Pipeline.feed app ~bytes:(Bytebuf.length adu.Adu.payload))
        ()
    in
    let sender =
      Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:9 ~port:10 ~stream:1
        ~policy:Recovery.Transport_buffer
        ~config:{ Alf_transport.default_sender_config with Alf_transport.pace_bps = Some 8e6 }
        ()
    in
    let adu_size = 4000 in
    for i = 0 to (total_bytes / adu_size) - 1 do
      Alf_transport.send_adu sender
        (Adu.make
           (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1 ~index:i ())
           (Bytebuf.create adu_size))
    done;
    Alf_transport.close sender
  end
  else begin
    let sender = Transport.Tcp.create ~engine ~node:net.Topology.a ~peer:2 () in
    let receiver = Transport.Tcp.create ~engine ~node:net.Topology.b ~peer:1 () in
    Transport.Tcp.on_deliver receiver (fun chunk ->
        Repro.Pipeline.feed app ~bytes:(Bytebuf.length chunk));
    Transport.Tcp.send sender (Bytebuf.create total_bytes);
    Transport.Tcp.finish sender
  end;
  Engine.run ~until:600.0 engine;
  Alcotest.(check int)
    (Printf.sprintf "all bytes converted (alf=%b loss=%.2f)" alf loss)
    total_bytes (Repro.Pipeline.processed_bytes app);
  Repro.Pipeline.finish_time app

let test_alf_vs_tcp_pipeline_clean () =
  let tcp = completion_time ~alf:false ~loss:0.0 in
  let alf = completion_time ~alf:true ~loss:0.0 in
  (* Clean network: both finish in the same ballpark. *)
  Alcotest.(check bool) "same order of magnitude" true (alf < tcp *. 3.0 && tcp < alf *. 3.0)

let test_alf_vs_tcp_pipeline_lossy () =
  let tcp = completion_time ~alf:false ~loss:0.05 in
  let alf = completion_time ~alf:true ~loss:0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "ALF (%.3fs) not slower than TCP (%.3fs) under loss" alf tcp)
    true (alf <= tcp *. 1.1)

(* --- ADUs across the ATM substrate with cell loss --- *)

let test_adus_over_atm_with_cell_loss () =
  let rng = Rng.create ~seed:7L in
  let n_adus = 60 in
  let adu_payload = 600 in
  let delivered = ref 0 in
  let reasm =
    Aal5.reassembler
      ~deliver:(fun frame ->
        let h = Adu.header () in
        if Adu.read_header h frame ~pos:0 ~len:(Bytebuf.length frame) then begin
          Alcotest.(check int) "payload intact" adu_payload h.Adu.h_plen;
          incr delivered
        end
        else Alcotest.fail "corrupt ADU delivered")
      ()
  in
  let lost_frames = ref 0 in
  for i = 0 to n_adus - 1 do
    let adu =
      Adu.make
        (Adu.name ~dest_off:(i * adu_payload) ~dest_len:adu_payload ~stream:3 ~index:i ())
        (Bytebuf.init adu_payload (fun j -> Char.chr ((i + j) land 0xff)))
    in
    let cells = Aal5.segment (Adu.encode adu) in
    let any_lost = ref false in
    List.iter
      (fun (payload, eof) ->
        (* 2% independent cell loss. *)
        if Rng.bool rng ~p:0.02 then any_lost := true
        else Aal5.push reasm payload ~eof)
      cells;
    if !any_lost then incr lost_frames
  done;
  let stats = Aal5.stats reasm in
  (* Conservation: a frame with a lost cell never delivers, and a lost
     end-of-frame cell can drag the following frame into the same abort —
     so delivered + lost can only undershoot the total, never overshoot,
     and every loss shows up as at least one CRC abort. *)
  Alcotest.(check bool) "some loss occurred" true (!lost_frames > 0);
  Alcotest.(check bool) "aborts seen" true (stats.Aal5.aborted_crc >= 1);
  Alcotest.(check bool) "aborts bounded by lost frames" true
    (stats.Aal5.aborted_crc <= !lost_frames);
  Alcotest.(check bool) "no frame both lost and delivered" true
    (!delivered + !lost_frames <= n_adus);
  Alcotest.(check bool) "most frames survive 2% cell loss" true
    (!delivered > n_adus / 2)

(* --- ILP plan equals TCP+separate passes on identical data --- *)

let test_ilp_stack_consistency () =
  (* The received, decrypted, checksummed output of a fused receive loop
     equals the layered one on data that crossed the simulated network. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:8L in
  let net =
    Topology.point_to_point ~engine ~rng ~bandwidth_bps:8e6 ~delay:0.002 ~a:1 ~b:2 ()
  in
  let sender = Transport.Tcp.create ~engine ~node:net.Topology.a ~peer:2 () in
  let receiver = Transport.Tcp.create ~engine ~node:net.Topology.b ~peer:1 () in
  let key = 0x1234L in
  let plaintext = String.init 50_000 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let ciphertext = Bytebuf.of_string plaintext in
  Cipher.Pad.transform_at (Cipher.Pad.create ~key) ~pos:0L ciphertext;
  let received = Buffer.create 1024 in
  Transport.Tcp.on_deliver receiver (fun c -> Buffer.add_string received (Bytebuf.to_string c));
  Transport.Tcp.send sender ciphertext;
  Transport.Tcp.finish sender;
  Engine.run ~until:60.0 engine;
  let wire_data = Bytebuf.of_string (Buffer.contents received) in
  let plan =
    [ Ilp.Xor_pad { key; pos = 0L }; Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ]
  in
  let fused = Ilp.run_fused plan wire_data in
  let layered = Ilp.run_layered plan wire_data in
  Alcotest.(check bool) "fused = layered" true
    (Bytebuf.equal fused.Ilp.output layered.Ilp.output);
  Alcotest.(check string) "decrypts to the original" plaintext
    (Bytebuf.to_string fused.Ilp.output);
  Alcotest.(check (list (pair (of_pp Checksum.Kind.pp) int)))
    "checksum covers plaintext"
    [ (Checksum.Kind.Internet, Checksum.Internet.digest (Bytebuf.of_string plaintext)) ]
    fused.Ilp.checksums

(* --- ALF over ATM: the same transport, cells underneath --- *)

let test_alf_over_atm_bearer () =
  (* The portability claim: the unchanged ALF machinery runs over an
     AAL5/cell bearer. The link's loss applies PER CELL (every packet on
     the wire is one 53-byte cell), so a single lost cell costs a whole
     frame (= fragment) and NACK recovery repairs it per ADU. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:77L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.005)
      ~queue_limit:8192 ~bandwidth_bps:50e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let bearer_a = Bearer.create ~engine ~node:net.Topology.a () in
  let bearer_b = Bearer.create ~engine ~node:net.Topology.b () in
  let io_a = Atmsim.Bearer.dgram bearer_a in
  let io_b = Atmsim.Bearer.dgram bearer_b in
  let file_size = 60_000 in
  let file = Bytebuf.create file_size in
  Rng.fill_bytes (Rng.create ~seed:3L) file;
  let sink = Sink.create ~size:file_size in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:io_b ~port:5 ~stream:1
      ~deliver:(fun adu ->
        match Sink.write_adu sink adu with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:io_a ~peer:2 ~peer_port:5 ~port:6
      ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  List.iter (Alf_transport.send_adu sender)
    (Framing.frames_of_buffer ~stream:1 ~adu_size:2500 file);
  Alf_transport.close sender;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "complete over cells" true (Alf_transport.complete receiver);
  Alcotest.(check bool) "file intact" true (Bytebuf.equal (Sink.contents sink) file);
  let bs = Bearer.stats bearer_a in
  Alcotest.(check bool) "really went over cells" true (bs.Bearer.cells_sent > 1000);
  (* Cell loss happened and was repaired above the bearer. *)
  let s = Alf_transport.sender_stats sender in
  Alcotest.(check bool) "adu-level repair occurred" true
    (s.Alf_transport.adus_retransmitted > 0)

(* --- Encrypted ALF session end to end --- *)

let test_encrypted_alf_over_lossy_link () =
  (* Per-ADU sealing with a position-keyed pad: every ADU decrypts on
     arrival (out of order), the fused open kernel verifies the plaintext
     checksum, and the file reassembles bit-exact. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:31337L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.07)
      ~queue_limit:1024 ~bandwidth_bps:20e6 ~delay:0.008 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let key = 0x5EC2E7L in
  let file_size = 80_000 in
  let file = Bytebuf.create file_size in
  Rng.fill_bytes (Rng.create ~seed:55L) file;
  let sink = Sink.create ~size:file_size in
  let checksums = Hashtbl.create 64 in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:11 ~stream:1
      ~deliver:(fun sealed ->
        let opened, cksum = Secure.open_adu ~key sealed in
        (match Hashtbl.find_opt checksums opened.Adu.name.Adu.index with
        | Some expect -> Alcotest.(check int) "fused plaintext checksum" expect cksum
        | None -> Alcotest.fail "unknown ADU index");
        match Sink.write_adu sink opened with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:11 ~port:12
      ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  List.iter
    (fun adu ->
      let sealed, cksum = Secure.seal_summed ~key adu in
      Hashtbl.replace checksums adu.Adu.name.Adu.index cksum;
      Alf_transport.send_adu sender sealed)
    (Framing.frames_of_buffer ~stream:1 ~adu_size:3000 file);
  Alf_transport.close sender;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  Alcotest.(check bool) "file decrypted bit-exact" true
    (Bufkit.Bytebuf.equal (Sink.contents sink) file)

(* --- In-order delivery as an overlay above ALF --- *)

let test_ordered_overlay_over_alf () =
  (* "TCP semantics" reconstructed ABOVE the ADU layer: the Ordered
     adapter releases ADUs in index order while checksums, decryption and
     recovery all ran out of order underneath; with a no-recovery sender,
     skip() lets the stream continue past losses the application accepts. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:8181L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.08)
      ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let stream_order = ref [] in
  let ordered =
    Ordered.create ~deliver:(fun adu -> stream_order := adu.Adu.name.Adu.index :: !stream_order) ()
  in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:31 ~stream:1
      ~deliver:(fun adu ->
        (* Delivered payloads are borrowed: park a copy. *)
        Ordered.offer ordered (Adu.make adu.Adu.name (Bytebuf.copy adu.Adu.payload)))
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:31 ~port:32
      ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  let n = 40 in
  for i = 0 to n - 1 do
    Alf_transport.send_adu sender
      (Adu.make (Adu.name ~stream:1 ~index:i ()) (Bytebuf.create 1500))
  done;
  Alf_transport.close sender;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "underlying transport complete" true
    (Alf_transport.complete receiver);
  Alcotest.(check (list int)) "in order above, out of order below"
    (List.init n (fun i -> i))
    (List.rev !stream_order);
  Alcotest.(check bool) "disorder actually happened underneath" true
    ((Alf_transport.receiver_stats receiver).Alf_transport.out_of_order > 0)

let test_ordered_overlay_skips_gone () =
  (* No-recovery: the sender declares losses gone; the overlay skips them
     so the ordered stream still terminates. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:8282L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.15)
      ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let got = ref [] in
  let ordered =
    Ordered.create ~deliver:(fun adu -> got := adu.Adu.name.Adu.index :: !got) ()
  in
  let receiver = ref None in
  let r =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:31 ~stream:1
      ~deliver:(fun adu ->
        (* Delivered payloads are borrowed: park a copy. *)
        Ordered.offer ordered (Adu.make adu.Adu.name (Bytebuf.copy adu.Adu.payload)))
      ()
  in
  receiver := Some r;
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:31 ~port:32
      ~stream:1 ~policy:Recovery.No_recovery ()
  in
  let n = 40 in
  for i = 0 to n - 1 do
    Alf_transport.send_adu sender
      (Adu.make (Adu.name ~stream:1 ~index:i ()) (Bytebuf.create 1500))
  done;
  Alf_transport.close sender;
  (* Bridge GONE notifications into the overlay as skips, polling the
     receiver's frontier as completion advances. *)
  Alf_transport.on_complete r (fun () ->
      for i = 0 to n - 1 do
        Ordered.skip ordered ~index:i
      done);
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete r);
  let st = Alf_transport.receiver_stats r in
  Alcotest.(check int) "ordered stream delivered the survivors"
    st.Alf_transport.adus_delivered (List.length !got);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly ascending" true (ascending (List.rev !got));
  Alcotest.(check bool) "losses were skipped, not waited for" true
    (st.Alf_transport.adus_lost > 0)

(* --- ALF over striped channels with wildly different delays --- *)

let test_alf_over_striped_channels () =
  (* Three parallel paths, 2 ms / 20 ms / 60 ms one-way: round-robin
     striping reorders heavily, yet the unchanged ALF machinery completes
     because every fragment self-describes its ADU and offset. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:246L in
  let links =
    List.map
      (fun delay ->
        Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.02)
          ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay ~a:1 ~b:2 ())
      [ 0.002; 0.02; 0.06 ]
  in
  let io_side pick =
    Dgram.striped
      (List.map
         (fun net ->
           Dgram.of_udp (Netsim.Udp.create ~engine ~node:(pick net) ()))
         links)
  in
  let io_a = io_side (fun net -> net.Topology.a) in
  let io_b = io_side (fun net -> net.Topology.b) in
  let size = 60_000 in
  let file = Bytebuf.create size in
  Rng.fill_bytes (Rng.create ~seed:77L) file;
  let sink = Sink.create ~size in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:io_b ~port:21 ~stream:1
      ~deliver:(fun adu ->
        match Sink.write_adu sink adu with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:io_a ~peer:2 ~peer_port:21 ~port:22
      ~stream:1 ~policy:Recovery.Transport_buffer
      ~config:{ Alf_transport.default_sender_config with Alf_transport.mtu = 1000 }
      ()
  in
  List.iter (Alf_transport.send_adu sender)
    (Framing.frames_of_buffer ~stream:1 ~adu_size:2500 file);
  Alf_transport.close sender;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "complete across stripes" true
    (Alf_transport.complete receiver);
  Alcotest.(check bool) "file intact" true (Bytebuf.equal (Sink.contents sink) file);
  let r = Alf_transport.receiver_stats receiver in
  Alcotest.(check bool) "striping reordered ADUs heavily" true
    (r.Alf_transport.out_of_order > 5)

(* --- Sender-computed placement enables out-of-order file assembly --- *)

let test_out_of_order_file_assembly () =
  (* ADUs arrive shuffled; each lands at its sender-computed dest_off; the
     file is byte-identical. The paper's file-transfer argument. *)
  let rng = Rng.create ~seed:9L in
  let file = String.init 10_000 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let adus =
    Framing.frames_of_buffer ~stream:0 ~adu_size:777 (Bytebuf.of_string file)
  in
  let arr = Array.of_list adus in
  Rng.shuffle rng arr;
  let out = Bytebuf.create (String.length file) in
  Array.iter
    (fun adu ->
      Bytebuf.blit ~src:adu.Adu.payload ~src_pos:0 ~dst:out
        ~dst_pos:adu.Adu.name.Adu.dest_off
        ~len:(Bytebuf.length adu.Adu.payload))
    arr;
  Alcotest.(check string) "file reassembled from shuffled ADUs" file
    (Bytebuf.to_string out)

(* --- Determinism: a seed fully determines a run --- *)

let test_seed_determinism () =
  let run () =
    let engine = Engine.create () in
    let rng = Rng.create ~seed:777L in
    let net =
      Topology.point_to_point ~engine ~rng
        ~impair:(Impair.make ~loss:0.07 ~duplicate:0.02 ~reorder:0.3 ~jitter:0.02 ())
        ~queue_limit:512 ~bandwidth_bps:10e6 ~delay:0.01 ~a:1 ~b:2 ()
    in
    let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
    let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
    let deliveries = ref [] in
    let receiver =
      Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:41 ~stream:1
        ~deliver:(fun adu ->
          deliveries := (Engine.now engine, adu.Adu.name.Adu.index) :: !deliveries)
        ()
    in
    let sender =
      Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:41 ~port:42
        ~stream:1 ~policy:Recovery.Transport_buffer ()
    in
    for i = 0 to 29 do
      Alf_transport.send_adu sender
        (Adu.make (Adu.name ~stream:1 ~index:i ()) (Bytebuf.create 2000))
    done;
    Alf_transport.close sender;
    Engine.run ~until:120.0 engine;
    let s = Alf_transport.sender_stats sender in
    let r = Alf_transport.receiver_stats receiver in
    ( List.rev !deliveries,
      s.Alf_transport.frags_sent,
      s.Alf_transport.adus_retransmitted,
      r.Alf_transport.out_of_order,
      r.Alf_transport.nacks_sent )
  in
  let a = run () and b = run () in
  Alcotest.(check bool)
    "two runs with one seed are event-for-event identical" true (a = b)

let () =
  Alcotest.run "integration"
    [
      ( "stacks",
        [
          Alcotest.test_case "values over tcp" `Quick test_values_over_tcp;
          Alcotest.test_case "alf vs tcp pipeline (clean)" `Quick
            test_alf_vs_tcp_pipeline_clean;
          Alcotest.test_case "alf vs tcp pipeline (lossy)" `Quick
            test_alf_vs_tcp_pipeline_lossy;
          Alcotest.test_case "adus over atm with cell loss" `Quick
            test_adus_over_atm_with_cell_loss;
          Alcotest.test_case "ilp stack consistency" `Quick test_ilp_stack_consistency;
          Alcotest.test_case "encrypted alf over lossy link" `Quick
            test_encrypted_alf_over_lossy_link;
          Alcotest.test_case "alf over atm bearer" `Quick test_alf_over_atm_bearer;
          Alcotest.test_case "alf over striped channels" `Quick
            test_alf_over_striped_channels;
          Alcotest.test_case "ordered overlay over alf" `Quick
            test_ordered_overlay_over_alf;
          Alcotest.test_case "ordered overlay skips gone" `Quick
            test_ordered_overlay_skips_gone;
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "out-of-order file assembly" `Quick
            test_out_of_order_file_assembly;
        ] );
    ]
