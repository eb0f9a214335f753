(* The experiment harness: one entry per table/figure/measurement in the
   paper's evaluation (see DESIGN.md §3 and EXPERIMENTS.md). Run all with
   `dune exec bench/main.exe`, or name experiments:
   `dune exec bench/main.exe -- table1 ilp-fusion`. *)

open Bufkit
open Netsim
open Alf_core

let workload_bytes = 256 * 1024

let fresh_workload () =
  let rng = Rng.create ~seed:0xBEEFL in
  let b = Bytebuf.create workload_bytes in
  Rng.fill_bytes rng b;
  b

(* ------------------------------------------------------------------ *)
(* E1 — Table 1: speed in Mb/s for manipulation operations.            *)
(* ------------------------------------------------------------------ *)

let e1_table1 () =
  Harness.heading
    "E1 (Table 1): copy and checksum throughput, Mb/s";
  let src = fresh_workload () in
  let dst = Bytebuf.create workload_bytes in
  let host_copy =
    Harness.measure_mbps "copy" ~bytes:workload_bytes (fun () ->
        Kernels.copy ~src ~dst)
  in
  let host_cksum =
    Harness.measure_mbps "checksum" ~bytes:workload_bytes (fun () ->
        ignore (Kernels.checksum src))
  in
  let model m k = Machine_model.mbps m k in
  Harness.row_header [ "uVax (model)"; "R2000 (model)"; "this host"; "paper uVax"; "paper R2000" ];
  Harness.row "Copy"
    [
      Harness.f1 (model Machine_model.uvax3 Machine_model.copy_kernel);
      Harness.f1 (model Machine_model.r2000 Machine_model.copy_kernel);
      Harness.f1 host_copy;
      "42"; "130";
    ];
  Harness.row "Checksum"
    [
      Harness.f1 (model Machine_model.uvax3 Machine_model.checksum_kernel);
      Harness.f1 (model Machine_model.r2000 Machine_model.checksum_kernel);
      Harness.f1 host_cksum;
      "60"; "115";
    ];
  Harness.note
    "Shape check: copy and checksum are the same order of magnitude, and the\n\
     RISC machine is ~3x the microcoded one; host numbers scale both up.\n"

(* ------------------------------------------------------------------ *)
(* E2 — ILP fusion: separate copy+checksum vs one fused loop.          *)
(* ------------------------------------------------------------------ *)

let e2_ilp_fusion () =
  Harness.heading "E2: integrated (fused) vs serial copy+checksum, Mb/s";
  let src = fresh_workload () in
  let dst = Bytebuf.create workload_bytes in
  let host name fn = Harness.measure_mbps name ~bytes:workload_bytes fn in
  (* Host columns use the scalar word-loop copy: the fused loop is scalar,
     and 1990 copies were too; memcpy's SIMD would not fuse with a
     checksum anyway. *)
  let host_copy = host "copy" (fun () -> Kernels.copy_words ~src ~dst) in
  let host_cksum = host "checksum" (fun () -> ignore (Kernels.checksum src)) in
  let serial () =
    Kernels.copy_words ~src ~dst;
    ignore (Kernels.checksum dst)
  and fused () = ignore (Kernels.copy_checksum ~src ~dst) in
  let host_serial = host "serial" serial in
  let host_fused = host "fused" fused in
  (* The figure perf-smoke gates: the same two rows, timed interleaved. *)
  let speedup = Harness.paired_speedup ~name:"fused-vs-serial" fused serial in
  Harness.record_row ~name:"fused-vs-serial"
    [ ("median_speedup", Obs.Json.Num speedup) ];
  let m_ser machine =
    Machine_model.serial_mbps machine
      [ Machine_model.copy_kernel; Machine_model.checksum_kernel ]
  in
  let m_fus machine =
    Machine_model.mbps machine
      (Machine_model.fuse [ Machine_model.copy_kernel; Machine_model.checksum_kernel ])
  in
  Harness.row_header [ "uVax (model)"; "R2000 (model)"; "this host"; "paper R2000" ];
  Harness.row "copy alone"
    [
      Harness.f1 (Machine_model.mbps Machine_model.uvax3 Machine_model.copy_kernel);
      Harness.f1 (Machine_model.mbps Machine_model.r2000 Machine_model.copy_kernel);
      Harness.f1 host_copy; "130";
    ];
  Harness.row "checksum alone"
    [
      Harness.f1 (Machine_model.mbps Machine_model.uvax3 Machine_model.checksum_kernel);
      Harness.f1 (Machine_model.mbps Machine_model.r2000 Machine_model.checksum_kernel);
      Harness.f1 host_cksum; "115";
    ];
  Harness.row "serial copy then checksum"
    [
      Harness.f1 (m_ser Machine_model.uvax3);
      Harness.f1 (m_ser Machine_model.r2000);
      Harness.f1 host_serial; "~60";
    ];
  Harness.row "fused copy+checksum (ILP)"
    [
      Harness.f1 (m_fus Machine_model.uvax3);
      Harness.f1 (m_fus Machine_model.r2000);
      Harness.f1 host_fused; "90";
    ];
  Harness.note "ILP gain (fused/serial): model R2000 %.2fx, this host %.2fx, \
                interleaved median %.2fx (paper: 90/60 = 1.50x)\n"
    (m_fus Machine_model.r2000 /. m_ser Machine_model.r2000)
    (host_fused /. host_serial) speedup;
  (* The same 3-stage plan through the declarative engine, executed three
     ways: layered bulk passes, fusion *interpreted* per byte, and fusion
     *compiled* to a hand-fused kernel (section 8's compilation of the
     protocol suite). *)
  let plan =
    [
      Ilp.Xor_pad { key = 42L; pos = 0L };
      Ilp.Checksum Checksum.Kind.Internet;
      Ilp.Deliver_copy;
    ]
  in
  let small = Bytebuf.take src 65536 in
  let eng_layered =
    Harness.measure_mbps "engine layered" ~bytes:65536 (fun () ->
        ignore (Ilp.run_layered plan small))
  in
  let eng_interp =
    Harness.measure_mbps "engine interpreted" ~bytes:65536 (fun () ->
        ignore (Ilp.run_fused_interpreted plan small))
  in
  assert (Ilp.run_fused plan small).Ilp.compiled;
  let eng_compiled =
    Harness.measure_mbps "engine compiled" ~bytes:65536 (fun () ->
        ignore (Ilp.run_fused plan small))
  in
  Harness.note
    "Stage engine, 3 stages (decrypt+checksum+deliver), one declarative plan:\n\
    \  layered %.1f Mb/s | fused-interpreted %.1f Mb/s | fused-compiled %.1f Mb/s\n\
    \  Interpreted fusion loses to bulk passes (%.2fx); compiling the plan to a\n\
    \  fused kernel wins (%.2fx over layered) - ILP pays as a 'compiled'\n\
    \  technique, exactly section 8's compilation-vs-interpretation point.\n"
    eng_layered eng_interp eng_compiled (eng_interp /. eng_layered)
    (eng_compiled /. eng_layered)

(* ------------------------------------------------------------------ *)
(* E3 — Presentation conversion cost vs a word-aligned copy.           *)
(* ------------------------------------------------------------------ *)

let e3_presentation_cost () =
  Harness.heading "E3: presentation conversion vs copy (int-array workload), Mb/s of application data";
  let n = 32 * 1024 in
  let app_bytes = 4 * n in
  let rng = Rng.create ~seed:0xABCL in
  let ints =
    Array.init n (fun _ -> Int64.to_int (Rng.int64 rng) land 0x7FFFFFFF)
  in
  let value = Wire.Value.int_array ints in
  let flat = Wire.Lwts.encode_int_array ints in
  let flat_dst = Bytebuf.create (Bytebuf.length flat) in
  let host name fn = Harness.measure_mbps name ~bytes:app_bytes fn in
  let copy = host "copy" (fun () -> Kernels.copy ~src:flat ~dst:flat_dst) in
  let lwts = host "lwts" (fun () -> ignore (Wire.Lwts.encode_int_array ints)) in
  let xdr = host "xdr" (fun () -> ignore (Wire.Xdr.encode_int_array ints)) in
  let ber = host "ber" (fun () -> ignore (Wire.Ber.encode_int_array ints)) in
  let ber_toolkit =
    host "ber-interp" (fun () -> ignore (Wire.Ber.encode_interpretive value))
  in
  let ber_wire = Wire.Ber.encode_int_array ints in
  let ber_decode = host "ber-decode" (fun () -> ignore (Wire.Ber.decode_int_array ber_wire)) in
  Harness.row_header [ "Mb/s"; "vs copy" ];
  let show label v = Harness.row label [ Harness.f1 v; Printf.sprintf "%.1fx slower" (copy /. v) ] in
  Harness.row "word-aligned copy" [ Harness.f1 copy; "1.0x" ];
  show "LWTS encode (light-weight syntax)" lwts;
  show "XDR encode" xdr;
  show "BER encode (tuned)" ber;
  show "BER decode (tuned)" ber_decode;
  show "BER encode (interpretive toolkit)" ber_toolkit;
  Harness.note
    "Model prediction (R2000): BER encode %.1f Mb/s vs copy %.1f Mb/s = %.1fx slower\n\
     (paper: 28 vs 130 Mb/s, 4-5x). Host ratios are inflated because a modern\n\
     memcpy is SIMD-vectorised while conversion stays scalar; the ordering\n\
     (copy >> tuned conversion >> toolkit conversion) is the reproduced shape.\n"
    (Machine_model.mbps Machine_model.r2000 Machine_model.ber_encode_int_kernel)
    (Machine_model.mbps Machine_model.r2000 Machine_model.copy_kernel)
    (Machine_model.mbps Machine_model.r2000 Machine_model.copy_kernel
    /. Machine_model.mbps Machine_model.r2000 Machine_model.ber_encode_int_kernel)

(* ------------------------------------------------------------------ *)
(* E4 — Fusing the checksum into the conversion loop.                  *)
(* ------------------------------------------------------------------ *)

let e4_fused_convert () =
  Harness.heading "E4: BER conversion alone vs conversion+checksum, Mb/s of application data";
  let n = 32 * 1024 in
  let app_bytes = 4 * n in
  let rng = Rng.create ~seed:0xDEFL in
  let ints = Array.init n (fun _ -> Int64.to_int (Rng.int64 rng) land 0x7FFFFFFF) in
  let host name fn = Harness.measure_mbps name ~bytes:app_bytes fn in
  let convert = host "convert" (fun () -> ignore (Wire.Ber.encode_int_array ints)) in
  let fused =
    host "convert+checksum fused" (fun () ->
        ignore (Wire.Ber.encode_int_array_with_checksum ints))
  in
  let serial =
    host "convert then checksum" (fun () ->
        let b = Wire.Ber.encode_int_array ints in
        ignore (Kernels.checksum b))
  in
  Harness.row_header [ "this host"; "model R2000"; "paper R2000" ];
  Harness.row "BER convert alone"
    [
      Harness.f1 convert;
      Harness.f1 (Machine_model.mbps Machine_model.r2000 Machine_model.ber_encode_int_kernel);
      "28";
    ];
  Harness.row "convert + checksum (fused)"
    [
      Harness.f1 fused;
      Harness.f1
        (Machine_model.mbps Machine_model.r2000
           (Machine_model.fuse
              [ Machine_model.ber_encode_int_kernel; Machine_model.checksum_kernel ]));
      "24";
    ];
  Harness.row "convert then checksum (serial)"
    [
      Harness.f1 serial;
      Harness.f1
        (Machine_model.serial_mbps Machine_model.r2000
           [ Machine_model.ber_encode_int_kernel; Machine_model.checksum_kernel ]);
      "-";
    ];
  Harness.note
    "Shape: folding the checksum into the conversion loop costs only a small\n\
     fraction (paper: 28 -> 24 Mb/s = 1.17x). Model: %.2fx. Host: %.2fx\n\
     (vs %.2fx for a separate checksum pass; on this host the word-lane\n\
     checksum is so much faster than byte-wise conversion that the serial\n\
     pass is cheap - the model regenerates the 1990 balance).\n"
    (Machine_model.mbps Machine_model.r2000 Machine_model.ber_encode_int_kernel
    /. Machine_model.mbps Machine_model.r2000
         (Machine_model.fuse
            [ Machine_model.ber_encode_int_kernel; Machine_model.checksum_kernel ]))
    (convert /. fused) (convert /. serial)

(* ------------------------------------------------------------------ *)
(* E5 — Full-stack overhead: presentation dominates everything else.   *)
(* ------------------------------------------------------------------ *)

(* An in-process execution of the data-transfer-phase manipulations of a
   whole stack (the network itself costs nothing in-process, exactly like
   a loopback measurement): segmentation copy + Internet checksum on both
   sides, with or without a presentation conversion of the application
   data. Mirrors the paper's TCP+ISODE loopback comparison. *)
let e5_stack_overhead () =
  Harness.heading "E5: share of stack overhead attributable to presentation";
  let n_ints = 64 * 1024 in
  let ints = Array.init n_ints (fun i -> (i * 2654435761) land 0x7FFFFFFF) in
  let mss = 1460 in
  let transport_manips payload =
    (* Sender: segment (copy) + checksum each segment. Receiver: verify
       checksum + copy into place. *)
    let len = Bytebuf.length payload in
    let recv = Bytebuf.create len in
    let pos = ref 0 in
    while !pos < len do
      let seg_len = min mss (len - !pos) in
      let seg = Bytebuf.sub payload ~pos:!pos ~len:seg_len in
      let dst = Bytebuf.sub recv ~pos:!pos ~len:seg_len in
      (* send side: checksum over the outgoing segment *)
      ignore (Kernels.checksum seg);
      (* receive side: verify + move into place in one read (ILP'd) *)
      ignore (Kernels.copy_checksum ~src:seg ~dst);
      pos := !pos + seg_len
    done
  in
  (* Baseline: a "very long OCTET STRING" in image mode. *)
  let octets = Wire.Lwts.encode_int_array ints in
  let t_raw = Harness.seconds_per_run (fun () -> transport_manips octets) in
  (* Conversion-intensive, toolkit presentation (ISODE-flavoured). *)
  let value = Wire.Value.int_array ints in
  let t_toolkit =
    Harness.seconds_per_run ~runs:3 (fun () ->
        let encoded = Wire.Ber.encode_interpretive value in
        transport_manips encoded;
        ignore (Wire.Ber.decode encoded))
  in
  (* Conversion-intensive, tuned presentation. *)
  let t_tuned =
    Harness.seconds_per_run (fun () ->
        let encoded = Wire.Ber.encode_int_array ints in
        transport_manips encoded;
        ignore (Wire.Ber.decode_int_array encoded))
  in
  Harness.row_header [ "s/transfer"; "slowdown"; "presentation share" ];
  Harness.row "octet string (no conversion)"
    [ Harness.f3 t_raw; "1.0x"; "0%" ];
  Harness.row "int array, tuned BER"
    [
      Harness.f3 t_tuned;
      Printf.sprintf "%.1fx" (t_tuned /. t_raw);
      Harness.pct ((t_tuned -. t_raw) /. t_tuned);
    ];
  Harness.row "int array, toolkit BER (ISODE-like)"
    [
      Harness.f3 t_toolkit;
      Printf.sprintf "%.1fx" (t_toolkit /. t_raw);
      Harness.pct ((t_toolkit -. t_raw) /. t_toolkit);
    ];
  Harness.note
    "Paper: the conversion-intensive case ran ~30x slower through TCP+ISODE,\n\
     ~97%% of stack overhead in presentation; hand-tuned conversion bounds the\n\
     range at 4-5x. Both ends of the range should reproduce in shape above.\n"

(* ------------------------------------------------------------------ *)
(* E6 — The pipeline-stall experiment: ALF vs TCP under loss.          *)
(* ------------------------------------------------------------------ *)

let e6_one ~alf ~loss =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:20260704L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~queue_limit:2048 ~bandwidth_bps:10e6 ~delay:0.01 ~a:1 ~b:2 ()
  in
  let total_bytes = 400_000 in
  (* The application presentation conversion is the bottleneck: slightly
     faster than the wire, so any stall starves it unrecoverably. *)
  let app = Pipeline.create ~engine ~rate_bps:12e6 () in
  let peak_backlog = ref 0 in
  if alf then begin
    let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
    let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
    let receiver =
      Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:9 ~stream:1
        ~deliver:(fun adu -> Pipeline.feed app ~bytes:(Bytebuf.length adu.Adu.payload))
        ()
    in
    let sender =
      Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:9 ~port:10
        ~stream:1 ~policy:Recovery.Transport_buffer
        ~config:
          { Alf_transport.default_sender_config with Alf_transport.pace_bps = Some 9e6 }
        ()
    in
    let adu_size = 4000 in
    for i = 0 to (total_bytes / adu_size) - 1 do
      Alf_transport.send_adu sender
        (Adu.make
           (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1 ~index:i ())
           (Bytebuf.create adu_size))
    done;
    Alf_transport.close sender;
    Engine.run ~until:600.0 engine;
    ignore (Alf_transport.receiver_stats receiver);
    (Pipeline.finish_time app, !peak_backlog)
  end
  else begin
    let sender = Transport.Tcp.create ~engine ~node:net.Topology.a ~peer:2 () in
    let receiver = Transport.Tcp.create ~engine ~node:net.Topology.b ~peer:1 () in
    Transport.Tcp.on_deliver receiver (fun chunk ->
        Pipeline.feed app ~bytes:(Bytebuf.length chunk));
    (* Sample the resequencing-buffer occupancy: data that has arrived but
       cannot reach the presentation pipeline. *)
    let rec watch () =
      peak_backlog := max !peak_backlog (Transport.Tcp.buffered_bytes receiver);
      if not (Transport.Tcp.closed receiver) then
        ignore (Engine.schedule_after engine 0.002 watch)
    in
    watch ();
    Transport.Tcp.send sender (Bytebuf.create total_bytes);
    Transport.Tcp.finish sender;
    Engine.run ~until:600.0 engine;
    (Pipeline.finish_time app, !peak_backlog)
  end

let e6_alf_pipeline () =
  Harness.heading
    "E6: presentation pipeline under loss - in-order (TCP) vs out-of-order ADUs (ALF)";
  Harness.note
    "400 kB transfer, 10 Mb/s link, 10 ms delay; application converts at 12 Mb/s\n\
     (the bottleneck). Completion = when the last byte finishes conversion.\n\n";
  Harness.row_header
    [ "TCP done(s)"; "ALF done(s)"; "TCP/ALF"; "TCP starve(s)"; "ALF starve(s)"; "TCP stall(B)" ];
  (* Pure conversion work is total_bytes at rate_bps; everything beyond
     that in the completion time is converter starvation. *)
  let busy = 8.0 *. 400_000.0 /. 12e6 in
  List.iter
    (fun loss ->
      let tcp_done, tcp_peak = e6_one ~alf:false ~loss in
      let alf_done, _ = e6_one ~alf:true ~loss in
      Harness.row
        (Printf.sprintf "loss = %.0f%%" (loss *. 100.0))
        [
          Harness.f2 tcp_done;
          Harness.f2 alf_done;
          Printf.sprintf "%.2fx" (tcp_done /. alf_done);
          Harness.f2 (tcp_done -. busy);
          Harness.f2 (alf_done -. busy);
          string_of_int tcp_peak;
        ])
    [ 0.0; 0.01; 0.02; 0.05; 0.10 ];
  Harness.note
    "Shape: at zero loss the two are equivalent; as loss grows, TCP's in-order\n\
     delivery starves the converter (idle time and stalled bytes grow) while\n\
     ALF degrades gracefully.\n\n";
  (* Ablation: the ADU-size choice at 5% loss. Small ADUs pay header and
     NACK bookkeeping; big ADUs lose more bytes per lost fragment group
     and wait longer for completeness (the section 5 bounding rule on the
     packet network, complementing E7(b) on cells). *)
  Harness.subheading "ADU-size ablation at 5% loss (same transfer, ALF only)";
  Harness.row_header [ "ALF done(s)"; "rexmit(kB)"; "frags" ];
  List.iter
    (fun adu_size ->
      let engine = Engine.create () in
      let rng = Rng.create ~seed:90210L in
      let net =
        Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.05)
          ~queue_limit:2048 ~bandwidth_bps:10e6 ~delay:0.01 ~a:1 ~b:2 ()
      in
      let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
      let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
      let receiver =
        Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:9 ~stream:1
          ~deliver:(fun _ -> ()) ()
      in
      let done_at = ref nan in
      Alf_transport.on_complete receiver (fun () -> done_at := Engine.now engine);
      let sender =
        Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:9 ~port:10
          ~stream:1 ~policy:Recovery.Transport_buffer
          ~config:
            { Alf_transport.default_sender_config with
              Alf_transport.pace_bps = Some 9e6 }
          ()
      in
      let total = 400_000 in
      for i = 0 to (total / adu_size) - 1 do
        Alf_transport.send_adu sender
          (Adu.make
             (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1 ~index:i ())
             (Bytebuf.create adu_size))
      done;
      Alf_transport.close sender;
      Engine.run ~until:600.0 engine;
      let s = Alf_transport.sender_stats sender in
      Harness.row
        (Printf.sprintf "ADU = %d B" adu_size)
        [
          Harness.f2 !done_at;
          string_of_int (s.Alf_transport.bytes_retransmitted / 1000);
          string_of_int s.Alf_transport.frags_sent;
        ])
    [ 500; 1000; 2000; 4000; 8000; 16000; 40000 ]

(* ------------------------------------------------------------------ *)
(* E7 — ADUs over ATM cells.                                           *)
(* ------------------------------------------------------------------ *)

let e7_atm_adu () =
  Harness.heading "E7: ADUs over ATM - adaptation layers and the unit of synchronisation";
  let open Atmsim in
  let adu_bytes = 1000 in
  let n_adus = 500 in
  let run_aal5 p seed =
    let rng = Rng.create ~seed in
    let delivered = ref 0 in
    let wire_cells = ref 0 in
    let r = Aal5.reassembler ~deliver:(fun _ -> incr delivered) () in
    for i = 0 to n_adus - 1 do
      let adu =
        Adu.make (Adu.name ~dest_off:(i * adu_bytes) ~dest_len:adu_bytes ~stream:1 ~index:i ())
          (Bytebuf.create adu_bytes)
      in
      List.iter
        (fun (payload, eof) ->
          incr wire_cells;
          if not (Rng.bool rng ~p) then Aal5.push r payload ~eof)
        (Aal5.segment (Adu.encode adu))
    done;
    (!delivered, !wire_cells)
  in
  let run_aal34 p seed =
    let rng = Rng.create ~seed in
    let delivered = ref 0 in
    let wire_cells = ref 0 in
    let r = Aal34.reassembler ~deliver:(fun ~mid:_ _ -> incr delivered) in
    for i = 0 to n_adus - 1 do
      let adu =
        Adu.make (Adu.name ~dest_off:(i * adu_bytes) ~dest_len:adu_bytes ~stream:1 ~index:i ())
          (Bytebuf.create adu_bytes)
      in
      List.iter
        (fun pdu ->
          incr wire_cells;
          if not (Rng.bool rng ~p) then Aal34.push r pdu)
        (Aal34.segment ~mid:(i land 0x3FF) (Adu.encode adu))
    done;
    (!delivered, !wire_cells)
  in
  Harness.subheading
    (Printf.sprintf "(a) goodput vs cell loss: %d ADUs of %d B" n_adus adu_bytes);
  Harness.row_header
    [ "AAL5 delivered"; "AAL3/4 delivered"; "AAL5 cells"; "AAL3/4 cells" ];
  List.iter
    (fun p ->
      let d5, c5 = run_aal5 p 1L in
      let d34, c34 = run_aal34 p 2L in
      Harness.row
        (Printf.sprintf "cell loss = %.2f%%" (p *. 100.0))
        [
          Harness.pct (float_of_int d5 /. float_of_int n_adus);
          Harness.pct (float_of_int d34 /. float_of_int n_adus);
          string_of_int c5;
          string_of_int c34;
        ])
    [ 0.0; 0.0005; 0.001; 0.005; 0.01 ];
  Harness.subheading "(b) whole-ADU loss vs ADU size (cell loss 0.5%): the size-bounding rule";
  Harness.row_header [ "cells/ADU"; "measured loss"; "predicted 1-(1-p)^n" ];
  List.iter
    (fun size ->
      let n_adus = 400 in
      let rng = Rng.create ~seed:(Int64.of_int size) in
      let delivered = ref 0 in
      let cells_per_adu = ref 0 in
      let r = Aal5.reassembler ~deliver:(fun _ -> incr delivered) () in
      for i = 0 to n_adus - 1 do
        let adu =
          Adu.make (Adu.name ~dest_off:0 ~dest_len:size ~stream:1 ~index:i ())
            (Bytebuf.create size)
        in
        let cells = Aal5.segment (Adu.encode adu) in
        cells_per_adu := List.length cells;
        List.iter
          (fun (payload, eof) ->
            if not (Rng.bool rng ~p:0.005) then Aal5.push r payload ~eof)
          cells
      done;
      let measured = 1.0 -. (float_of_int !delivered /. float_of_int n_adus) in
      let predicted = 1.0 -. ((1.0 -. 0.005) ** float_of_int !cells_per_adu) in
      Harness.row
        (Printf.sprintf "ADU = %d B" size)
        [ string_of_int !cells_per_adu; Harness.pct measured; Harness.pct predicted ])
    [ 500; 1000; 2000; 4000; 8000; 16000 ];
  Harness.note
    "Shape: per-cell overhead (AAL3/4 spends 4 B/cell, AAL5 ~0) and whole-ADU\n\
     loss growing with ADU size: \"excessively large ADUs might prevent useful\n\
     progress at all\".\n"

(* ------------------------------------------------------------------ *)
(* E8 — Control vs manipulation cost in the running stack.             *)
(* ------------------------------------------------------------------ *)

let e8_control_vs_manip () =
  Harness.heading "E8: in-band control operations vs data manipulation";
  Harness.note
    "A 500 kB TCP transfer through the simulator; control operations and\n\
     manipulation byte-touches are counted as they execute, then costed with\n\
     the R2000 model (control op ~ 15 cycles - 'tens of instructions';\n\
     manipulation ~ %.2f cycles/byte for checksum+copy).\n\n"
    ((Machine_model.cycles_per_word Machine_model.r2000 Machine_model.copy_kernel
     +. Machine_model.cycles_per_word Machine_model.r2000 Machine_model.checksum_kernel)
    /. 4.0);
  let run mss =
    let engine = Engine.create () in
    let rng = Rng.create ~seed:88L in
    let net =
      Topology.point_to_point ~engine ~rng ~queue_limit:1024 ~bandwidth_bps:50e6
        ~delay:0.002 ~a:1 ~b:2 ()
    in
    let config = { Transport.Tcp.default_config with Transport.Tcp.mss } in
    let sender = Transport.Tcp.create ~engine ~node:net.Topology.a ~peer:2 ~config () in
    let receiver = Transport.Tcp.create ~engine ~node:net.Topology.b ~peer:1 ~config () in
    Transport.Tcp.send sender (Bytebuf.create 500_000);
    Transport.Tcp.finish sender;
    Engine.run ~until:600.0 engine;
    let s = Transport.Tcp.stats sender and r = Transport.Tcp.stats receiver in
    let control = s.Transport.Tcp.control_ops + r.Transport.Tcp.control_ops in
    let manip_bytes =
      s.Transport.Tcp.manip_checksum_bytes + s.Transport.Tcp.manip_copy_bytes
      + r.Transport.Tcp.manip_checksum_bytes + r.Transport.Tcp.manip_copy_bytes
    in
    let segs = s.Transport.Tcp.segs_sent in
    (control, manip_bytes, segs)
  in
  let cycles_per_byte =
    (Machine_model.cycles_per_word Machine_model.r2000 Machine_model.copy_kernel
    +. Machine_model.cycles_per_word Machine_model.r2000 Machine_model.checksum_kernel)
    /. 2.0 /. 4.0
    (* checksum bytes and copy bytes are counted separately, so cost each
       touched byte at its own kernel's rate; use the average *)
  in
  let control_cycles = 15.0 in
  Harness.row_header
    [ "ctl ops/seg"; "manip B/seg"; "ctl cycles"; "manip cycles"; "manip share" ];
  List.iter
    (fun mss ->
      let control, manip_bytes, segs = run mss in
      let ctl_c = float_of_int control *. control_cycles in
      let man_c = float_of_int manip_bytes *. cycles_per_byte in
      Harness.row
        (Printf.sprintf "mss = %d" mss)
        [
          Harness.f1 (float_of_int control /. float_of_int segs);
          Harness.f1 (float_of_int manip_bytes /. float_of_int segs);
          Printf.sprintf "%.0f" ctl_c;
          Printf.sprintf "%.0f" man_c;
          Harness.pct (man_c /. (man_c +. ctl_c));
        ])
    [ 64; 128; 256; 512; 1024; 2048; 4096 ];
  Harness.note
    "Shape: control is a few operations per segment regardless of size;\n\
     manipulation grows with the byte count and dominates at any realistic MSS.\n"

(* ------------------------------------------------------------------ *)
(* E22 — Control vs manipulation on the serve engine.                  *)
(* ------------------------------------------------------------------ *)

module Server = Alf_serve.Server
module Loadgen = Alf_serve.Loadgen

(* Every datagram of one Loadgen generation, with its source port:
   [sessions] sessions of four 64-byte ADUs and a CLOSE each. *)
let e22_datagrams ~sessions =
  let sent = ref [] in
  let io =
    {
      Dgram.send =
        (fun ~dst:_ ~dst_port:_ ~src_port buf ->
          sent := (src_port, Bytebuf.copy buf) :: !sent;
          true);
      bind = (fun ~port:_ _ -> ());
      max_payload = 65507;
    }
  in
  let gen =
    Loadgen.create ~io
      {
        Loadgen.default_config with
        Loadgen.sessions;
        adus_per_session = 4;
        payload_len = 64;
        server = 1;
      }
  in
  while Loadgen.step gen ~budget:1024 > 0 do
    ()
  done;
  Array.of_list (List.rev !sent)

(* One round: a fresh engine, no substrate, harvest off; a warm-up
   generation, then the measured one, 128 datagrams per ingest-then-pump
   turn as in the serve benchmarks. Per datagram: ingest ns and words,
   pump ns and words. *)
let e22_engine dgs =
  let engine = Engine.create () in
  let server =
    Server.create ~sched:(Engine.sched engine)
      ~registry:(Obs.Registry.create ())
      ~config:
        { Server.default_config with Server.harvest_interval = 0.; done_linger = 0. }
      ()
  in
  let acc = Float.Array.make 4 0. in
  let generation () =
    Float.Array.fill acc 0 4 0.;
    let i = ref 0 in
    while !i < Array.length dgs do
      let last = min (Array.length dgs) (!i + 128) in
      let t0 = Obs.Clock.now_ns () in
      let w0 = Gc.minor_words () in
      for j = !i to last - 1 do
        let src_port, dg = dgs.(j) in
        Server.ingest server ~src:5 ~src_port dg
      done;
      let w1 = Gc.minor_words () in
      let t1 = Obs.Clock.now_ns () in
      Server.pump server;
      let w2 = Gc.minor_words () in
      let t2 = Obs.Clock.now_ns () in
      Float.Array.set acc 0 (Float.Array.get acc 0 +. (t1 -. t0));
      Float.Array.set acc 1 (Float.Array.get acc 1 +. (w1 -. w0));
      Float.Array.set acc 2 (Float.Array.get acc 2 +. (t2 -. t1));
      Float.Array.set acc 3 (Float.Array.get acc 3 +. (w2 -. w1));
      i := last
    done;
    (* Clear the completed sessions and refill the admission buckets:
       the next generation reuses the same keys. *)
    Server.harvest server;
    Engine.run ~until:(Engine.now engine +. 10.) engine
  in
  generation ();
  generation ();
  Server.stop server;
  let n = float_of_int (Array.length dgs) in
  Array.init 4 (fun k -> Float.Array.get acc k /. n)

(* The stage-2 plan alone, the way the engine runs it on each delivered
   payload: the shard's compiled instance into the shard scratch. Per
   datagram (payloads / datagrams = 4/5): ns and words. *)
let e22_stage2 dgs =
  let pos = Framing.fragment_header_size + Adu.header_size in
  let payloads =
    Array.of_list
      (List.filter_map
         (fun (_, dg) ->
           if Bytebuf.get_uint8 dg 0 = Framing.frag_magic then
             Some (Bytebuf.sub dg ~pos ~len:64)
           else None)
         (Array.to_list dgs))
  in
  let plan = Server.default_config.Server.stage2_plan in
  let scratch = Bytebuf.create Server.default_config.Server.max_adu in
  let inst = Ilp.compile plan in
  let pass () = Array.iter (fun p -> Ilp.exec inst ~dst:scratch p) payloads in
  pass ();
  let t0 = Obs.Clock.now_ns () in
  let w0 = Gc.minor_words () in
  pass ();
  let w1 = Gc.minor_words () in
  let t1 = Obs.Clock.now_ns () in
  let n = float_of_int (Array.length dgs) in
  [| (t1 -. t0) /. n; (w1 -. w0) /. n |]

let e22_serve_dispatch () =
  Harness.heading "E22: control vs manipulation on the serve engine";
  Harness.note
    "Loadgen datagrams fed in process to Server.ingest and pump (no\n\
     substrate, harvest off), 4 ADUs of 64 B and a CLOSE per session,\n\
     after a warm-up generation. Per datagram: stage 0 (ingest), the\n\
     dispatch without stage 2 (pump minus the plan), and the stage-2\n\
     plan alone (CRC-32 + deliver-copy through the engine's entry\n\
     point). Medians of %d interleaved repeats.\n\n"
    5;
  let sizes = [ 100; 10_000 ] in
  let dgs = List.map (fun sessions -> (sessions, e22_datagrams ~sessions)) sizes in
  let repeats = 5 in
  let samples = Hashtbl.create 8 in
  for _ = 1 to repeats do
    List.iter
      (fun (sessions, d) ->
        let e = e22_engine d and s2 = e22_stage2 d in
        let prev = Option.value (Hashtbl.find_opt samples sessions) ~default:[] in
        Hashtbl.replace samples sessions (Array.append e s2 :: prev))
      dgs
  done;
  let median k rows =
    let a = Array.of_list (List.map (fun r -> r.(k)) rows) in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  Harness.row_header
    [ "stage0 ns"; "w"; "dispatch ns"; "w"; "stage2 ns"; "w"; "pump ns"; "w" ];
  List.iter
    (fun sessions ->
      let rows = Hashtbl.find samples sessions in
      let m k = median k rows in
      let ingest_ns = m 0 and ingest_w = m 1 and pump_ns = m 2 and pump_w = m 3
      and s2_ns = m 4 and s2_w = m 5 in
      let disp_ns = pump_ns -. s2_ns and disp_w = pump_w -. s2_w in
      Harness.row
        (Printf.sprintf "%d sessions" sessions)
        [
          Harness.f1 ingest_ns;
          Harness.f1 ingest_w;
          Harness.f1 disp_ns;
          Harness.f1 disp_w;
          Harness.f1 s2_ns;
          Harness.f1 s2_w;
          Harness.f1 pump_ns;
          Harness.f1 pump_w;
        ];
      Harness.record_row
        ~name:(Printf.sprintf "sessions-%d" sessions)
        Obs.Json.
          [
            ("stage0_ns", Num ingest_ns);
            ("stage0_words", Num ingest_w);
            ("dispatch_ns", Num disp_ns);
            ("dispatch_words", Num disp_w);
            ("stage2_ns", Num s2_ns);
            ("stage2_words", Num s2_w);
            ("pump_ns", Num pump_ns);
            ("pump_words", Num pump_w);
          ])
    sizes;
  Harness.note
    "Shape: E8 on our own engine. The paper prices control at tens of\n\
     instructions beside the manipulation; here stage 0 and the dispatch\n\
     still cost several times the 64-byte CRC-32 and copy. Words per\n\
     datagram stay flat from 10^2 to 10^4 sessions.\n"

(* ------------------------------------------------------------------ *)
(* E9 — Recovery-policy ablation.                                      *)
(* ------------------------------------------------------------------ *)

let e9_recovery_policies () =
  Harness.heading "E9: the three ALF recovery policies under 5% loss";
  let adu_size = 2000 in
  let count = 100 in
  let run policy =
    let engine = Engine.create () in
    let rng = Rng.create ~seed:424242L in
    let net =
      Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.05)
        ~queue_limit:2048 ~bandwidth_bps:10e6 ~delay:0.01 ~a:1 ~b:2 ()
    in
    let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
    let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
    let receiver =
      Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:9 ~stream:1 ~deliver:(fun _ -> ()) ()
    in
    let sender =
      Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:9 ~port:10 ~stream:1
        ~policy ()
    in
    for i = 0 to count - 1 do
      Alf_transport.send_adu sender
        (Adu.make
           (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1 ~index:i ())
           (Bytebuf.init adu_size (fun j -> Char.chr ((i + j) land 0xff))))
    done;
    let completed_at = ref nan in
    Alf_transport.on_complete receiver (fun () -> completed_at := Engine.now engine);
    Alf_transport.close sender;
    Engine.run ~until:600.0 engine;
    let s = Alf_transport.sender_stats sender in
    let r = Alf_transport.receiver_stats receiver in
    ( !completed_at,
      s.Alf_transport.store_peak,
      s.Alf_transport.bytes_retransmitted,
      r.Alf_transport.adus_delivered,
      r.Alf_transport.adus_lost )
  in
  let regenerate i =
    let adu =
      Adu.make
        (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1 ~index:i ())
        (Bytebuf.init adu_size (fun j -> Char.chr ((i + j) land 0xff)))
    in
    Some (Adu.encode adu)
  in
  Harness.row_header
    [ "sim time(s)"; "store peak(B)"; "rexmit(B)"; "delivered"; "lost" ];
  List.iter
    (fun (label, policy) ->
      let time, peak, rexmit, delivered, lost = run policy in
      Harness.row label
        [
          Harness.f2 time;
          string_of_int peak;
          string_of_int rexmit;
          string_of_int delivered;
          string_of_int lost;
        ])
    [
      ("transport-buffer", Recovery.Transport_buffer);
      ("app-recompute", Recovery.App_recompute regenerate);
      ("no-recovery", Recovery.No_recovery);
    ];
  Harness.note
    "Shape: transport buffering pays memory for zero app involvement;\n\
     app-recompute trades sender memory for recomputation; no-recovery is\n\
     fastest and lossy - the application chooses (paper section 5).\n"

(* ------------------------------------------------------------------ *)
(* E10 — Error-detection ablation: the checksum family.                *)
(* ------------------------------------------------------------------ *)

let e10_checksum_ablation () =
  Harness.heading
    "E10 (ablation): error-detecting codes - throughput vs detection strength";
  let buf_len = 64 * 1024 in
  let base = fresh_workload () in
  let data = Bytebuf.take base buf_len in
  let rng = Rng.create ~seed:0xC0DEL in
  let trials = 3000 in
  (* Detection rates against three error models. *)
  let flip_byte b =
    let i = Rng.int rng ~bound:(Bytebuf.length b) in
    Bytebuf.set_uint8 b i (Bytebuf.get_uint8 b i lxor (1 + Rng.int rng ~bound:255))
  in
  let swap_words b =
    (* Transpose two aligned 16-bit words - the Internet checksum's blind
       spot (one's-complement addition commutes). *)
    let nwords = Bytebuf.length b / 2 in
    let i = Rng.int rng ~bound:nwords and j = Rng.int rng ~bound:nwords in
    if i <> j then
      for k = 0 to 1 do
        let tmp = Bytebuf.get_uint8 b ((2 * i) + k) in
        Bytebuf.set_uint8 b ((2 * i) + k) (Bytebuf.get_uint8 b ((2 * j) + k));
        Bytebuf.set_uint8 b ((2 * j) + k) tmp
      done
  in
  let burst b =
    let len = 2 + Rng.int rng ~bound:14 in
    let i = Rng.int rng ~bound:(Bytebuf.length b - len) in
    for k = i to i + len - 1 do
      Bytebuf.set_uint8 b k (Rng.int rng ~bound:256)
    done
  in
  let detection kind damage =
    let clean = Checksum.Kind.digest kind data in
    let detected = ref 0 in
    let changed = ref 0 in
    for _ = 1 to trials do
      let bad = Bytebuf.copy data in
      damage bad;
      if not (Bytebuf.equal bad data) then begin
        incr changed;
        if Checksum.Kind.digest kind bad <> clean then incr detected
      end
    done;
    if !changed = 0 then 1.0 else float_of_int !detected /. float_of_int !changed
  in
  Harness.row_header [ "Mb/s"; "1-byte flips"; "word swaps"; "bursts" ];
  List.iter
    (fun kind ->
      let speed =
        Harness.measure_mbps (Checksum.Kind.to_string kind) ~bytes:buf_len
          (fun () -> ignore (Checksum.Kind.digest kind data))
      in
      Harness.row
        (Checksum.Kind.to_string kind)
        [
          Harness.f1 speed;
          Harness.pct (detection kind flip_byte);
          Harness.pct (detection kind swap_words);
          Harness.pct (detection kind burst);
        ])
    Checksum.Kind.all;
  Harness.note
    "The design-choice trade the stage library exposes: the Internet checksum\n\
     is order-blind (word swaps sail through - one's-complement addition\n\
     commutes), Fletcher/Adler add position sensitivity, CRC-32 catches\n\
     everything tried here. Throughputs of the byte-wise reference paths are\n\
     comparable on this host; ALF lets each application pick per-ADU, because\n\
     the checksum is just a stage.\n"

(* ------------------------------------------------------------------ *)
(* E11 — ADU-level FEC vs NACK retransmission (footnote 10).           *)
(* ------------------------------------------------------------------ *)

let e11_fec_vs_retransmission () =
  Harness.heading
    "E11 (ablation): repairing fragment loss - XOR FEC vs NACK retransmission";
  let n_adus = 200 in
  let adu_size = 6000 in
  let mtu = 1000 in
  (* NACK path: the ALF transport through the simulator. *)
  let nack_run loss =
    let engine = Engine.create () in
    let rng = Rng.create ~seed:0xFECL in
    let net =
      Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
        ~queue_limit:4096 ~bandwidth_bps:50e6 ~delay:0.02 ~a:1 ~b:2 ()
    in
    let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
    let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
    let receiver =
      Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:9 ~stream:1 ~deliver:(fun _ -> ()) ()
    in
    let done_at = ref nan in
    Alf_transport.on_complete receiver (fun () -> done_at := Engine.now engine);
    let sender =
      Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:9 ~port:10 ~stream:1
        ~policy:Recovery.Transport_buffer
        ~config:
          { Alf_transport.default_sender_config with
            Alf_transport.mtu;
            pace_bps = Some 45e6 (* out-of-band rate control *) } ()
    in
    for i = 0 to n_adus - 1 do
      Alf_transport.send_adu sender
        (Adu.make (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1 ~index:i ())
           (Bytebuf.create adu_size))
    done;
    Alf_transport.close sender;
    Engine.run ~until:600.0 engine;
    let s = Alf_transport.sender_stats sender in
    let wire = s.Alf_transport.bytes_sent + s.Alf_transport.bytes_retransmitted in
    (!done_at, wire, 1.0)
  in
  (* FEC path: the same fragments protected k=7+1 and pushed through the
     same loss process; no feedback channel at all, so "completion" is
     one one-way trip - we report delivered fraction instead. *)
  let fec_run loss =
    let rng = Rng.create ~seed:0xFEDL in
    let k = 7 in
    let complete = ref 0 in
    let wire = ref 0 in
    for i = 0 to n_adus - 1 do
      let adu =
        Adu.make (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1 ~index:i ())
          (Bytebuf.create adu_size)
      in
      let frags = Framing.fragment ~mtu adu in
      let protected_frags = Fec.protect ~k frags in
      let got = ref 0 in
      let reasm =
        Framing.reassembler ~deliver:(fun _ -> incr complete) ()
      in
      let v = Framing.view () in
      let d =
        Fec.decoder ~deliver:(fun frag ->
            incr got;
            match Framing.read v None frag with
            | Framing.Valid -> Framing.push reasm v
            | _ -> ())
          ()
      in
      List.iter
        (fun b ->
          wire := !wire + Bufkit.Bytebuf.length b;
          if not (Rng.bool rng ~p:loss) then Fec.push d b)
        protected_frags;
      Fec.flush d
    done;
    (float_of_int !complete /. float_of_int n_adus, !wire)
  in
  Harness.row_header
    [ "NACK done(s)"; "NACK wire(kB)"; "FEC delivered"; "FEC wire(kB)" ];
  List.iter
    (fun loss ->
      let nack_time, nack_wire, _ = nack_run loss in
      let fec_frac, fec_wire = fec_run loss in
      Harness.row
        (Printf.sprintf "loss = %.0f%%" (loss *. 100.0))
        [
          Harness.f2 nack_time;
          string_of_int (nack_wire / 1000);
          Harness.pct fec_frac;
          string_of_int (fec_wire / 1000);
        ])
    [ 0.0; 0.01; 0.02; 0.05; 0.10 ];
  Harness.note
    "The paper's footnote 10 option: pay ~1/k constant overhead and repair any\n\
     single fragment loss per group with zero feedback delay; NACK repair pays\n\
     only for actual losses but each costs a round trip (and the sender's\n\
     buffer). Beyond one loss per group FEC alone degrades - real systems\n\
     combine both.\n"

(* ------------------------------------------------------------------ *)
(* E12 — §7 parallel sink: fused stage-2 plans across worker domains.  *)
(* ------------------------------------------------------------------ *)

let e12_ilp_parallel () =
  Harness.heading
    "E12: parallel stage-2 - one fused ILP plan per ADU, sharded over N domains, Mb/s";
  let n_adus = 64 in
  let adu_size = 16 * 1024 in
  let total = n_adus * adu_size in
  let rng = Rng.create ~seed:0x12DL in
  let adus =
    Array.init n_adus (fun i ->
        let payload = Bytebuf.create adu_size in
        Rng.fill_bytes rng payload;
        Adu.make
          (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1
             ~index:i ())
          payload)
  in
  let plan (_ : Adu.t) =
    [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ]
  in
  let dst = Bytebuf.create total in
  (* Correctness gate before any timing: the parallel sink must be
     byte-identical to the layered reference, merged checksum included,
     whatever order the worker domains finish in. *)
  let reference =
    Array.map (fun (a : Adu.t) -> Ilp.run_layered (plan a) a.Adu.payload) adus
  in
  let ref_merged =
    Ilp_par.merge_checksums
      (Array.map (fun (r : Ilp.result) -> r.Ilp.checksums) reference)
  in
  Par.Pool.with_pool ~domains:4 (fun pool ->
      let outcome = Ilp_par.run ~pool ~dst ~plan adus in
      Array.iteri
        (fun i (r : Ilp.result) ->
          assert (Bytebuf.equal r.Ilp.output reference.(i).Ilp.output))
        outcome.Ilp_par.results;
      assert (outcome.Ilp_par.merged_checksums = ref_merged));
  let serial =
    Harness.measure_mbps "serial" ~bytes:total (fun () ->
        Array.iter
          (fun (a : Adu.t) -> ignore (Ilp.run_layered (plan a) a.Adu.payload))
          adus)
  in
  let fused domains =
    let name = Printf.sprintf "fused-x%d" domains in
    if domains = 1 then
      Harness.measure_mbps name ~bytes:total (fun () ->
          ignore (Ilp_par.run ~dst ~plan adus))
    else
      Par.Pool.with_pool ~domains (fun pool ->
          Harness.measure_mbps name ~bytes:total (fun () ->
              ignore (Ilp_par.run ~pool ~dst ~plan adus)))
  in
  let f1 = fused 1 in
  let f2 = fused 2 in
  let f4 = fused 4 in
  Harness.row_header [ "Mb/s"; "vs serial"; "vs fused-x1" ];
  Harness.row "serial (layered, 1 domain)"
    [ Harness.f1 serial; "1.00x"; "-" ];
  let show name v =
    Harness.row name
      [
        Harness.f1 v;
        Printf.sprintf "%.2fx" (v /. serial);
        Printf.sprintf "%.2fx" (v /. f1);
      ]
  in
  show "fused x1 domain" f1;
  show "fused x2 domains" f2;
  show "fused x4 domains" f4;
  (* The degradation rule, exercised: an Rc4 plan poisons out-of-order
     processing, so the engine runs the batch serially and says so. *)
  let rc4_plan (_ : Adu.t) =
    [ Ilp.Rc4_stream { key = "k" }; Ilp.Deliver_copy ]
  in
  let fallback =
    Par.Pool.with_pool ~domains:4 (fun pool ->
        Ilp_par.run ~pool ~plan:rc4_plan adus)
  in
  assert (fallback.Ilp_par.parallel_adus = 0);
  assert (fallback.Ilp_par.serial_fallback = n_adus);
  Harness.note
    "%d ADUs x %d KiB, plan = [checksum; deliver]. This host has %d core(s):\n\
     speedup needs real cores, so judge the x2/x4 rows on a multi-core runner\n\
     (expect ~Nx for this memory-light plan; the rows land in BENCH_ilp.json\n\
     either way). An Rc4 plan degraded to serial as required: parallel=%d,\n\
     serial_fallback=%d of %d.\n"
    n_adus (adu_size / 1024)
    (Domain.recommended_domain_count ())
    fallback.Ilp_par.parallel_adus fallback.Ilp_par.serial_fallback n_adus

(* ------------------------------------------------------------------ *)
(* E14 — the plan compiler: general block-at-a-time fusion and the    *)
(* pooled zero-copy receive path.                                     *)
(* ------------------------------------------------------------------ *)

let e14_ilp_compile () =
  Harness.heading "E14: compiled plans - general block-at-a-time fusion, Mb/s";
  let bytes = 65536 in
  let src = Bytebuf.take (fresh_workload ()) bytes in
  (* Coverage first: every valid shape must dispatch to the compiler. The
     interpreter survives only as the oracle (and inside Rc4 byte tails). *)
  let coverage =
    [
      [];
      [ Ilp.Deliver_copy ];
      [ Ilp.Checksum Checksum.Kind.Crc32 ];
      [ Ilp.Byteswap32; Ilp.Deliver_copy ];
      [ Ilp.Rc4_stream { key = "cov" }; Ilp.Deliver_copy ];
      List.map (fun k -> Ilp.Checksum k) Checksum.Kind.all;
      [
        Ilp.Byteswap32;
        Ilp.Checksum Checksum.Kind.Fletcher32;
        Ilp.Xor_pad { key = 1L; pos = 9L };
        Ilp.Checksum Checksum.Kind.Adler32;
        Ilp.Deliver_copy;
      ];
    ]
  in
  List.iter
    (fun plan ->
      let r = Ilp.run_fused plan src in
      if not r.Ilp.compiled then
        failwith "E14: a valid plan fell back to interpretation")
    coverage;
  let plans =
    [
      (* The acceptance plan: the paper's decrypt+checksum+move triple. *)
      ( "3stage",
        [
          Ilp.Xor_pad { key = 42L; pos = 0L };
          Ilp.Checksum Checksum.Kind.Internet;
          Ilp.Deliver_copy;
        ] );
      (* General shapes with no hand-written kernel: only the compiler
         runs these fused. *)
      ( "bswap-crc32",
        [ Ilp.Byteswap32; Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ] );
      ( "dual-cksum",
        [
          Ilp.Checksum Checksum.Kind.Internet;
          Ilp.Xor_pad { key = 7L; pos = 5L };
          Ilp.Checksum Checksum.Kind.Fletcher32;
          Ilp.Deliver_copy;
        ] );
      (* Inherently serial stage: a byte-at-a-time keystream, XORed a
         byte at a time inside each block — the compiler's worst case. *)
      ( "rc4",
        [
          Ilp.Rc4_stream { key = "bench-key" };
          Ilp.Checksum Checksum.Kind.Internet;
          Ilp.Deliver_copy;
        ] );
    ]
  in
  Harness.row_header
    [ "serial (layered)"; "interpreted"; "compiled"; "compiled/serial" ];
  let ratios =
    List.map
      (fun (name, plan) ->
        let r = Ilp.run_fused plan src in
        let o = Ilp.run_fused_interpreted plan src in
        assert (r.Ilp.compiled && not o.Ilp.compiled);
        assert (Bytebuf.equal r.Ilp.output o.Ilp.output);
        assert (r.Ilp.checksums = o.Ilp.checksums);
        let serial =
          Harness.measure_mbps (name ^ "/serial") ~bytes (fun () ->
              ignore (Ilp.run_layered plan src))
        in
        let interp =
          Harness.measure_mbps (name ^ "/interpreted") ~bytes (fun () ->
              ignore (Ilp.run_fused_interpreted plan src))
        in
        let fused =
          Harness.measure_mbps (name ^ "/compiled") ~bytes (fun () ->
              ignore (Ilp.run_fused plan src))
        in
        Harness.row name
          [
            Harness.f1 serial;
            Harness.f1 interp;
            Harness.f1 fused;
            Printf.sprintf "%.2fx" (fused /. serial);
          ];
        (name, fused /. serial))
      plans
  in
  (* The gated ratios of the acceptance plan, each pair timed again in
     interleaved windows and reduced to the median, as E2 does. *)
  let plan = List.assoc "3stage" plans in
  let compiled () = ignore (Ilp.run_fused plan src) in
  let paired m slow =
    Harness.paired_speedup ~name:("3stage/" ^ m) compiled slow
  in
  let vs_serial =
    paired "compiled-vs-serial" (fun () -> ignore (Ilp.run_layered plan src))
  in
  let vs_interp =
    paired "compiled-vs-interpreted" (fun () ->
        ignore (Ilp.run_fused_interpreted plan src))
  in
  Harness.record_row ~name:"3stage/gate"
    [
      ("compiled_vs_serial", Obs.Json.Num vs_serial);
      ("compiled_vs_interpreted", Obs.Json.Num vs_interp);
    ];
  Harness.note
    "3stage paired medians: compiled/serial %.2fx | compiled/interpreted %.2fx\n"
    vs_serial vs_interp;
  (* The pooled receive path: stage-1 reassembly out of a buffer pool,
     stage-2 fused decrypt+verify into pooled output slices. After one
     warmup ADU, the path performs zero Bytebuf allocations per ADU. *)
  let adu_bytes = 8192 in
  let key = 0xFEEDL in
  let reasm_pool = Pool.create ~buf_size:(adu_bytes + 64) () in
  let out_pool = Pool.create ~buf_size:adu_bytes () in
  let processed = ref 0 in
  let stage =
    Stage2.create ~out_pool
      ~plan:(Stage2.decrypt_verify_at ~key)
      ~deliver:(fun _ -> incr processed)
      ()
  in
  let reasm = Framing.reassembler ~pool:reasm_pool ~deliver:(Stage2.deliver_fn stage) () in
  let payload = Bytebuf.take (fresh_workload ()) adu_bytes in
  let frags =
    Framing.fragment ~mtu:1500
      (Adu.make
         (Adu.name ~stream:0 ~index:0 ~dest_off:0 ~dest_len:adu_bytes ())
         payload)
  in
  (* Each push re-opens index 0 ([unretire] drops the mark its last
     completion left), so every one reassembles and delivers. Each
     fragment is read in place, as a receiver reads it. *)
  let v = Framing.view () in
  let pushes = ref 0 in
  let push_adu () =
    Framing.unretire reasm ~index:0;
    List.iter
      (fun dg ->
        if Framing.read v None dg = Framing.Valid then Framing.push reasm v)
      frags;
    incr pushes
  in
  push_adu () (* warm the pools *);
  let snap = Bytebuf.created_total () in
  let rounds = 512 in
  for _ = 1 to rounds do
    push_adu ()
  done;
  let creates = Bytebuf.created_total () - snap in
  if creates <> 0 then
    failwith
      (Printf.sprintf "E14: pooled receive allocated %d buffers in %d ADUs"
         creates rounds);
  let rx = Harness.measure_mbps "pooled-receive" ~bytes:adu_bytes push_adu in
  if !processed <> !pushes then
    failwith
      (Printf.sprintf "E14: pooled receive delivered %d ADUs for %d pushes"
         !processed !pushes);
  Harness.note
    "Pooled receive (reassemble + fused decrypt/verify, %d-byte ADUs):\n\
    \  %.1f Mb/s, %d Bytebuf allocations across %d steady-state ADUs\n\
    \  (0 per ADU; counter bufkit.bytebuf.created via Bytebuf.created_total).\n"
    adu_bytes rx creates rounds;
  ignore ratios

(* ------------------------------------------------------------------ *)
(* E15 — fused presentation conversion: the marshaller as ILP stage.   *)
(* ------------------------------------------------------------------ *)

let e15_ilp_marshal () =
  Harness.heading
    "E15: fused marshal+checksum vs encode-then-checksum-then-copy, Mb/s";
  (* A presentation-heavy ADU: many small typed records, the regime where
     the paper's conversion+checksum integration (28 -> 24 Mb/s) applies. *)
  let value =
    Wire.Value.List
      (List.init 2048 (fun i ->
           Wire.Value.Record
             [
               ("seq", Wire.Value.Int i);
               ("stamp", Wire.Value.Int64 (Int64.of_int (i * 1_000_003)));
               ("tag", Wire.Value.Utf8 "sensor");
               ("payload", Wire.Value.int_array [| i; i + 1; i + 2; i + 3 |]);
             ]))
  in
  let plan = [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ] in
  let codec name source encode =
    let n = Ilp.marshal_size source in
    let dst = Bytebuf.create n in
    let host m fn = Harness.measure_mbps (name ^ "/" ^ m) ~bytes:n fn in
    let encode_run () = ignore (encode ())
    and marshal_run () = ignore (Ilp.run_marshal ~dst source [])
    (* The layered composition: a finished encoding, then a checksum pass
       over it, then the delivering copy — three walks. *)
    and serial_run () = ignore (Ilp.run_layered plan (encode ()))
    and fused_run () = ignore (Ilp.run_marshal ~dst source plan) in
    let enc = host "encode-only" encode_run in
    let mar = host "marshal-only" marshal_run in
    let serial = host "serial" serial_run in
    let fused = host "fused" fused_run in
    (* The gated ratios, each pair timed again in interleaved windows and
       reduced to the median, as E2 does: the rows sit close enough that
       a host-speed swing between two separate windows can pass for a
       regression. *)
    let paired m slow =
      Harness.paired_speedup ~name:(name ^ "/" ^ m) fused_run slow
    in
    let vs_serial = paired "fused-vs-serial" serial_run in
    let vs_encode = paired "fused-vs-encode-only" encode_run in
    let vs_marshal = paired "fused-vs-marshal-only" marshal_run in
    Harness.record_row ~name:(name ^ "/gate")
      [
        ("fused_vs_serial", Obs.Json.Num vs_serial);
        ("fused_vs_encode_only", Obs.Json.Num vs_encode);
        ("fused_vs_marshal_only", Obs.Json.Num vs_marshal);
      ];
    Harness.subheading
      (Printf.sprintf "%s (%d bytes on the wire)" name n);
    Harness.row_header [ "Mb/s" ];
    Harness.row "encode alone (cursor walk)" [ Harness.f1 enc ];
    Harness.row "fused marshal, no stages" [ Harness.f1 mar ];
    Harness.row "serial: encode; checksum; copy" [ Harness.f1 serial ];
    Harness.row "fused: marshal+checksum+deliver" [ Harness.f1 fused ];
    Harness.note
      "  paired medians: fused/serial %.2fx | fused vs encode-only %.2fx | \
       fused vs marshal-only %.2fx\n\
      \  (paper: integrating the checksum into conversion cost 28 -> 24 Mb/s,\n\
      \  0.86x of conversion alone, where the serial composition would have\n\
      \  paid two further full passes)\n"
      vs_serial vs_encode vs_marshal
  in
  let schema = Wire.Xdr.schema_of_value value in
  codec "xdr"
    (Ilp.Marshal_prog (Wire.Schema.prog_of_xdr schema, value))
    (fun () -> Wire.Xdr.encode schema value);
  codec "ber" (Ilp.Marshal_ber value) (fun () -> Wire.Ber.encode value)

(* ------------------------------------------------------------------ *)
(* E19 — schema-compiled presentation: marshal without walking the     *)
(* value tags, validate-then-view instead of eager decode.             *)
(* ------------------------------------------------------------------ *)

let e19_schema_marshal () =
  Harness.heading
    "E19: schema-compiled marshal and lazy validate-view vs the interpreters";
  (* The E15 presentation-heavy shape, so the compiled/interpretive gap
     is measured on the same regime the fused-marshal experiment used. *)
  let value =
    Wire.Value.List
      (List.init 2048 (fun i ->
           Wire.Value.Record
             [
               ("seq", Wire.Value.Int i);
               ("stamp", Wire.Value.Int64 (Int64.of_int (i * 1_000_003)));
               ("tag", Wire.Value.Utf8 "sensor");
               ("payload", Wire.Value.int_array [| i; i + 1; i + 2; i + 3 |]);
             ]))
  in
  let schema = Wire.Xdr.schema_of_value value in
  let prog = Wire.Schema.prog_of_xdr schema in
  let plan = [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ] in
  let n = Ilp.marshal_size (Ilp.Marshal_prog (prog, value)) in
  let dst = Bytebuf.create n in
  let host m fn = Harness.measure_mbps ("xdr/" ^ m) ~bytes:n fn in
  (* Transmit: the same fused marshal+checksum+deliver pass, interpreted
     (tag dispatch per node) vs compiled (the held schema op-program),
     plus the raw copy that bounds them both. *)
  let interp_run () =
    ignore (Ilp.run_marshal ~dst (Ilp.Marshal_xdr_interp (schema, value)) plan)
  and compiled_run () =
    ignore (Ilp.run_marshal ~dst (Ilp.Marshal_prog (prog, value)) plan)
  in
  let interp = host "interp-fused" interp_run in
  let compiled = host "compiled-fused" compiled_run in
  let encoded = Wire.Xdr.encode schema value in
  let raw =
    host "raw-copy" (fun () ->
        Bytebuf.blit ~src:encoded ~src_pos:0 ~dst ~dst_pos:0 ~len:n)
  in
  (* Receive: eager decode (materialize the Value.t) vs the validate
     pass that backs the lazy view — both behind the same plan. *)
  let rx_plan = [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ] in
  let rx_dst = Bytebuf.create n in
  let decode_run () =
    ignore
      (Ilp.run_unmarshal ~dst:rx_dst rx_plan (Ilp.Unmarshal_xdr schema) encoded)
  and view_run () = ignore (Ilp.run_view ~dst:rx_dst rx_plan prog encoded) in
  let decode = host "decode-fused" decode_run in
  let view = host "view-fused" view_run in
  (* The gated ratios, timed in interleaved pairs and medianed as E2
     does. *)
  let paired m fast slow = Harness.paired_speedup ~name:("xdr/" ^ m) fast slow in
  let compiled_vs_interp = paired "compiled-vs-interp" compiled_run interp_run in
  let view_vs_decode = paired "view-vs-decode" view_run decode_run in
  Harness.subheading (Printf.sprintf "xdr (%d bytes on the wire)" n);
  Harness.row_header [ "Mb/s" ];
  Harness.row "tx interpreted: fused marshal" [ Harness.f1 interp ];
  Harness.row "tx compiled: schema op-program" [ Harness.f1 compiled ];
  Harness.row "tx bound: raw copy of the encoding" [ Harness.f1 raw ];
  Harness.row "rx eager: fused decode to Value.t" [ Harness.f1 decode ];
  Harness.row "rx lazy: fused validate -> view" [ Harness.f1 view ];
  Harness.note
    "  paired medians: compiled/interp %.2fx \
     (raw copy bounds it at %.0fx compiled)\n\
    \  view/decode %.2fx (validation is the whole per-byte cost of receive)\n"
    compiled_vs_interp (raw /. compiled) view_vs_decode;
  (* The gate row: the paired ratios and steady-state Bytebuf and GC-word
     counts on both directions, machine-readable for perfcheck --schema. *)
  let tx_run = compiled_run and rx_run = view_run in
  for _ = 1 to 5 do tx_run (); rx_run () done;
  let before = Bytebuf.created_total () in
  let words_before = Gc.minor_words () in
  for _ = 1 to 50 do tx_run () done;
  let tx_words = (Gc.minor_words () -. words_before) /. 50.0 in
  let tx_allocs = Bytebuf.created_total () - before in
  let before = Bytebuf.created_total () in
  let words_before = Gc.minor_words () in
  for _ = 1 to 50 do rx_run () done;
  let rx_words = (Gc.minor_words () -. words_before) /. 50.0 in
  let rx_allocs = Bytebuf.created_total () - before in
  Harness.record_row ~name:"gate"
    [
      ("compiled_vs_interp", Obs.Json.Num compiled_vs_interp);
      ("view_vs_decode", Obs.Json.Num view_vs_decode);
      ("steady_allocs", Obs.Json.num_of_int tx_allocs);
      ("rx_steady_allocs", Obs.Json.num_of_int rx_allocs);
      ("tx_words_per_run", Obs.Json.Num tx_words);
      ("rx_words_per_run", Obs.Json.Num rx_words);
    ];
  Harness.note
    "  steady state: %d tx / %d rx Bytebuf allocations over 50 rounds each; \
     %.0f GC words per %d-byte fused marshal, %.0f per view\n"
    tx_allocs rx_allocs tx_words n rx_words

let e20_secure_record () =
  Harness.heading
    "E20: fused AEAD record layer vs the layered encrypt-then-MAC composition";
  (* The E15/E19 presentation-heavy shape again, so the record layer is
     measured on the same regime as the marshal experiments: the fused
     row is marshal + ChaCha20 + Poly1305 + CRC-32 framing in ONE pass. *)
  let value =
    Wire.Value.List
      (List.init 2048 (fun i ->
           Wire.Value.Record
             [
               ("seq", Wire.Value.Int i);
               ("stamp", Wire.Value.Int64 (Int64.of_int (i * 1_000_003)));
               ("tag", Wire.Value.Utf8 "sensor");
               ("payload", Wire.Value.int_array [| i; i + 1; i + 2; i + 3 |]);
             ]))
  in
  let prog = Wire.Schema.prog_of_xdr (Wire.Xdr.schema_of_value value) in
  let source = Ilp.Marshal_prog (prog, value) in
  let n = Ilp.marshal_size source in
  let dst = Bytebuf.create n in
  let rc = Secure.Record.of_int64 0xE20BE7CA57L in
  let name = Adu.name ~dest_off:0 ~dest_len:n ~stream:7 ~index:0 () in
  let p = Secure.Record.seal_params rc name in
  (* One immutable AAD copy so every row MACs identical bytes without
     touching the record handle's scratch inside the timed loop. *)
  let aad = Bytebuf.create (Bytebuf.length p.Ilp.aead_aad) in
  Bytebuf.blit ~src:p.Ilp.aead_aad ~src_pos:0 ~dst:aad ~dst_pos:0
    ~len:(Bytebuf.length aad);
  let p = { p with Ilp.aead_aad = aad } in
  let host m fn = Harness.measure_mbps ("xdr/" ^ m) ~bytes:n fn in
  let tx_plan =
    [ Ilp.Aead_seal p; Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ]
  in
  let mar =
    host "marshal-only" (fun () -> ignore (Ilp.run_marshal ~dst source []))
  in
  (* The serial baseline: the layered reference stack a classical suite
     pays for the same record. Each layer owns its PDU — presentation
     encodes into a fresh buffer, the security layer copies it and runs
     encrypt-then-MAC byte by byte, the framing layer copies again and
     checksums byte by byte — processing at the byte grain the era's
     layered implementations worked at (the same grain as the E2/E14
     interpreted ablation; satellite §5 measures the RC4 byte-chain
     version of the same pathology). *)
  let serial_run () =
    let enc = (Ilp.run_marshal source []).Ilp.output in
    let ct = Bytebuf.copy enc in
    let a =
      Cipher.Aead.create ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
        ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2 ~aad
    in
    let bytes, base, len = Bytebuf.backing ct in
    for i = 0 to len - 1 do
      Bytes.unsafe_set bytes (base + i)
        (Char.unsafe_chr
           (Cipher.Aead.seal_byte a i
              (Char.code (Bytes.unsafe_get bytes (base + i)))))
    done;
    ignore (Cipher.Aead.tag a);
    let frame = Bytebuf.copy ct in
    let fb, fbase, _ = Bytebuf.backing frame in
    let st = ref Checksum.Crc32.init in
    for i = 0 to len - 1 do
      st :=
        Checksum.Crc32.feed_byte !st
          (Char.code (Bytes.unsafe_get fb (fbase + i)))
    done;
    ignore (Checksum.Crc32.finish !st)
  in
  let serial = host "serial" serial_run in
  (* The same composition hand-optimised to word grain, buffers reused:
     the upper bound for any layered implementation — encode, an
     encryption walk, a MAC walk (AAD ‖ pad ‖ ct ‖ pad ‖ lengths, per
     RFC 8439), a framing-checksum walk — four word-level passes where
     the plan compiler does one. *)
  let serial_words_run () =
    ignore (Ilp.run_marshal ~dst source []);
    let st =
      Cipher.Chacha20.create ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
        ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2
    in
    Cipher.Chacha20.transform_at st ~pos:0 dst;
    let k0, k1, k2, k3 = Cipher.Chacha20.poly_key st in
    let mac = Cipher.Poly1305.create ~k0 ~k1 ~k2 ~k3 in
    Cipher.Poly1305.feed_sub mac aad;
    Cipher.Poly1305.pad16 mac;
    Cipher.Poly1305.feed_sub mac dst;
    Cipher.Poly1305.pad16 mac;
    Cipher.Poly1305.feed_word64 mac (Int64.of_int (Bytebuf.length aad));
    Cipher.Poly1305.feed_word64 mac (Int64.of_int n);
    ignore (Cipher.Poly1305.finish mac);
    ignore
      (Checksum.Crc32.finish
         (Checksum.Crc32.feed_sub Checksum.Crc32.init dst ~pos:0 ~len:n))
  in
  let serial_words = host "serial-words" serial_words_run in
  (* The stronger baseline: encrypt+MAC already fused per walk
     (seal_in_place), leaving encode, seal and checksum as three passes. *)
  let seal_crc_run () =
    ignore (Ilp.run_marshal ~dst source []);
    ignore
      (Cipher.Aead.seal_in_place ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
         ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2 ~aad dst);
    ignore
      (Checksum.Crc32.finish
         (Checksum.Crc32.feed_sub Checksum.Crc32.init dst ~pos:0 ~len:n))
  in
  let seal_crc = host "seal-then-checksum" seal_crc_run in
  (* The per-byte compute floor the record layer adds, kernel by kernel,
     block-grain over the same bytes: what every composition above pays
     on top of the marshal, fused or not. *)
  let db, dbase, _ = Bytebuf.backing dst in
  let blocks = n / 64 in
  let ks =
    Cipher.Chacha20.create ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
      ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2
  in
  let chacha =
    host "chacha20-blocks" (fun () ->
        for k = 0 to blocks - 1 do
          Cipher.Chacha20.xor_block64 ks ~pos:(64 * k) db
            ~off:(dbase + (64 * k))
        done)
  in
  let poly =
    let k0, k1, k2, k3 = Cipher.Chacha20.poly_key ks in
    host "poly1305-blocks" (fun () ->
        let mac = Cipher.Poly1305.create ~k0 ~k1 ~k2 ~k3 in
        for k = 0 to blocks - 1 do
          Cipher.Poly1305.feed_block64 mac db (dbase + (64 * k))
        done)
  in
  let crc =
    host "crc32-blocks" (fun () ->
        let st = ref Checksum.Crc32.init in
        for k = 0 to blocks - 1 do
          st := Checksum.Crc32.feed_block64 !st db (dbase + (64 * k))
        done)
  in
  let fused_run () = ignore (Ilp.run_marshal ~dst source tx_plan) in
  let fused = host "fused" fused_run in
  (* Receive: the record open — MAC over the ciphertext and the decrypt —
     fused into one in-place walk vs the two-walk MAC-then-decrypt. *)
  let sealed = Bytebuf.create n in
  let reseal () =
    ignore (Ilp.run_marshal ~dst:sealed source []);
    ignore
      (Cipher.Aead.seal_in_place ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
         ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2 ~aad sealed)
  in
  reseal ();
  let ct_copy = Bytebuf.create n in
  Bytebuf.blit ~src:sealed ~src_pos:0 ~dst:ct_copy ~dst_pos:0 ~len:n;
  let restore () =
    Bytebuf.blit ~src:ct_copy ~src_pos:0 ~dst:sealed ~dst_pos:0 ~len:n
  in
  (* Layered receiver at the byte grain, mirroring the [serial] sender:
     the framing layer checks its CRC and strips (a pass and a copy),
     the security layer MACs and decrypts (two more passes), each walk
     one byte at a time. *)
  let open_serial_run () =
    let bytes, base, len = Bytebuf.backing sealed in
    let st = ref Checksum.Crc32.init in
    for i = 0 to len - 1 do
      st :=
        Checksum.Crc32.feed_byte !st
          (Char.code (Bytes.unsafe_get bytes (base + i)))
    done;
    ignore (Checksum.Crc32.finish !st);
    let ct = Bytebuf.copy sealed in
    let cb, cbase, _ = Bytebuf.backing ct in
    let ks =
      Cipher.Chacha20.create ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
        ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2
    in
    let k0, k1, k2, k3 = Cipher.Chacha20.poly_key ks in
    let mac = Cipher.Poly1305.create ~k0 ~k1 ~k2 ~k3 in
    Cipher.Poly1305.feed_sub mac aad;
    Cipher.Poly1305.pad16 mac;
    for i = 0 to len - 1 do
      Cipher.Poly1305.feed_byte mac (Char.code (Bytes.unsafe_get cb (cbase + i)))
    done;
    Cipher.Poly1305.pad16 mac;
    Cipher.Poly1305.feed_word64 mac (Int64.of_int (Bytebuf.length aad));
    Cipher.Poly1305.feed_word64 mac (Int64.of_int n);
    ignore (Cipher.Poly1305.finish mac);
    for i = 0 to len - 1 do
      Bytes.unsafe_set cb (cbase + i)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get cb (cbase + i))
           lxor Cipher.Chacha20.byte_at ks i))
    done
  in
  let open_serial = host "open-serial" open_serial_run in
  (* Word-grain layered receiver, buffers reused: CRC walk, MAC walk,
     decrypt walk — three word-level passes. *)
  let open_words_run () =
    ignore
      (Checksum.Crc32.finish
         (Checksum.Crc32.feed_sub Checksum.Crc32.init sealed ~pos:0 ~len:n));
    let ks =
      Cipher.Chacha20.create ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
        ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2
    in
    let k0, k1, k2, k3 = Cipher.Chacha20.poly_key ks in
    let mac = Cipher.Poly1305.create ~k0 ~k1 ~k2 ~k3 in
    Cipher.Poly1305.feed_sub mac aad;
    Cipher.Poly1305.pad16 mac;
    Cipher.Poly1305.feed_sub mac sealed;
    Cipher.Poly1305.pad16 mac;
    Cipher.Poly1305.feed_word64 mac (Int64.of_int (Bytebuf.length aad));
    Cipher.Poly1305.feed_word64 mac (Int64.of_int n);
    ignore (Cipher.Poly1305.finish mac);
    Cipher.Chacha20.transform_at ks ~pos:0 sealed;
    restore ()
  in
  let open_words = host "open-words" open_words_run in
  (* Fused receiver: framing CRC, MAC and decrypt ride one word loop —
     every wire word is loaded once. *)
  let open_fused_run () =
    let a =
      Cipher.Aead.create ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
        ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2 ~aad
    in
    let bytes, base, len = Bytebuf.backing sealed in
    let st = ref Checksum.Crc32.init in
    let i = ref 0 in
    while !i + 8 <= len do
      let w = Bytes.get_int64_le bytes (base + !i) in
      st := Checksum.Crc32.feed_word64le !st w;
      Bytes.set_int64_le bytes (base + !i) (Cipher.Aead.open_word a !i w);
      i := !i + 8
    done;
    while !i < len do
      let b = Char.code (Bytes.unsafe_get bytes (base + !i)) in
      st := Checksum.Crc32.feed_byte !st b;
      Bytes.unsafe_set bytes (base + !i)
        (Char.unsafe_chr (Cipher.Aead.open_byte a !i b));
      incr i
    done;
    ignore (Checksum.Crc32.finish !st);
    ignore (Cipher.Aead.tag a);
    restore ()
  in
  let open_fused = host "open-fused" open_fused_run in
  Harness.subheading (Printf.sprintf "xdr (%d bytes on the wire)" n);
  Harness.row_header [ "Mb/s" ];
  Harness.row "fused marshal, no stages" [ Harness.f1 mar ];
  Harness.row "serial: layered stack, byte grain" [ Harness.f1 serial ];
  Harness.row "serial-words: 4 word-grain walks" [ Harness.f1 serial_words ];
  Harness.row "serial-words + seal_in_place" [ Harness.f1 seal_crc ];
  Harness.row "fused: marshal+seal+checksum+deliver" [ Harness.f1 fused ];
  Harness.row "kernel: ChaCha20 keystream blocks" [ Harness.f1 chacha ];
  Harness.row "kernel: Poly1305 blocks" [ Harness.f1 poly ];
  Harness.row "kernel: CRC-32 blocks" [ Harness.f1 crc ];
  Harness.row "rx serial: byte-grain CRC;MAC;decrypt" [ Harness.f1 open_serial ];
  Harness.row "rx words: CRC, MAC, decrypt walks" [ Harness.f1 open_words ];
  Harness.row "rx fused: CRC+MAC+decrypt, one walk" [ Harness.f1 open_fused ];
  (* The gated ratios: each pair of rows timed again in interleaved
     windows and reduced to the median, as E2 does. Two rows timed in
     separate windows let a host-speed swing between them pass for a
     regression. *)
  let tx_vs_serial =
    Harness.paired_speedup ~name:"fused-vs-serial" fused_run serial_run
  in
  let tx_vs_words =
    Harness.paired_speedup ~name:"fused-vs-serial-words" fused_run
      serial_words_run
  in
  let rx_vs_serial =
    Harness.paired_speedup ~name:"open-fused-vs-serial" open_fused_run
      open_serial_run
  in
  let rx_vs_words =
    Harness.paired_speedup ~name:"open-fused-vs-words" open_fused_run
      open_words_run
  in
  (* Reported, not gated: the one pass against its strongest three-pass
     rival, paired the same way. *)
  let tx_vs_seal_crc =
    Harness.paired_speedup ~name:"fused-vs-seal-then-checksum" fused_run
      seal_crc_run
  in
  Harness.note
    "  paired medians: fused/serial %.2fx, fused/serial-words %.2fx, \
     rx fused/serial %.2fx, rx fused/words %.2fx\n\
    \  vs seal_in_place composition %.2fx (paired; %.2fx from the rows) | \
     record cost vs bare marshal %.2fx\n"
    tx_vs_serial tx_vs_words rx_vs_serial rx_vs_words tx_vs_seal_crc
    (fused /. seal_crc) (fused /. mar);
  Harness.note
    "  compute floor: ChaCha20 + Poly1305 cost %.1fx the CRC-32 per byte\n"
    ((crc /. chacha) +. (crc /. poly));
  (* The gate row: the fused seal and the in-place open must do no
     steady-state Bytebuf allocation — the record layer adds zero buffer
     traffic to the send and receive paths — and the record open a
     receiver runs, on its endpoint's record context, must allocate a
     fixed handful of GC words, not words per byte. *)
  let record = Bytebuf.create (n + Secure.Record.overhead) in
  ignore (Ilp.run_marshal ~dst:(Bytebuf.take record n) source []);
  Secure.Record.seal_payload rc name record;
  let record_copy = Bytebuf.copy record in
  let rx_run () =
    (match Secure.Record.open_payload rc name record with
    | Ok _ -> ()
    | Error e -> failwith ("E20 record open: " ^ e));
    Bytebuf.blit ~src:record_copy ~src_pos:0 ~dst:record ~dst_pos:0
      ~len:(Bytebuf.length record)
  in
  for _ = 1 to 5 do fused_run (); rx_run () done;
  let before = Bytebuf.created_total () in
  for _ = 1 to 50 do fused_run () done;
  let tx_allocs = Bytebuf.created_total () - before in
  let before = Bytebuf.created_total () in
  let words_before = Gc.minor_words () in
  for _ = 1 to 50 do rx_run () done;
  let rx_words_per_record = (Gc.minor_words () -. words_before) /. 50.0 in
  let rx_allocs = Bytebuf.created_total () - before in
  Harness.record_row ~name:"gate"
    [
      ("fused_vs_serial", Obs.Json.Num tx_vs_serial);
      ("fused_vs_serial_words", Obs.Json.Num tx_vs_words);
      ("open_fused_vs_serial", Obs.Json.Num rx_vs_serial);
      ("open_fused_vs_words", Obs.Json.Num rx_vs_words);
      ("fused_vs_seal_then_checksum", Obs.Json.Num tx_vs_seal_crc);
      ("steady_allocs", Obs.Json.num_of_int tx_allocs);
      ("rx_steady_allocs", Obs.Json.num_of_int rx_allocs);
      ("rx_words_per_record", Obs.Json.Num rx_words_per_record);
    ];
  Harness.note
    "  steady state: %d tx / %d rx Bytebuf allocations over 50 rounds each; \
     %.0f GC words per %d-byte record open\n"
    tx_allocs rx_allocs rx_words_per_record n

let experiments =
  [
    ("table1", e1_table1);
    ("ilp-fusion", e2_ilp_fusion);
    ("presentation-cost", e3_presentation_cost);
    ("fused-convert", e4_fused_convert);
    ("stack-overhead", e5_stack_overhead);
    ("alf-pipeline", e6_alf_pipeline);
    ("atm-adu", e7_atm_adu);
    ("control-vs-manip", e8_control_vs_manip);
    ("serve-dispatch", e22_serve_dispatch);
    ("recovery-policies", e9_recovery_policies);
    ("checksum-ablation", e10_checksum_ablation);
    ("fec-vs-rexmit", e11_fec_vs_retransmission);
    ("ilp-parallel", e12_ilp_parallel);
    ("ilp-compile", e14_ilp_compile);
    ("ilp-marshal", e15_ilp_marshal);
    ("schema-marshal", e19_schema_marshal);
    ("secure-record", e20_secure_record);
  ]

let () =
  (* ALFNET_BENCH_QUOTA=0.2 shortens the per-measurement Bechamel quota
     (seconds) for quick iteration; default 0.5. *)
  (match Sys.getenv_opt "ALFNET_BENCH_QUOTA" with
  | Some q -> (try Harness.quota := float_of_string q with Failure _ -> ())
  | None -> ());
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let to_run =
    match args with
    | [] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" n
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  Printf.printf
    "alfnet experiment harness - reproducing Clark & Tennenhouse, SIGCOMM 1990\n";
  List.iter
    (fun (name, f) ->
      Harness.set_experiment name;
      f ())
    to_run;
  (* Machine-readable throughput results for cross-revision comparison;
     ALFNET_BENCH_JSON overrides the output path. *)
  let json_path =
    match Sys.getenv_opt "ALFNET_BENCH_JSON" with
    | Some p -> p
    | None -> "BENCH_ilp.json"
  in
  match Harness.write_json json_path with
  | () ->
      Printf.printf "\n%d measurements written to %s\n"
        (Harness.recorded_count ()) json_path
  | exception Sys_error msg ->
      (* The measurements above already printed; a bad output path should
         not turn the whole run into a crash. *)
      Printf.eprintf "\nerror: cannot write %s (%s)\n" json_path msg;
      exit 1
