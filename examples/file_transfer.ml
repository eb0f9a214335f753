(* File transfer with Application Level Framing (paper section 5).

   Each ADU is labelled by the sender with the file offset it occupies at
   the receiver, so the receiving side writes every ADU straight into
   place the moment it completes - even with earlier ADUs still missing.
   The same file is then pushed through the TCP-like in-order stream for
   contrast: identical bytes, but nothing can be written past a hole.

     dune exec examples/file_transfer.exe *)

open Bufkit
open Netsim
open Alf_core

let file_size = 200_000
let adu_size = 4000
let loss = 0.05

let make_file () =
  let rng = Rng.create ~seed:123L in
  let b = Bytebuf.create file_size in
  Rng.fill_bytes rng b;
  b

let run_alf file =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~queue_limit:1024 ~bandwidth_bps:20e6 ~delay:0.01 ~a:1 ~b:2 ()
  in
  let udp_a = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let udp_b = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let out = Sink.create ~size:file_size in
  let first_write_after_gap = ref None in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp udp_b) ~port:20 ~stream:1
      ~deliver:(fun adu ->
        (* The sender-computed name tells us exactly where this ADU's
           bytes live in the file - no waiting for predecessors. *)
        (match Sink.write_adu out adu with
        | Ok () -> ()
        | Error e -> failwith e);
        if !first_write_after_gap = None && Sink.missing_ranges out <> []
           && adu.Adu.name.Adu.dest_off > 0
        then
          first_write_after_gap :=
            Some (Engine.now engine, adu.Adu.name.Adu.dest_off))
      ()
  in
  let done_at = ref nan in
  Alf_transport.on_complete receiver (fun () -> done_at := Engine.now engine);
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp udp_a) ~peer:2 ~peer_port:20 ~port:21
      ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  List.iter (Alf_transport.send_adu sender)
    (Framing.frames_of_buffer ~stream:1 ~adu_size file);
  Alf_transport.close sender;
  Engine.run ~until:120.0 engine;
  let r = Alf_transport.receiver_stats receiver in
  Printf.printf "ALF: file complete at t=%.3fs; %d ADUs delivered, %d out of order\n"
    !done_at r.Alf_transport.adus_delivered r.Alf_transport.out_of_order;
  (match !first_write_after_gap with
  | Some (t, off) ->
      Printf.printf
        "     (first out-of-order write: offset %d at t=%.3fs, with earlier bytes missing)\n"
        off t
  | None -> ());
  (!done_at, Sink.contents out)

let run_tcp file =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~queue_limit:1024 ~bandwidth_bps:20e6 ~delay:0.01 ~a:1 ~b:2 ()
  in
  let sender = Transport.Tcp.create ~engine ~node:net.Topology.a ~peer:2 () in
  let receiver = Transport.Tcp.create ~engine ~node:net.Topology.b ~peer:1 () in
  let out = Bytebuf.create file_size in
  let pos = ref 0 in
  Transport.Tcp.on_deliver receiver (fun chunk ->
      (* A byte stream has no names: data can only land sequentially. *)
      Bytebuf.blit ~src:chunk ~src_pos:0 ~dst:out ~dst_pos:!pos
        ~len:(Bytebuf.length chunk);
      pos := !pos + Bytebuf.length chunk);
  let done_at = ref nan in
  Transport.Tcp.on_close receiver (fun () -> done_at := Engine.now engine);
  Transport.Tcp.send sender file;
  Transport.Tcp.finish sender;
  Engine.run ~until:120.0 engine;
  Printf.printf "TCP: file complete at t=%.3fs; %d retransmissions\n" !done_at
    (Transport.Tcp.stats sender).Transport.Tcp.retransmits;
  (!done_at, out)

let () =
  Printf.printf
    "transferring a %d kB file over a %.0f%%-lossy 20 Mb/s link, both ways\n\n"
    (file_size / 1000) (loss *. 100.0);
  let file = make_file () in
  let alf_time, alf_out = run_alf file in
  let tcp_time, tcp_out = run_tcp file in
  let ok_alf = Bytebuf.equal alf_out file in
  let ok_tcp = Bytebuf.equal tcp_out file in
  Printf.printf "\nintegrity: ALF %s, TCP %s (CRC32 original=%08lx)\n"
    (if ok_alf then "OK" else "CORRUPT")
    (if ok_tcp then "OK" else "CORRUPT")
    (Checksum.Crc32.digest file);
  Printf.printf "completion: ALF %.3fs vs TCP %.3fs (%.2fx)\n" alf_time tcp_time
    (tcp_time /. alf_time);
  if not (ok_alf && ok_tcp) then exit 1
