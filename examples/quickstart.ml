(* Quickstart: send ten ADUs across a lossy simulated link and watch them
   arrive out of order but complete.

     dune exec examples/quickstart.exe *)

open Bufkit
open Netsim
open Alf_core

let () =
  (* 1. A virtual network: one duplex link, 10 Mb/s, 5 ms delay, and a
     harsh 10% packet loss so the recovery machinery has work to do. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:42L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.10)
      ~bandwidth_bps:10e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let udp_a = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let udp_b = Transport.Udp.create ~engine ~node:net.Topology.b () in

  (* 2. A receiver that processes each ADU the moment it is complete -
     out of order, using the ADU's own name to place it. *)
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp udp_b) ~port:5000 ~stream:1
      ~deliver:(fun adu ->
        Printf.printf "  t=%.3fs  got ADU #%d (%d bytes for offset %d)\n"
          (Engine.now engine) adu.Adu.name.Adu.index
          (Bytebuf.length adu.Adu.payload) adu.Adu.name.Adu.dest_off)
      ()
  in
  Alf_transport.on_complete receiver (fun () ->
      Printf.printf "  t=%.3fs  stream complete\n" (Engine.now engine));

  (* 3. A sender with the classic recovery policy (transport buffers
     unacknowledged ADUs). *)
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp udp_a) ~peer:2 ~peer_port:5000 ~port:5001
      ~stream:1 ~policy:Recovery.Transport_buffer ()
  in

  (* 4. Frame 20 kB of application data into ten 2 kB ADUs; each carries
     its destination offset, so none depends on its predecessors. *)
  let data = Bytebuf.init 20_000 (fun i -> Char.chr (i land 0xff)) in
  let adus = Framing.frames_of_buffer ~stream:1 ~adu_size:2000 data in
  Printf.printf "sending %d ADUs over a 10%%-lossy link...\n" (List.length adus);
  List.iter (Alf_transport.send_adu sender) adus;
  Alf_transport.close sender;

  (* 5. Run the virtual clock until everything settles. *)
  Engine.run ~until:30.0 engine;

  let s = Alf_transport.sender_stats sender in
  let r = Alf_transport.receiver_stats receiver in
  Printf.printf
    "\nsender: %d ADUs, %d fragments, %d retransmitted ADUs, %d NACKs heard\n"
    s.Alf_transport.adus_sent s.Alf_transport.frags_sent
    s.Alf_transport.adus_retransmitted s.Alf_transport.nacks_received;
  Printf.printf
    "receiver: %d delivered (%d out of order), %d duplicates, complete=%b\n"
    r.Alf_transport.adus_delivered r.Alf_transport.out_of_order
    r.Alf_transport.duplicates
    (Alf_transport.complete receiver)
