(* The parallel-processor example of section 7.

   "If the data is organized into ADUs, each ADU will contain enough
   information to control its own delivery." A source stripes a dataset
   across the memories of four worker nodes through a switch; no central
   hot spot reassembles the stream, because every ADU names its worker
   and its offset within that worker's shard.

   The workers are real: after the (virtual-time) network delivers the
   shards, each worker's stage-2 verification pass — a fused ILP
   checksum+deliver plan over its whole shard — runs on its own OCaml
   domain via Par.Pool, writing into its pre-assigned result slot. No
   lock, no merge queue, no reassembly hot spot.

     dune exec examples/parallel_sink.exe *)

open Bufkit
open Netsim
open Alf_core

let workers = 4
let shard_bytes = 64_000
let adu_size = 2000

let () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1234L in
  (* One source (addr 100) and four workers (addr 1..4) on a star. *)
  let hosts = 100 :: List.init workers (fun i -> i + 1) in
  let star =
    Topology.star ~engine ~rng ~impair:(Impair.lossy 0.02) ~queue_limit:512
      ~bandwidth_bps:50e6 ~delay:0.002 ~hosts ()
  in
  let node_index = Hashtbl.create (List.length hosts) in
  List.iteri (fun i addr -> Hashtbl.replace node_index addr i) hosts;
  let node_of addr =
    match Hashtbl.find_opt node_index addr with
    | Some i -> star.Topology.hub_hosts.(i)
    | None ->
        failwith
          (Printf.sprintf "parallel_sink: no host with address %d on the star"
             addr)
  in
  let source_udp = Transport.Udp.create ~engine ~node:(node_of 100) () in

  (* The dataset: each worker w owns bytes [w*shard; (w+1)*shard). *)
  let dataset = Bytebuf.create (workers * shard_bytes) in
  Rng.fill_bytes (Rng.create ~seed:5L) dataset;

  (* Each worker runs an independent ALF receiver writing ADUs into its
     local shard memory - the ADU name alone routes and places the data. *)
  let shards = Array.init workers (fun _ -> Bytebuf.create shard_bytes) in
  let receivers =
    Array.init workers (fun w ->
        let udp = Transport.Udp.create ~engine ~node:(node_of (w + 1)) () in
        Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp udp) ~port:40 ~stream:w
          ~deliver:(fun adu ->
            let local_off = adu.Adu.name.Adu.dest_off in
            Bytebuf.blit ~src:adu.Adu.payload ~src_pos:0 ~dst:shards.(w)
              ~dst_pos:local_off
              ~len:(Bytebuf.length adu.Adu.payload))
          ())
  in

  (* One ALF sender per worker stream, all multiplexed over a single
     port of the source's single interface: the stream field in every
     message is the one demultiplexing key (no port per worker). *)
  let source_mux = Mux.create ~io:(Dgram.of_udp source_udp) ~port:50 in
  let senders =
    Array.init workers (fun w ->
        Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine)
          ~io:(Mux.stream_io source_mux ~stream:w) ~peer:(w + 1)
          ~peer_port:40 ~port:(Mux.port source_mux) ~stream:w
          ~policy:Recovery.Transport_buffer ())
  in
  for w = 0 to workers - 1 do
    let shard = Bytebuf.sub dataset ~pos:(w * shard_bytes) ~len:shard_bytes in
    (* dest_off is in the *worker's* name-space: its local shard offset. *)
    List.iter (Alf_transport.send_adu senders.(w))
      (Framing.frames_of_buffer ~stream:w ~adu_size shard);
    Alf_transport.close senders.(w)
  done;

  Engine.run ~until:60.0 engine;

  (* Stage 2, in parallel for real: one verification task per worker,
     sharded across domains. Every task owns result slot [w] and reads
     only its own shard, so the tasks share nothing. *)
  let plan = [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ] in
  let verified = Array.make workers (false, 0) in
  Par.Pool.with_pool ~domains:workers (fun pool ->
      Par.Pool.run pool
        (Array.init workers (fun w () ->
             let expect =
               Bytebuf.sub dataset ~pos:(w * shard_bytes) ~len:shard_bytes
             in
             let r = Ilp.run_fused plan shards.(w) in
             let cksum =
               match r.Ilp.checksums with (_, c) :: _ -> c | [] -> 0
             in
             verified.(w) <- (Bytebuf.equal shards.(w) expect, cksum))));

  Printf.printf
    "striped %d kB across %d workers (2%% loss, repaired per ADU);\n\
     stage-2 verification ran on %d domains (host has %d core(s))\n\n"
    (workers * shard_bytes / 1000)
    workers workers
    (Domain.recommended_domain_count ());
  let all_ok = ref true in
  Array.iteri
    (fun w shard ->
      let ok, cksum = verified.(w) in
      all_ok := !all_ok && ok;
      let r = Alf_transport.receiver_stats receivers.(w) in
      Printf.printf
        "worker %d: shard %s (crc %08lx, stage-2 cksum %04x), %d ADUs (%d out \
         of order), complete=%b\n"
        (w + 1)
        (if ok then "OK" else "CORRUPT")
        (Checksum.Crc32.digest shard)
        cksum r.Alf_transport.adus_delivered r.Alf_transport.out_of_order
        (Alf_transport.complete receivers.(w)))
    shards;
  Printf.printf
    "\nNo node ever saw the whole stream: each ADU steered itself to its\n\
     worker and offset, and each worker verified its shard on its own\n\
     domain. A sequence-numbered byte stream could not be split this way\n\
     without a reassembly hot spot.\n";
  if not !all_ok then exit 1
