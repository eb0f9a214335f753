(* Continuous-media delivery: ADUs named in space and time.

   A 25 fps "video" is sent as one ADU per tile, each named with
   (timestamp, tile id) - section 5's generalised name-space. The
   application plays frames at their deadline and simply skips whatever
   has not arrived: the no-retransmission recovery policy. The same feed
   through the in-order byte stream shows head-of-line blocking turning
   one lost packet into many late frames.

     dune exec examples/video_stream.exe *)

open Bufkit
open Netsim
open Alf_core

let fps = 25
let frames = 100
let tiles_per_frame = 4
let tile_bytes = 1500
let loss = 0.03
let playout_delay = 0.08 (* seconds of buffer before the first deadline *)

let frame_period = 1.0 /. float_of_int fps

(* --- ALF: per-tile ADUs, no retransmission --- *)

let run_alf () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:2025L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~queue_limit:256 ~bandwidth_bps:8e6 ~delay:0.01 ~a:1 ~b:2 ()
  in
  let udp_a = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let udp_b = Transport.Udp.create ~engine ~node:net.Topology.b () in
  (* The playout buffer regenerates inter-frame timing from the ADUs'
     timestamps; whatever misses its deadline is skipped, not awaited. *)
  let played = Array.make_matrix frames tiles_per_frame false in
  let playout =
    Playout.create ~engine ~playout_delay
      ~play:(fun adu ->
        let f = Int64.to_int adu.Adu.name.Adu.timestamp_us * fps / 1_000_000 in
        let tile = adu.Adu.name.Adu.dest_off in
        if f >= 0 && f < frames && tile < tiles_per_frame then
          played.(f).(tile) <- true)
      ()
  in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp udp_b) ~port:30 ~stream:1
      ~nack_interval:1e9 (* no NACKs: losses are simply tolerated *)
      ~deliver:(fun adu ->
        (* Delivered payloads are borrowed: the playout buffer keeps a copy. *)
        Playout.insert playout (Adu.make adu.Adu.name (Bytebuf.copy adu.Adu.payload)))
      ()
  in
  ignore receiver;
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp udp_a) ~peer:2 ~peer_port:30 ~port:31
      ~stream:1 ~policy:Recovery.No_recovery ()
  in
  (* The camera: every 40 ms, emit this frame's tiles as timed ADUs. *)
  let index = ref 0 in
  for f = 0 to frames - 1 do
    let t_frame = float_of_int f *. frame_period in
    let ts = Int64.of_float (t_frame *. 1e6) in
    for _ = 1 to tiles_per_frame do
      Playout.expect playout ~timestamp_us:ts
    done;
    ignore
      (Engine.schedule_at engine t_frame (fun () ->
           for tile = 0 to tiles_per_frame - 1 do
             let name =
               Adu.name ~dest_off:tile ~dest_len:tile_bytes ~timestamp_us:ts
                 ~stream:1 ~index:!index ()
             in
             incr index;
             Alf_transport.send_adu sender (Adu.make name (Bytebuf.create tile_bytes))
           done))
  done;
  ignore
    (Engine.schedule_at engine (float_of_int frames *. frame_period) (fun () ->
         Alf_transport.close sender));
  Engine.run ~until:30.0 engine;
  let complete = ref 0 and partial = ref 0 in
  Array.iter
    (fun tiles ->
      let n = Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 tiles in
      if n = tiles_per_frame then incr complete else if n > 0 then incr partial)
    played;
  let st = Playout.stats playout in
  Printf.printf
    "ALF  (no-recovery): %d/%d frames complete at deadline, %d partial, %d tiles missing, %d late\n"
    !complete frames !partial st.Playout.missing st.Playout.late;
  Printf.printf
    "     playout margin mean %.1f ms, sd %.1f ms (each tile decodable on arrival)\n"
    (1000.0 *. Stats.mean st.Playout.early_margin)
    (1000.0 *. Stats.stddev st.Playout.early_margin)

(* --- TCP: the same feed as an in-order byte stream --- *)

let run_tcp () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:2025L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~queue_limit:256 ~bandwidth_bps:8e6 ~delay:0.01 ~a:1 ~b:2 ()
  in
  let sender = Transport.Tcp.create ~engine ~node:net.Topology.a ~peer:2 () in
  let receiver = Transport.Tcp.create ~engine ~node:net.Topology.b ~peer:1 () in
  (* Tile boundaries in the stream are implicit: tile k spans
     [k*tile_bytes, (k+1)*tile_bytes). Record when each tile's last byte
     becomes deliverable in order. *)
  let total_tiles = frames * tiles_per_frame in
  let tile_done = Array.make total_tiles nan in
  let got = ref 0 in
  Transport.Tcp.on_deliver receiver (fun chunk ->
      let before = !got in
      got := !got + Bytebuf.length chunk;
      let first_tile = (before + tile_bytes - 1) / tile_bytes in
      let last_tile = (!got / tile_bytes) - 1 in
      for k = first_tile to min last_tile (total_tiles - 1) do
        tile_done.(k) <- Engine.now engine
      done);
  for f = 0 to frames - 1 do
    let t_frame = float_of_int f *. frame_period in
    ignore
      (Engine.schedule_at engine t_frame (fun () ->
           Transport.Tcp.send sender
             (Bytebuf.create (tiles_per_frame * tile_bytes))))
  done;
  ignore
    (Engine.schedule_at engine (float_of_int frames *. frame_period) (fun () ->
         Transport.Tcp.finish sender));
  Engine.run ~until:60.0 engine;
  let complete = ref 0 and partial = ref 0 and missed_tiles = ref 0 in
  for f = 0 to frames - 1 do
    let deadline = (float_of_int f *. frame_period) +. playout_delay in
    let tiles_on_time = ref 0 in
    for tile = 0 to tiles_per_frame - 1 do
      let t = tile_done.((f * tiles_per_frame) + tile) in
      if Float.is_nan t || t > deadline then incr missed_tiles else incr tiles_on_time
    done;
    if !tiles_on_time = tiles_per_frame then incr complete
    else if !tiles_on_time > 0 then incr partial
  done;
  Printf.printf
    "TCP  (in-order):    %d/%d frames complete at deadline, %d partial, %d tiles late/missing\n"
    !complete frames !partial !missed_tiles

let () =
  Printf.printf
    "streaming %d frames at %d fps (%d tiles each) over a %.0f%%-lossy link;\n\
     playout deadline = capture + %.0f ms\n\n"
    frames fps tiles_per_frame (loss *. 100.0) (playout_delay *. 1000.0);
  run_alf ();
  run_tcp ();
  Printf.printf
    "\nThe ALF receiver skips lost tiles and keeps playing; the byte stream\n\
     stalls every frame behind a retransmission (head-of-line blocking).\n"
