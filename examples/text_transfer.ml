(* Text transfer: the smallest presentation conversion, end to end.

   Footnote 1 of the paper: even ASCII needs converting, because the
   network newline convention (CRLF) differs from the internal one (LF).
   That conversion CHANGES SIZES, which is the crux of section 5's
   placement argument: position 1000 of the network stream corresponds to
   no fixed position of the local document, so out-of-order placement is
   only possible because the SENDER runs the conversion far enough to
   compute each ADU's network-form offset and advertises it in the ADU
   name.

     dune exec examples/text_transfer.exe *)

open Bufkit
open Netsim
open Alf_core

let document =
  let line i =
    Printf.sprintf "line %03d: the quick brown fox jumps over the lazy dog\n" i
  in
  String.concat "" (List.init 200 line)

let () =
  (* The application's framing: cut the internal text after every tenth
     newline - ADU boundaries in the application's own terms (lines). *)
  let text_adus =
    let n = String.length document in
    let rec go start newlines i acc =
      if i >= n then
        List.rev (if start < n then String.sub document start (n - start) :: acc else acc)
      else if document.[i] = '\n' && newlines = 9 then
        go (i + 1) 0 (i + 1) (String.sub document start (i + 1 - start) :: acc)
      else
        go start (if document.[i] = '\n' then newlines + 1 else newlines) (i + 1) acc
    in
    go 0 0 0 []
  in
  (* Sender-side presentation: compute each ADU's place in the NETWORK
     form (sizes differ from the internal form!). *)
  let places = Wire.Text.placement text_adus in
  let network_total = List.fold_left (fun acc (_, l) -> acc + l) 0 places in
  Printf.printf
    "document: %d internal bytes -> %d network bytes in %d text ADUs\n"
    (String.length document) network_total (List.length text_adus);

  let engine = Engine.create () in
  let rng = Rng.create ~seed:2L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.08)
      ~queue_limit:512 ~bandwidth_bps:5e6 ~delay:0.01 ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in

  (* Receiver: place network-form ADUs straight into the network-form
     sink as they complete (any order), convert once at the end. *)
  let sink = Sink.create ~size:network_total in
  let out_of_place = ref 0 in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:2100 ~stream:1
      ~deliver:(fun adu ->
        (* Count genuine out-of-order placements: a hole exists below
           this ADU's offset at the moment it lands. *)
        (match Sink.missing_ranges sink with
        | (gap, _) :: _ when gap < adu.Adu.name.Adu.dest_off -> incr out_of_place
        | _ -> ());
        match Sink.write_adu sink adu with
        | Ok () -> ()
        | Error e -> failwith e)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:2100 ~port:2101
      ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  List.iteri
    (fun index (text, (dest_off, dest_len)) ->
      let payload = Wire.Text.to_network text in
      assert (Bytebuf.length payload = dest_len);
      Alf_transport.send_adu sender
        (Adu.make (Adu.name ~dest_off ~dest_len ~stream:1 ~index ()) payload))
    (List.combine text_adus places);
  Alf_transport.close sender;
  Engine.run ~until:60.0 engine;

  let rstats = Alf_transport.receiver_stats receiver in
  Printf.printf
    "received: complete=%b; %d ADUs delivered, %d out of order, %d placed past a hole\n"
    (Sink.complete sink) rstats.Alf_transport.adus_delivered
    rstats.Alf_transport.out_of_order !out_of_place;
  (match Wire.Text.of_network (Sink.contents sink) with
  | Ok internal when internal = document ->
      Printf.printf "converted back: %d internal bytes, identical to the original\n"
        (String.length internal)
  | Ok _ -> failwith "document corrupted"
  | Error e -> failwith e);
  ignore receiver;
  Printf.printf
    "\nThe network form is %d bytes longer than the internal form; without the\n\
     sender-computed placements, no receiver could know where ADU k lands.\n"
    (network_total - String.length document)
