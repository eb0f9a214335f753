open Bufkit
open Netsim

type stats = {
  mutable cells_sent : int;
  mutable cells_received : int;
  mutable cells_bad_header : int;
  mutable frames_sent : int;
  mutable frames_delivered : int;
}

type t = {
  engine : Engine.t;
  node : Node.t;
  proto : int;
  next_id : unit -> int;
  stats : stats;
  (* One AAL5 reassembler per (source address, vci): circuits do not
     interleave cells within themselves, but distinct sources and
     circuits do. *)
  reassemblers : (Packet.addr * int, Aal5.reassembler) Hashtbl.t;
  mutable frame_handler : src:Packet.addr -> vci:int -> Bytebuf.t -> unit;
}

let frame_payload_limit = Aal5.max_frame

let reassembler_for t key =
  match Hashtbl.find_opt t.reassemblers key with
  | Some r -> r
  | None ->
      let src, vci = key in
      let r =
        Aal5.reassembler
          ~deliver:(fun frame ->
            t.stats.frames_delivered <- t.stats.frames_delivered + 1;
            t.frame_handler ~src ~vci frame)
          ()
      in
      Hashtbl.replace t.reassemblers key r;
      r

let handle_packet t (pkt : Packet.t) =
  match Cell.decode pkt.Packet.payload with
  | exception Cell.Header_error _ ->
      t.stats.cells_bad_header <- t.stats.cells_bad_header + 1
  | cell ->
      t.stats.cells_received <- t.stats.cells_received + 1;
      let r = reassembler_for t (pkt.Packet.src, cell.Cell.vci) in
      Aal5.push r cell.Cell.payload ~eof:(cell.Cell.pti land 1 = 1)

let create ~engine ~node ?(proto = 42) () =
  let t =
    {
      engine;
      node;
      proto;
      next_id = Packet.counter ();
      stats =
        {
          cells_sent = 0;
          cells_received = 0;
          cells_bad_header = 0;
          frames_sent = 0;
          frames_delivered = 0;
        };
      reassemblers = Hashtbl.create 16;
      frame_handler = (fun ~src:_ ~vci:_ _ -> ());
    }
  in
  Node.attach node ~proto (handle_packet t);
  t

let on_frame t f = t.frame_handler <- f

let send_frame t ~dst ~vci frame =
  t.stats.frames_sent <- t.stats.frames_sent + 1;
  let all_ok = ref true in
  List.iter
    (fun (payload, eof) ->
      let cell = Cell.make ~vci ~pti:(if eof then 1 else 0) payload in
      (* Cells ride as bare packets: 53 wire bytes, no extra envelope. *)
      let pkt =
        Packet.make ~header_bytes:0 ~id:(t.next_id ())
          ~src:(Node.addr t.node) ~dst ~proto:t.proto
          ~born:(Engine.now t.engine) (Cell.encode cell)
      in
      t.stats.cells_sent <- t.stats.cells_sent + 1;
      if not (Node.send t.node pkt) then all_ok := false)
    (Aal5.segment frame);
  !all_ok

let stats t = t.stats

let dgram t =
  let handlers : (int, Alf_core.Dgram.handler) Hashtbl.t = Hashtbl.create 8 in
  on_frame t (fun ~src ~vci frame ->
      match Hashtbl.find_opt handlers vci with
      | Some handler when Bytebuf.length frame >= 2 ->
          let src_port =
            (Bytebuf.get_uint8 frame 0 lsl 8) lor Bytebuf.get_uint8 frame 1
          in
          handler ~src ~src_port (Bytebuf.shift frame 2)
      | Some _ | None -> ());
  {
    Alf_core.Dgram.send =
      (fun ~dst ~dst_port ~src_port payload ->
        let frame = Bytebuf.create (2 + Bytebuf.length payload) in
        Bytebuf.set_uint8 frame 0 (src_port lsr 8);
        Bytebuf.set_uint8 frame 1 (src_port land 0xff);
        Bytebuf.blit ~src:payload ~src_pos:0 ~dst:frame ~dst_pos:2
          ~len:(Bytebuf.length payload);
        send_frame t ~dst ~vci:dst_port frame);
    bind = (fun ~port handler -> Hashtbl.replace handlers port handler);
    max_payload = frame_payload_limit - 2;
  }
