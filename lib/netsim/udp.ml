open Bufkit

let header_size = 8

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable discarded_checksum : int;
  mutable discarded_no_port : int;
}

type t = {
  engine : Engine.t;
  node : Node.t;
  proto : int;
  next_id : unit -> int;
  stats : stats;
  mutable ports : (int * (src:Packet.addr -> src_port:int -> Bytebuf.t -> unit)) list;
}

let stats t = t.stats

let handle_packet t (pkt : Packet.t) =
  let buf = pkt.Packet.payload in
  if Bytebuf.length buf < header_size then
    t.stats.discarded_checksum <- t.stats.discarded_checksum + 1
  else if Checksum.Internet.finish (Checksum.Internet.feed Checksum.Internet.init buf) <> 0
  then t.stats.discarded_checksum <- t.stats.discarded_checksum + 1
  else begin
    let r = Cursor.reader buf in
    let src_port = Cursor.u16be r in
    let dst_port = Cursor.u16be r in
    let len = Cursor.u16be r in
    Cursor.skip r 2 (* checksum *);
    if Bytebuf.length buf <> header_size + len then
      t.stats.discarded_checksum <- t.stats.discarded_checksum + 1
    else
      match List.assoc_opt dst_port t.ports with
      | None -> t.stats.discarded_no_port <- t.stats.discarded_no_port + 1
      | Some handler ->
          t.stats.datagrams_received <- t.stats.datagrams_received + 1;
          handler ~src:pkt.Packet.src ~src_port (Cursor.bytes r len)
  end

let create ~engine ~node ?(proto = 17) () =
  let t =
    {
      engine;
      node;
      proto;
      next_id = Packet.counter ();
      stats =
        {
          datagrams_sent = 0;
          datagrams_received = 0;
          discarded_checksum = 0;
          discarded_no_port = 0;
        };
      ports = [];
    }
  in
  Node.attach node ~proto (handle_packet t);
  t

let bind t ~port handler = t.ports <- (port, handler) :: List.remove_assoc port t.ports

let send t ~dst ~dst_port ~src_port payload =
  let plen = Bytebuf.length payload in
  if plen > 0xFFFF then invalid_arg "Udp.send: datagram too large";
  let buf = Bytebuf.create (header_size + plen) in
  let w = Cursor.writer buf in
  Cursor.put_u16be w src_port;
  Cursor.put_u16be w dst_port;
  Cursor.put_u16be w plen;
  Cursor.put_u16be w 0 (* checksum *);
  Cursor.put_bytes w payload;
  let cksum = Checksum.Internet.digest buf in
  Bytebuf.set_uint8 buf 6 (cksum lsr 8);
  Bytebuf.set_uint8 buf 7 (cksum land 0xff);
  t.stats.datagrams_sent <- t.stats.datagrams_sent + 1;
  let pkt =
    Packet.make ~id:(t.next_id ()) ~src:(Node.addr t.node) ~dst ~proto:t.proto
      ~born:(Engine.now t.engine) buf
  in
  Node.send t.node pkt
