open Bufkit
open Netsim

type t = {
  mux_io : Dgram.t;
  mux_port : int;
  handlers : (int, src:Packet.addr -> src_port:int -> Bytebuf.t -> unit) Hashtbl.t;
  mutable unrouted : int;
}

(* Data fragments (0xAD...) and every control message put the stream id
   in bytes 1-2, big-endian; see Framing and Alf_transport. *)
let stream_of payload =
  if Bytebuf.length payload < 3 then None
  else Some ((Bytebuf.get_uint8 payload 1 lsl 8) lor Bytebuf.get_uint8 payload 2)

let create ~io ~port =
  let t = { mux_io = io; mux_port = port; handlers = Hashtbl.create 8; unrouted = 0 } in
  io.Dgram.bind ~port (fun ~src ~src_port payload ->
      match stream_of payload with
      | Some stream when Hashtbl.mem t.handlers stream ->
          (Hashtbl.find t.handlers stream) ~src ~src_port payload
      | Some _ | None -> t.unrouted <- t.unrouted + 1);
  t

let port t = t.mux_port

let stream_io t ~stream =
  {
    t.mux_io with
    Dgram.bind =
      (fun ~port handler ->
        if port <> t.mux_port then
          invalid_arg "Mux.stream_io: bind on a port other than the mux's";
        Hashtbl.replace t.handlers stream handler);
  }

let unrouted t = t.unrouted
