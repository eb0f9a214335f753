open Bufkit
open Netsim

type t = {
  mux_io : Dgram.t;
  mux_port : int;
  handlers : (int, src:Packet.addr -> src_port:int -> Bytebuf.t -> unit) Hashtbl.t;
  view : Framing.view;
  mutable unrouted : int;
}

(* Data fragments (0xAD...) and every control message put the stream id
   in bytes 1-2, which the reader leaves in the view whatever its verdict;
   each stream's handler reads the datagram again, with its trailer. *)
let create ~io ~port =
  let view = Framing.view () in
  let t = { mux_io = io; mux_port = port; handlers = Hashtbl.create 8; view; unrouted = 0 } in
  io.Dgram.bind ~port (fun ~src ~src_port payload ->
      ignore (Framing.read_layout view None payload : Framing.verdict);
      let stream = view.Framing.stream in
      if Hashtbl.mem t.handlers stream then
        (Hashtbl.find t.handlers stream) ~src ~src_port payload
      else t.unrouted <- t.unrouted + 1);
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
