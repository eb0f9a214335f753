open Bufkit
open Netsim

type handler = src:Packet.addr -> src_port:int -> Bytebuf.t -> unit

type t = {
  send : dst:Packet.addr -> dst_port:int -> src_port:int -> Bytebuf.t -> bool;
  bind : port:int -> handler -> unit;
  max_payload : int;
}

let of_atm bearer =
  let handlers : (int, handler) Hashtbl.t = Hashtbl.create 8 in
  Atmsim.Bearer.on_frame bearer (fun ~src ~vci frame ->
      match Hashtbl.find_opt handlers vci with
      | Some handler when Bytebuf.length frame >= 2 ->
          let src_port =
            (Bytebuf.get_uint8 frame 0 lsl 8) lor Bytebuf.get_uint8 frame 1
          in
          handler ~src ~src_port (Bytebuf.shift frame 2)
      | Some _ | None -> ());
  {
    send =
      (fun ~dst ~dst_port ~src_port payload ->
        let frame = Bytebuf.create (2 + Bytebuf.length payload) in
        Bytebuf.set_uint8 frame 0 (src_port lsr 8);
        Bytebuf.set_uint8 frame 1 (src_port land 0xff);
        Bytebuf.blit ~src:payload ~src_pos:0 ~dst:frame ~dst_pos:2
          ~len:(Bytebuf.length payload);
        Atmsim.Bearer.send_frame bearer ~dst ~vci:dst_port frame);
    bind = (fun ~port handler -> Hashtbl.replace handlers port handler);
    max_payload = Atmsim.Bearer.frame_payload_limit - 2;
  }

let striped channels =
  match channels with
  | [] -> invalid_arg "Dgram.striped: no channels"
  | _ ->
      let arr = Array.of_list channels in
      let next = ref 0 in
      {
        send =
          (fun ~dst ~dst_port ~src_port payload ->
            let ch = arr.(!next) in
            next := (!next + 1) mod Array.length arr;
            ch.send ~dst ~dst_port ~src_port payload);
        bind =
          (fun ~port handler ->
            Array.iter (fun ch -> ch.bind ~port handler) arr);
        max_payload =
          Array.fold_left (fun m ch -> min m ch.max_payload) max_int arr;
      }

let of_rt link =
  {
    send =
      (fun ~dst ~dst_port ~src_port payload ->
        Rt.Udp_link.send link ~dst ~dst_port ~src_port payload);
    bind = (fun ~port handler -> Rt.Udp_link.bind link ~port handler);
    max_payload = Rt.Udp_link.max_payload;
  }

let of_udp udp =
  {
    send =
      (fun ~dst ~dst_port ~src_port payload ->
        Transport.Udp.send udp ~dst ~dst_port ~src_port payload);
    bind = (fun ~port handler -> Transport.Udp.bind udp ~port handler);
    max_payload = 0xFFFF - Transport.Udp.header_size;
  }
