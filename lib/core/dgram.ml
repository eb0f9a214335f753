open Bufkit
open Netsim

type handler = src:Packet.addr -> src_port:int -> Bytebuf.t -> unit

type t = {
  send : dst:Packet.addr -> dst_port:int -> src_port:int -> Bytebuf.t -> bool;
  bind : port:int -> handler -> unit;
  max_payload : int;
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
        Netsim.Udp.send udp ~dst ~dst_port ~src_port payload);
    bind = (fun ~port handler -> Netsim.Udp.bind udp ~port handler);
    max_payload = 0xFFFF - Netsim.Udp.header_size;
  }
