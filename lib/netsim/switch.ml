(* Table lookup and switching fabric transit, per packet. *)
let forward_delay = 10e-6

type t = {
  engine : Engine.t;
  mutable ports : (Packet.addr * Link.t) list;
  mutable forwarded : int;
  mutable no_route : int;
}

let create ~engine () = { engine; ports = []; forwarded = 0; no_route = 0 }

let add_port t ~dst link = t.ports <- (dst, link) :: List.remove_assoc dst t.ports
let add_port_range t ~dsts link = List.iter (fun dst -> add_port t ~dst link) dsts

let recv t (pkt : Packet.t) =
  match List.assoc_opt pkt.Packet.dst t.ports with
  | None -> t.no_route <- t.no_route + 1
  | Some link ->
      t.forwarded <- t.forwarded + 1;
      ignore
        (Engine.schedule_after t.engine forward_delay (fun () ->
             ignore (Link.send link pkt)))

let forwarded t = t.forwarded
let no_route t = t.no_route
