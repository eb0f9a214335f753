open Bufkit

let max_payload = 65507

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable send_dropped : int;
  mutable no_peer : int;
  mutable unrouted : int;
  mutable recv_batches : int;
  mutable max_batch : int;
  mutable recv_pool_misses : int;
}

module Itbl = Hashtbl.Make (Int)

(* One registered endpoint. The forward table finds it by its
   (addr, port) name for [send]; the reverse table by the UDP port of
   its sockaddr, with an exact sockaddr check, for each arrival. *)
type peer = {
  sa : Unix.sockaddr;
  mutable addr : int;
  mutable vport : int;
}

(* A bound virtual port: its socket and the handler its drain calls. *)
type sock = {
  fd : Unix.file_descr;
  mutable handler : src:int -> src_port:int -> Bytebuf.t -> unit;
}

type t = {
  loop : Loop.t;
  recv_batch : int;
  pool : Pool.t option;
  scratch : Bytebuf.t;  (* staging when the pool is absent or exhausted *)
  bind_addr : Unix.inet_addr;
  socks : sock Itbl.t;  (* virtual port -> socket *)
  peers : peer Itbl.t;  (* [peer_key addr port] -> peer *)
  rev : peer list Itbl.t;  (* UDP port of the sockaddr -> peers on it *)
  mutable next_addr : int;
  mutable closed : bool;
  stats : stats;
}

let stats t = t.stats

let create ?(recv_batch = 32) ?(buf_size = 2048) ?pool
    ?(bind_addr = Unix.inet_addr_loopback) ~loop () =
  if recv_batch < 1 then invalid_arg "Udp_link.create: recv_batch";
  if buf_size < 1 then invalid_arg "Udp_link.create: buf_size";
  {
    loop;
    recv_batch;
    pool;
    scratch = Bytebuf.create buf_size;
    bind_addr;
    socks = Itbl.create 8;
    peers = Itbl.create 16;
    rev = Itbl.create 16;
    next_addr = 1;
    closed = false;
    stats =
      {
        datagrams_sent = 0;
        datagrams_received = 0;
        send_dropped = 0;
        no_peer = 0;
        unrouted = 0;
        recv_batches = 0;
        max_batch = 0;
        recv_pool_misses = 0;
      };
  }

(* Virtual ports are 16-bit, as on the simulator's UDP, so a peer's name
   packs into one immediate key. *)
let valid_port port = port land 0xFFFF = port
let peer_key addr port = (addr lsl 16) lor port

let check_port what port =
  if not (valid_port port) then invalid_arg (what ^ ": port outside 0-65535")

let udp_port = function Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> -1

let rec find_sa sa = function
  | [] -> raise Not_found
  | p :: tl -> if p.sa = sa then p else find_sa sa tl

(* The registered peer for a sockaddr; raises [Not_found]. *)
let lookup t sa = find_sa sa (Itbl.find t.rev (udp_port sa))

(* The one write path for both directions. A sockaddr already known
   under another (addr, port) — typically the synthetic port 0 that
   {!source_of} assigns on first contact — is re-pointed {e in place}:
   its stale forward entry is removed, so the registry never holds two
   peers for one sockaddr or a reverse entry naming a dead pair (which
   would misattribute [src_port] on every later arrival). *)
let rebind t sa ~addr ~port =
  let p =
    match lookup t sa with
    | p ->
        if p.addr <> addr || p.vport <> port then
          Itbl.remove t.peers (peer_key p.addr p.vport);
        p.addr <- addr;
        p.vport <- port;
        p
    | exception Not_found ->
        let p = { sa; addr; vport = port } in
        let u = udp_port sa in
        let on_port = try Itbl.find t.rev u with Not_found -> [] in
        Itbl.replace t.rev u (p :: on_port);
        p
  in
  Itbl.replace t.peers (peer_key addr port) p;
  p

let fresh_addr t =
  let addr = t.next_addr in
  t.next_addr <- t.next_addr + 1;
  addr

let register_sockaddr t sa ~port =
  match lookup t sa with
  | p ->
      (* First contact registered it under port 0; now the caller knows
         the real port. Keep the address — tokens already handed to
         handlers stay valid, since sends resolve through [peers] and the
         old pair is re-pointed here. *)
      if p.vport <> port then ignore (rebind t sa ~addr:p.addr ~port);
      p.addr
  | exception Not_found -> (rebind t sa ~addr:(fresh_addr t) ~port).addr

let set_peer t ~addr ~port sa =
  check_port "Udp_link.set_peer" port;
  ignore (rebind t sa ~addr ~port)

(* Identify an arrival's source. First contact from an unknown sockaddr
   registers it under a fresh address and a synthetic virtual port: the
   pair is only ever echoed back into [send], where the registry resolves
   it again, so its actual value is immaterial. *)
let source_of t sa =
  match lookup t sa with
  | p -> p
  | exception Not_found -> rebind t sa ~addr:(fresh_addr t) ~port:0

(* The receive buffer for one drain: pooled, or the scratch when the pool
   is absent or its budget is spent. A handler only borrows its datagram
   for the call, so one buffer stages the whole batch. *)
let staging t =
  match t.pool with
  | None -> t.scratch
  | Some pool -> (
      match Pool.acquire pool with
      | buf -> buf
      | exception Pool.Exhausted ->
          (* The receive budget is spent but the kernel queue is not:
             fall back to the scratch buffer rather than leave the
             datagrams queued, and account the miss — under a hostile
             flood this is the socket-drain pressure signal. *)
          t.stats.recv_pool_misses <- t.stats.recv_pool_misses + 1;
          t.scratch)

let unstage t buf =
  match t.pool with
  | Some pool when buf != t.scratch -> Pool.release pool buf
  | Some _ | None -> ()

(* Up to [recv_batch] datagrams, each received into [buf] and handed to
   the handler; returns how many arrived. *)
let receive t s buf =
  let received = ref 0 in
  let continue = ref true in
  while !continue && !received < t.recv_batch do
    match
      Unix.recvfrom s.fd (Bytebuf.data buf) (Bytebuf.offset buf)
        (Bytebuf.length buf) []
    with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EINTR), _, _) ->
        (* A previous send drew an ICMP unreachable; the datagram it
           refers to is already gone. Keep draining. *)
        ()
    | n, sa ->
        incr received;
        t.stats.datagrams_received <- t.stats.datagrams_received + 1;
        let p = source_of t sa in
        s.handler ~src:p.addr ~src_port:p.vport (Bytebuf.take buf n)
  done;
  !received

let drain t s =
  let buf = staging t in
  let received =
    match receive t s buf with
    | n ->
        unstage t buf;
        n
    | exception e ->
        unstage t buf;
        raise e
  in
  if received > 0 then begin
    t.stats.recv_batches <- t.stats.recv_batches + 1;
    if received > t.stats.max_batch then t.stats.max_batch <- received
  end

let unrouted t ~src:_ ~src_port:_ _ = t.stats.unrouted <- t.stats.unrouted + 1

let sock_for t ~port =
  match Itbl.find t.socks port with
  | s -> s
  | exception Not_found ->
      check_port "Udp_link" port;
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
      Unix.set_nonblock fd;
      (* Bigger kernel buffers absorb the bursts a paced simulator never
         produces; best-effort (rmem_max caps silently). *)
      (try Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 21) with _ -> ());
      (try Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 21) with _ -> ());
      Unix.bind fd (Unix.ADDR_INET (t.bind_addr, 0));
      let s = { fd; handler = unrouted t } in
      Itbl.replace t.socks port s;
      ignore (register_sockaddr t (Unix.getsockname fd) ~port);
      Loop.on_readable t.loop fd (fun () -> drain t s);
      s

let bind t ~port handler =
  if t.closed then invalid_arg "Udp_link.bind: link closed";
  (sock_for t ~port).handler <- handler

let local_sockaddr t ~port = Unix.getsockname (Itbl.find t.socks port).fd

let local_addr t ~port = (lookup t (local_sockaddr t ~port)).addr

let send t ~dst ~dst_port ~src_port payload =
  if t.closed then false
  else
    match
      if valid_port dst_port then Itbl.find t.peers (peer_key dst dst_port)
      else raise Not_found
    with
    | exception Not_found ->
        t.stats.no_peer <- t.stats.no_peer + 1;
        false
    | p -> (
        match
          Unix.sendto (sock_for t ~port:src_port).fd (Bytebuf.data payload)
            (Bytebuf.offset payload) (Bytebuf.length payload) [] p.sa
        with
        | _ ->
            t.stats.datagrams_sent <- t.stats.datagrams_sent + 1;
            true
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENOBUFS
                | Unix.ECONNREFUSED ),
                _,
                _ ) ->
            t.stats.send_dropped <- t.stats.send_dropped + 1;
            false)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Itbl.iter
      (fun _ s ->
        Loop.clear_readable t.loop s.fd;
        try Unix.close s.fd with Unix.Unix_error _ -> ())
      t.socks;
    Itbl.reset t.socks
  end
