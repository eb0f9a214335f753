open Bufkit
open Alf_core

type config = {
  sessions : int;
  adus_per_session : int;
  payload_len : int;
  base_port : int;
  streams_per_port : int;
  server : int;
  server_port : int;
  integrity : Checksum.Kind.t option;
  secure : Secure.Record.t option;
}

let default_config =
  {
    sessions = 1000;
    adus_per_session = 2;
    payload_len = 64;
    base_port = 20000;
    streams_per_port = 1000;
    server = 0;
    server_port = 7000;
    integrity = Some Checksum.Kind.Crc32;
    secure = None;
  }

let ports_used cfg =
  (cfg.sessions + cfg.streams_per_port - 1) / cfg.streams_per_port

type stats = {
  mutable sent_datagrams : int;
  mutable sent_bytes : int;
  mutable send_failed : int;
  mutable dones_rx : int;
  mutable nacks_rx : int;
  mutable regens : int;
  mutable recloses : int;
}

type t = {
  cfg : config;
  io : Dgram.t;
  sec : Secure.Record.t option;  (* own clone: private AAD scratch *)
  scratch : Bytebuf.t;
  done_flags : Bytes.t;
  mutable done_total : int;
  mutable cursor : int;  (* r * sessions + k over data rounds, then CLOSE *)
  regen : (int * int) Queue.t;  (* (session, index) repairs from NACKs *)
  reclose : int Queue.t;
  stats : stats;
  view : Framing.view;  (* the reader's view of each reply *)
}

(* Session k lives at (base_port + k / streams_per_port,
   stream 1 + k mod streams_per_port): enough port fan-out to name any
   number of sessions while every stream id stays 16-bit. *)
let port_of t k = t.cfg.base_port + (k / t.cfg.streams_per_port)
let stream_of t k = 1 + (k mod t.cfg.streams_per_port)

let session_of t ~port ~stream =
  let k =
    ((port - t.cfg.base_port) * t.cfg.streams_per_port) + (stream - 1)
  in
  if
    k >= 0 && k < t.cfg.sessions && port_of t k = port && stream_of t k = stream
  then Some k
  else None

let payload_byte k index j = (k * 131) + (index * 31) + (j * 7) + 5

let send t k total =
  let ok =
    t.io.Dgram.send ~dst:t.cfg.server ~dst_port:t.cfg.server_port
      ~src_port:(port_of t k)
      (Bytebuf.take t.scratch total)
  in
  t.stats.sent_datagrams <- t.stats.sent_datagrams + 1;
  t.stats.sent_bytes <- t.stats.sent_bytes + total;
  if not ok then t.stats.send_failed <- t.stats.send_failed + 1

(* One reusable scratch holds the whole sealed datagram — the substrates
   copy (or transmit) synchronously, so nothing is retained. The payload
   is written in place and the datagram writer lays both headers around
   it. *)
let emit_adu t k index =
  let plen = t.cfg.payload_len in
  let pos = Framing.fragment_header_size + Adu.header_size in
  for j = 0 to plen - 1 do
    Bytebuf.set_uint8 t.scratch (pos + j) (payload_byte k index j land 0xff)
  done;
  let stream = stream_of t k in
  let name =
    { Adu.stream; index; dest_off = index * plen; dest_len = plen;
      timestamp_us = 0L }
  in
  (* A sealed payload carries the record trailer after the ciphertext. *)
  let splen =
    plen + if Option.is_some t.sec then Secure.Record.overhead else 0
  in
  (match t.sec with
  | Some rc ->
      Secure.Record.seal_payload rc name (Bytebuf.sub t.scratch ~pos ~len:splen)
  | None -> ());
  send t k
    (Framing.seal_single t.cfg.integrity t.scratch ~stream name ~plen:splen
       ~payload_crc:(Checksum.Crc32.digest_sub t.scratch ~pos ~len:splen))

let emit_close t k =
  let body =
    Ctl.write_close t.scratch ~stream:(stream_of t k)
      ~total:t.cfg.adus_per_session
  in
  send t k (Ctl.seal_in_place t.cfg.integrity t.scratch ~len:body)

let is_done t k = Bytes.get t.done_flags k <> '\000'

let handle t ~port buf =
  let v = t.view in
  if Framing.read v t.cfg.integrity buf = Framing.Valid then
    match (v.Framing.kind, session_of t ~port ~stream:v.Framing.stream) with
    | Framing.Done, k -> (
        t.stats.dones_rx <- t.stats.dones_rx + 1;
        match k with
        | Some k when not (is_done t k) ->
            Bytes.set t.done_flags k '\001';
            t.done_total <- t.done_total + 1
        | Some _ | None -> ())
    | Framing.Nack, k -> (
        t.stats.nacks_rx <- t.stats.nacks_rx + 1;
        match k with
        | Some k ->
            for j = 0 to v.Framing.count - 1 do
              let i = Framing.index_at v j in
              if i >= 0 && i < t.cfg.adus_per_session then Queue.add (k, i) t.regen
            done
        | None -> ())
    | _ -> ()

let create ~io cfg =
  if cfg.sessions < 1 then invalid_arg "Loadgen.create: sessions";
  if cfg.adus_per_session < 0 then invalid_arg "Loadgen.create: adus";
  if cfg.streams_per_port < 1 || cfg.streams_per_port > 0xFFFE then
    invalid_arg "Loadgen.create: streams_per_port";
  if cfg.payload_len < 0 then invalid_arg "Loadgen.create: payload_len";
  let dgram_size =
    Framing.fragment_header_size + Adu.header_size + cfg.payload_len
    + (match cfg.secure with None -> 0 | Some _ -> Secure.Record.overhead)
    + Ctl.trailer_size
  in
  if dgram_size > io.Dgram.max_payload then
    invalid_arg "Loadgen.create: payload_len exceeds the substrate MTU";
  let t =
    {
      cfg;
      io;
      sec = Option.map Secure.Record.clone cfg.secure;
      scratch = Bytebuf.create (max dgram_size 64);
      done_flags = Bytes.make cfg.sessions '\000';
      done_total = 0;
      cursor = 0;
      regen = Queue.create ();
      reclose = Queue.create ();
      stats =
        {
          sent_datagrams = 0;
          sent_bytes = 0;
          send_failed = 0;
          dones_rx = 0;
          nacks_rx = 0;
          regens = 0;
          recloses = 0;
        };
      view = Framing.view ();
    }
  in
  for p = 0 to ports_used cfg - 1 do
    let port = cfg.base_port + p in
    io.Dgram.bind ~port (fun ~src:_ ~src_port:_ buf -> handle t ~port buf)
  done;
  t

let total_emissions t = t.cfg.sessions * (t.cfg.adus_per_session + 1)
let emitted_all t = t.cursor >= total_emissions t

(* Round-robin across sessions — every session's ADU 0 goes out before any
   session's ADU 1, so peak concurrency equals the session count — then a
   CLOSE round. Repairs and re-CLOSEs take priority over fresh emission. *)
let step t ~budget =
  let sent = ref 0 in
  while !sent < budget && not (Queue.is_empty t.regen) do
    let k, i = Queue.pop t.regen in
    if not (is_done t k) then begin
      emit_adu t k i;
      t.stats.regens <- t.stats.regens + 1;
      incr sent
    end
  done;
  while !sent < budget && not (Queue.is_empty t.reclose) do
    let k = Queue.pop t.reclose in
    if not (is_done t k) then begin
      emit_close t k;
      t.stats.recloses <- t.stats.recloses + 1;
      incr sent
    end
  done;
  while !sent < budget && not (emitted_all t) do
    let r = t.cursor / t.cfg.sessions and k = t.cursor mod t.cfg.sessions in
    if r < t.cfg.adus_per_session then emit_adu t k r else emit_close t k;
    t.cursor <- t.cursor + 1;
    incr sent
  done;
  !sent

let nudge t =
  for k = 0 to t.cfg.sessions - 1 do
    if not (is_done t k) then Queue.add k t.reclose
  done

let done_count t = t.done_total
let finished t = emitted_all t && t.done_total = t.cfg.sessions
let stats t = t.stats
let session_port t k = port_of t k
let session_stream t k = stream_of t k
