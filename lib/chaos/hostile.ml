open Bufkit
open Alf_core

(* A byzantine peer population for the serve engine: seeded plans of
   hostile datagram traffic driven through the same {!Dgram.t} seam as
   the honest load generator, so the two mix on the wire. Every emission
   is classified at the source as [malformed] (the bytes themselves are
   bad — fuzz, flips, truncations) or [wellformed] (valid bytes used
   abusively — churn floods, slow drip, NACK storms, forged indices),
   which is what lets the accounting tests equate server-side
   [serve.drop.*] sums with injected totals. *)

type category =
  | Fuzz
  | Flip
  | Trunc
  | Replay
  | Churn
  | Drip
  | Nack_storm
  | Close_flood
  | Forged

let all_categories =
  [| Fuzz; Flip; Trunc; Replay; Churn; Drip; Nack_storm; Close_flood; Forged |]

let category_index = function
  | Fuzz -> 0
  | Flip -> 1
  | Trunc -> 2
  | Replay -> 3
  | Churn -> 4
  | Drip -> 5
  | Nack_storm -> 6
  | Close_flood -> 7
  | Forged -> 8

type config = {
  server : int;
  server_port : int;
  base_port : int;  (* hostile source ports: base_port .. base_port+ports-1 *)
  ports : int;
  payload_len : int;
  integrity : Checksum.Kind.t option;
  seed : int64;
  mix : (category * int) list;  (* weighted emission mix *)
}

let default_mix =
  [
    (Fuzz, 3);
    (Flip, 2);
    (Trunc, 2);
    (Replay, 1);
    (Churn, 2);
    (Drip, 1);
    (Nack_storm, 2);
    (Close_flood, 1);
    (Forged, 1);
  ]

let default_config =
  {
    server = 0;
    server_port = 7000;
    base_port = 40000;
    ports = 4;
    payload_len = 64;
    integrity = Some Checksum.Kind.Crc32;
    seed = 0xBADC0DEL;
    mix = default_mix;
  }

type stats = {
  mutable sent : int;
  mutable sent_bytes : int;
  mutable send_failed : int;
  mutable malformed : int;  (* bad-bytes emissions *)
  mutable wellformed : int;  (* valid-bytes abuse *)
  mutable replies_rx : int;  (* server ctl landing on hostile ports *)
  by_category : int array;  (* indexed by category_index *)
}

type t = {
  cfg : config;
  io : Dgram.t;
  rng : Netsim.Rng.t;
  scratch : Bytebuf.t;
  wheel : category array;  (* the mix unrolled for O(1) weighted choice *)
  mutable churn_stream : int;  (* ever-new stream ids for churn/close_flood *)
  mutable drip_index : int array;  (* next index per drip port *)
  stats : stats;
}

let max_dgram cfg =
  Framing.fragment_header_size + Adu.header_size + cfg.payload_len
  + Ctl.trailer_size

let create ~io cfg =
  if cfg.ports < 1 then invalid_arg "Hostile.create: ports";
  if cfg.payload_len < 0 then invalid_arg "Hostile.create: payload_len";
  if cfg.mix = [] then invalid_arg "Hostile.create: empty mix";
  let wheel =
    Array.concat
      (List.map (fun (c, w) -> Array.make (max 0 w) c) cfg.mix)
  in
  if Array.length wheel = 0 then invalid_arg "Hostile.create: zero-weight mix";
  let t =
    {
      cfg;
      io;
      rng = Netsim.Rng.create ~seed:cfg.seed;
      scratch = Bytebuf.create (max (max_dgram cfg) 64);
      wheel;
      churn_stream = 1;
      drip_index = Array.make cfg.ports 0;
      stats =
        {
          sent = 0;
          sent_bytes = 0;
          send_failed = 0;
          malformed = 0;
          wellformed = 0;
          replies_rx = 0;
          by_category = Array.make (Array.length all_categories) 0;
        };
    }
  in
  (* Swallow (but count) the server's replies — NACKs drawn by hostile
     CLOSEs, DONEs for drip streams — so they don't pile up unrouted. *)
  for p = 0 to cfg.ports - 1 do
    io.Dgram.bind ~port:(cfg.base_port + p) (fun ~src:_ ~src_port:_ _ ->
        t.stats.replies_rx <- t.stats.replies_rx + 1)
  done;
  t

let port_of t i = t.cfg.base_port + (i mod t.cfg.ports)

let send t ~src_port ~len ~malformed cat =
  let ok =
    t.io.Dgram.send ~dst:t.cfg.server ~dst_port:t.cfg.server_port ~src_port
      (Bytebuf.take t.scratch len)
  in
  t.stats.sent <- t.stats.sent + 1;
  t.stats.sent_bytes <- t.stats.sent_bytes + len;
  if malformed then t.stats.malformed <- t.stats.malformed + 1
  else t.stats.wellformed <- t.stats.wellformed + 1;
  t.stats.by_category.(category_index cat) <-
    t.stats.by_category.(category_index cat) + 1;
  if not ok then t.stats.send_failed <- t.stats.send_failed + 1

(* A fully valid sealed single-fragment ADU datagram in [t.scratch],
   written by the same datagram writer as every honest sender, returned
   as its total length. Payload bytes derive from (stream, index) so
   replays of the same pair still verify. *)
let write_valid_frag t ~stream ~index =
  let plen = t.cfg.payload_len in
  let pos = Framing.fragment_header_size + Adu.header_size in
  for j = 0 to plen - 1 do
    Bytebuf.set_uint8 t.scratch (pos + j)
      (((stream * 197) + (index * 31) + (j * 11) + 3) land 0xff)
  done;
  let name =
    { Adu.stream; index; dest_off = index * plen; dest_len = plen;
      timestamp_us = 0L }
  in
  Framing.seal_single t.cfg.integrity t.scratch ~stream name ~plen
    ~payload_crc:(Checksum.Crc32.digest_sub t.scratch ~pos ~len:plen)

let fresh_stream t =
  let s = t.churn_stream in
  t.churn_stream <- 1 + (t.churn_stream mod 0xFFFE);
  s

(* One hostile emission per call. Every arm stays within [t.scratch] —
   no allocation per datagram, like the honest generator. *)
let emit t =
  let rng = t.rng in
  let pick = Netsim.Rng.int rng ~bound:(Array.length t.wheel) in
  match t.wheel.(pick) with
  | Fuzz ->
      (* Raw random bytes, random length: the stage-0 totality probe. *)
      let len = 1 + Netsim.Rng.int rng ~bound:(Bytebuf.length t.scratch) in
      Netsim.Rng.fill_bytes rng (Bytebuf.take t.scratch len);
      send t
        ~src_port:(port_of t (Netsim.Rng.int rng ~bound:t.cfg.ports))
        ~len ~malformed:true Fuzz
  | Flip ->
      (* A valid datagram with one byte XORed: passes whichever checks
         the flip misses, then fails the trailer (or ADU) CRC — the
         single-corruption detector the integrity layer promises. *)
      let len = write_valid_frag t ~stream:(fresh_stream t) ~index:0 in
      let pos = Netsim.Rng.int rng ~bound:len in
      let mask = 1 + Netsim.Rng.int rng ~bound:255 in
      Bytebuf.set_uint8 t.scratch pos
        (Bytebuf.get_uint8 t.scratch pos lxor mask);
      send t
        ~src_port:(port_of t (Netsim.Rng.int rng ~bound:t.cfg.ports))
        ~len ~malformed:true Flip
  | Trunc ->
      (* A valid datagram cut short at a random boundary. *)
      let len = write_valid_frag t ~stream:(fresh_stream t) ~index:0 in
      let cut = 1 + Netsim.Rng.int rng ~bound:(len - 1) in
      send t
        ~src_port:(port_of t (Netsim.Rng.int rng ~bound:t.cfg.ports))
        ~len:cut ~malformed:true Trunc
  | Replay ->
      (* The same (port, stream, index) every time: after the first
         delivery the server must treat each copy as a counted dup. *)
      let src_port = port_of t 0 in
      let len = write_valid_frag t ~stream:0xFFFE ~index:0 in
      send t ~src_port ~len ~malformed:false Replay
  | Churn ->
      (* Session-churn flood: index 0 of an ever-new stream — each one
         is an admission, the per-peer police's main customer. *)
      let stream = fresh_stream t in
      let len = write_valid_frag t ~stream ~index:0 in
      send t ~src_port:(port_of t stream) ~len ~malformed:false Churn
  | Drip ->
      (* Slow drip: one persistent stream per port, consecutive indices,
         never a CLOSE — holds a session slot until idle harvest. *)
      let p = Netsim.Rng.int rng ~bound:t.cfg.ports in
      let index = t.drip_index.(p) in
      t.drip_index.(p) <- index + 1;
      let len = write_valid_frag t ~stream:0xFFFD ~index in
      send t ~src_port:(port_of t p) ~len ~malformed:false Drip
  | Nack_storm ->
      (* Valid sealed NACK/DONE control at the server: parsed, then
         ignored or policed — either way it must cost O(1). *)
      let stream = 1 + Netsim.Rng.int rng ~bound:0xFFFE in
      let body =
        if Netsim.Rng.bool rng ~p:0.5 then
          Ctl.write_nack t.scratch ~stream
            ~have_below:(Netsim.Rng.int rng ~bound:1000)
            [
              Netsim.Rng.int rng ~bound:1000;
              Netsim.Rng.int rng ~bound:1000;
            ]
        else Ctl.write_done t.scratch ~stream
      in
      let len = Ctl.seal_in_place t.cfg.integrity t.scratch ~len:body in
      send t
        ~src_port:(port_of t (Netsim.Rng.int rng ~bound:t.cfg.ports))
        ~len ~malformed:false Nack_storm
  | Close_flood ->
      (* CLOSE with a 4-billion total on a fresh stream: the repair
         clamp and admission police both get exercised. *)
      let stream = fresh_stream t in
      let body =
        Ctl.write_close t.scratch ~stream ~total:0xFFFFFFF0
      in
      let len = Ctl.seal_in_place t.cfg.integrity t.scratch ~len:body in
      send t ~src_port:(port_of t stream) ~len ~malformed:false Close_flood
  | Forged ->
      (* A valid fragment whose index is a million past any frontier:
         must be a window drop, never an ahead-table entry. *)
      let index = 1_000_000 + Netsim.Rng.int rng ~bound:1_000_000 in
      let len = write_valid_frag t ~stream:0xFFFD ~index in
      send t
        ~src_port:(port_of t (Netsim.Rng.int rng ~bound:t.cfg.ports))
        ~len ~malformed:false Forged

let step t ~budget =
  for _ = 1 to budget do
    emit t
  done;
  budget

let stats t = t.stats
