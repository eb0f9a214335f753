open Bufkit

type name = {
  stream : int;
  index : int;
  dest_off : int;
  dest_len : int;
  timestamp_us : int64;
}

let name ?(dest_off = 0) ?(dest_len = 0) ?(timestamp_us = 0L) ~stream ~index () =
  if stream < 0 || stream > 0xFFFF then invalid_arg "Adu.name: stream out of range";
  if index < 0 then invalid_arg "Adu.name: negative index";
  { stream; index; dest_off; dest_len; timestamp_us }

let pp_name ppf n =
  Format.fprintf ppf "adu[%d.%d @%d+%d t=%Ldus]" n.stream n.index n.dest_off
    n.dest_len n.timestamp_us

type t = { name : name; payload : Bytebuf.t }

let make name payload = { name; payload }

let header_size = 36
let magic = 0xADF0

(* Header layout: magic(2) stream(2) index(4) dest_off(8) dest_len(4)
   timestamp_us(8) plen(4) crc(4). *)
let write_header buf ~pos name ~plen ~payload_crc =
  Bytebuf.set_be buf pos magic ~bytes:2;
  Bytebuf.set_be buf (pos + 2) name.stream ~bytes:2;
  Bytebuf.set_be buf (pos + 4) name.index ~bytes:4;
  Bytebuf.set_be buf (pos + 8) name.dest_off ~bytes:8;
  Bytebuf.set_be buf (pos + 16) name.dest_len ~bytes:4;
  let ts = name.timestamp_us in
  Bytebuf.set_be buf (pos + 20) (Int64.to_int (Int64.shift_right_logical ts 32))
    ~bytes:4;
  Bytebuf.set_be buf (pos + 24) (Int64.to_int ts) ~bytes:4;
  Bytebuf.set_be buf (pos + 28) plen ~bytes:4;
  Bytebuf.set_be buf (pos + 32) 0 ~bytes:4;
  (* The CRC covers the header with its own field zeroed, then the
     payload: extend the header's digest by the payload's. *)
  let hcrc = Checksum.Crc32.digest_sub buf ~pos ~len:header_size in
  Bytebuf.set_be buf (pos + 32)
    (Checksum.Crc32.combine hcrc payload_crc plen)
    ~bytes:4

let encode t =
  let plen = Bytebuf.length t.payload in
  let buf = Bytebuf.create (header_size + plen) in
  Bytebuf.blit ~src:t.payload ~src_pos:0 ~dst:buf ~dst_pos:header_size
    ~len:plen;
  write_header buf ~pos:0 t.name ~plen
    ~payload_crc:(Checksum.Crc32.digest_sub t.payload ~pos:0 ~len:plen);
  buf

type header = {
  mutable h_stream : int;
  mutable h_index : int;
  mutable h_dest_off : int;
  mutable h_dest_len : int;
  mutable h_ts_hi : int;
  mutable h_ts_lo : int;
  mutable h_plen : int;
}

let header () =
  { h_stream = 0; h_index = 0; h_dest_off = 0; h_dest_len = 0; h_ts_hi = 0;
    h_ts_lo = 0; h_plen = 0 }

(* The mirror of [write_header], total: every read sits inside the bytes
   the length checks prove present. The CRC runs with its own field
   zeroed — the bytes around it plus four literal zeros, no copy. *)
let read_header h buf ~pos ~len =
  len >= header_size
  && pos >= 0
  && pos + len <= Bytebuf.length buf
  && Bytebuf.get_be buf pos ~bytes:2 = magic
  && begin
       h.h_stream <- Bytebuf.get_be buf (pos + 2) ~bytes:2;
       h.h_index <- Bytebuf.get_be buf (pos + 4) ~bytes:4;
       h.h_dest_off <- Bytebuf.get_be buf (pos + 8) ~bytes:8;
       h.h_dest_len <- Bytebuf.get_be buf (pos + 16) ~bytes:4;
       h.h_ts_hi <- Bytebuf.get_be buf (pos + 20) ~bytes:4;
       h.h_ts_lo <- Bytebuf.get_be buf (pos + 24) ~bytes:4;
       h.h_plen <- Bytebuf.get_be buf (pos + 28) ~bytes:4;
       len = header_size + h.h_plen
     end
  &&
  let open Checksum.Crc32 in
  let st = feed_sub init buf ~pos ~len:32 in
  let st = feed_byte (feed_byte (feed_byte (feed_byte st 0) 0) 0) 0 in
  finish_int (feed_sub st buf ~pos:(pos + header_size) ~len:h.h_plen)
  = Bytebuf.get_be buf (pos + 32) ~bytes:4

let of_header_trimmed h buf ~pos ~trailer =
  let timestamp_us =
    Int64.logor (Int64.shift_left (Int64.of_int h.h_ts_hi) 32) (Int64.of_int h.h_ts_lo)
  in
  {
    name =
      { stream = h.h_stream; index = h.h_index; dest_off = h.h_dest_off;
        dest_len = h.h_dest_len; timestamp_us };
    payload = Bytebuf.sub buf ~pos:(pos + header_size) ~len:(h.h_plen - trailer);
  }

let of_header h buf ~pos = of_header_trimmed h buf ~pos ~trailer:0

let pp ppf t =
  Format.fprintf ppf "%a len=%d" pp_name t.name (Bytebuf.length t.payload)
