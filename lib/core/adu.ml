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

let encoded_size t = header_size + Bytebuf.length t.payload

exception Decode_error of string

(* Header layout: magic(2) stream(2) index(4) dest_off(8) dest_len(4)
   timestamp_us(8) plen(4) crc(4). *)
let write_header buf ~pos name ~plen ~payload_crc =
  let put off v ~bytes = Bytebuf.set_be buf (pos + off) v ~bytes in
  put 0 magic ~bytes:2;
  put 2 name.stream ~bytes:2;
  put 4 name.index ~bytes:4;
  put 8 name.dest_off ~bytes:8;
  put 16 name.dest_len ~bytes:4;
  let ts = name.timestamp_us in
  put 20 (Int64.to_int (Int64.shift_right_logical ts 32)) ~bytes:4;
  put 24 (Int64.to_int ts) ~bytes:4;
  put 28 plen ~bytes:4;
  put 32 0 ~bytes:4;
  (* The CRC covers the header with its own field zeroed, then the
     payload: extend the header's digest by the payload's. *)
  let hcrc =
    Checksum.Crc32.finish
      (Checksum.Crc32.feed_sub Checksum.Crc32.init buf ~pos ~len:header_size)
  in
  put 32 (Int32.to_int (Checksum.Crc32.combine hcrc payload_crc plen)) ~bytes:4

let encode t =
  let plen = Bytebuf.length t.payload in
  let buf = Bytebuf.create (header_size + plen) in
  Bytebuf.blit ~src:t.payload ~src_pos:0 ~dst:buf ~dst_pos:header_size
    ~len:plen;
  write_header buf ~pos:0 t.name ~plen
    ~payload_crc:(Checksum.Crc32.digest t.payload);
  buf

(* The total decoder: malformed input is an [Error _], never an
   exception. After the length check every read below is within the
   36-byte header, so no [Cursor.Underflow] can escape. The raising
   {!decode_view} is a thin wrapper kept for existing callers. *)
let decode_view_res buf =
  if Bytebuf.length buf < header_size then
    Error
      (Printf.sprintf "ADU of %d bytes is shorter than the header"
         (Bytebuf.length buf))
  else
    let r = Cursor.reader buf in
    if Cursor.u16be r <> magic then Error "bad ADU magic"
    else
      let stream = Cursor.u16be r in
      let index = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
      let dest_off = Int64.to_int (Cursor.u64be r) in
      let dest_len = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
      let timestamp_us = Cursor.u64be r in
      let plen = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
      let got_crc = Cursor.u32be r in
      if Bytebuf.length buf <> header_size + plen then
        Error
          (Printf.sprintf "ADU length field %d does not match %d available"
             plen
             (Bytebuf.length buf - header_size))
      else
        (* The CRC is computed with its own field zeroed: feed the bytes
           around the field plus four literal zeros instead of copying the
           whole unit into a zeroed scratch buffer. *)
        let crc =
          let st = Checksum.Crc32.feed_sub Checksum.Crc32.init buf ~pos:0 ~len:32 in
          let st = ref st in
          for _ = 1 to 4 do
            st := Checksum.Crc32.feed_byte !st 0
          done;
          Checksum.Crc32.finish
            (Checksum.Crc32.feed_sub !st buf ~pos:header_size ~len:plen)
        in
        if not (Int32.equal crc got_crc) then Error "ADU CRC mismatch"
        else
          let payload = Bytebuf.sub buf ~pos:header_size ~len:plen in
          Ok { name = { stream; index; dest_off; dest_len; timestamp_us }; payload }

let decode_view buf =
  match decode_view_res buf with
  | Ok t -> t
  | Error msg -> raise (Decode_error msg)

let decode buf =
  let t = decode_view buf in
  { t with payload = Bytebuf.copy t.payload }

let pp ppf t =
  Format.fprintf ppf "%a len=%d" pp_name t.name (Bytebuf.length t.payload)
