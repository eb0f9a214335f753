open Bufkit

(* Control-message discriminators (data fragments start with 0xAD, see
   Framing; FEC-wrapped fragments with 0xFE). *)
let tag_nack = 0xC1
let tag_close = 0xC2
let tag_done = 0xC3
let tag_gone = 0xC4
let tag_fec = 0xFE

(* --- Per-datagram integrity ---

   Every datagram (data fragment or control message) optionally carries a
   4-byte big-endian checksum trailer over the rest of the payload.
   Corrupted transmission units are dropped at stage 1 instead of
   poisoning reassembly or being mistaken for control traffic. Both ends
   must agree on the [integrity] kind; the trailer sits at the end so the
   stream id at bytes 1–2 (what {!Mux} and the serve demux dispatch on)
   keeps its place. *)

let trailer_size = 4

let seal_in_place integrity buf ~len =
  match integrity with
  | None -> len
  | Some kind ->
      let d =
        match kind with
        | Checksum.Kind.Crc32 -> Checksum.Crc32.digest_sub buf ~pos:0 ~len
        | kind -> Checksum.Kind.digest kind (Bytebuf.sub buf ~pos:0 ~len)
      in
      Bytebuf.set_be buf len d ~bytes:4;
      len + trailer_size

let seal integrity buf =
  match integrity with
  | None -> buf
  | Some _ ->
      let n = Bytebuf.length buf in
      let out = Bytebuf.create (n + trailer_size) in
      Bytebuf.blit ~src:buf ~src_pos:0 ~dst:out ~dst_pos:0 ~len:n;
      ignore (seal_in_place integrity out ~len:n);
      out

let unseal integrity buf =
  match integrity with
  | None -> Some buf
  | Some kind ->
      let n = Bytebuf.length buf in
      if n < trailer_size then None
      else
        let body = Bytebuf.sub buf ~pos:0 ~len:(n - trailer_size) in
        let stored =
          (Bytebuf.get_uint8 buf (n - 4) lsl 24)
          lor (Bytebuf.get_uint8 buf (n - 3) lsl 16)
          lor (Bytebuf.get_uint8 buf (n - 2) lsl 8)
          lor Bytebuf.get_uint8 buf (n - 1)
        in
        if Checksum.Kind.digest kind body land 0xFFFFFFFF = stored then
          Some body
        else None

(* Writers lay the message into the front of [buf] and return the body
   length, so pooled or scratch buffers can be filled and sealed in
   place. *)

let write_done buf ~stream =
  let w = Cursor.writer buf in
  Cursor.put_u8 w tag_done;
  Cursor.put_u16be w stream;
  Bytebuf.length (Cursor.written w)

let write_close buf ~stream ~total =
  let w = Cursor.writer buf in
  Cursor.put_u8 w tag_close;
  Cursor.put_u16be w stream;
  Cursor.put_int_as_u32be w total;
  Bytebuf.length (Cursor.written w)

let write_nack buf ~stream ~have_below indices =
  let w = Cursor.writer buf in
  Cursor.put_u8 w tag_nack;
  Cursor.put_u16be w stream;
  Cursor.put_int_as_u32be w have_below;
  Cursor.put_u16be w (List.length indices);
  List.iter (fun i -> Cursor.put_int_as_u32be w i) indices;
  Bytebuf.length (Cursor.written w)

let write_gone buf ~stream indices =
  let w = Cursor.writer buf in
  Cursor.put_u8 w tag_gone;
  Cursor.put_u16be w stream;
  Cursor.put_u16be w (List.length indices);
  List.iter (fun i -> Cursor.put_int_as_u32be w i) indices;
  Bytebuf.length (Cursor.written w)

let build write =
  let rec go size =
    let buf = Bytebuf.create size in
    match write buf with
    | len -> Bytebuf.take buf len
    | exception Cursor.Overflow _ -> go (2 * size)
  in
  go 64

type msg =
  | Nack of { stream : int; have_below : int; indices : int list }
  | Close of { stream : int; total : int }
  | Done of { stream : int }
  | Gone of { stream : int; indices : int list }

let stream_of = function
  | Nack { stream; _ } | Close { stream; _ } | Done { stream }
  | Gone { stream; _ } ->
      stream

let read_indices r count =
  let rec go n acc =
    if n = 0 then List.rev acc
    else go (n - 1) ((Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF) :: acc)
  in
  go count []

let parse buf =
  if Bytebuf.length buf = 0 then None
  else
    let r = Cursor.reader buf in
    try
      match Cursor.u8 r with
      | t when t = tag_nack ->
          let stream = Cursor.u16be r in
          let have_below = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
          let count = Cursor.u16be r in
          Some (Nack { stream; have_below; indices = read_indices r count })
      | t when t = tag_close ->
          let stream = Cursor.u16be r in
          let total = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
          Some (Close { stream; total })
      | t when t = tag_done ->
          let stream = Cursor.u16be r in
          Some (Done { stream })
      | t when t = tag_gone ->
          let stream = Cursor.u16be r in
          let count = Cursor.u16be r in
          Some (Gone { stream; indices = read_indices r count })
      | _ -> None
    with Cursor.Underflow _ -> None
