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

(* Writers lay the message into the front of [buf] and return the body
   length, so pooled or scratch buffers can be filled and sealed in
   place. Each checks its room once, raising {!Cursor.Overflow} as a
   cursor would (so {!build} can grow its buffer), then stores; none
   allocates. *)

let room buf n =
  if Bytebuf.length buf < n then
    raise
      (Cursor.Overflow
         (Printf.sprintf "Ctl: need %d bytes of room, %d remain" n
            (Bytebuf.length buf)))

let rec put_indices buf pos = function
  | [] -> pos
  | i :: tl ->
      Bytebuf.set_be buf pos i ~bytes:4;
      put_indices buf (pos + 4) tl

let head buf tag ~stream =
  Bytebuf.set_be buf 0 tag ~bytes:1;
  Bytebuf.set_be buf 1 stream ~bytes:2

let write_done buf ~stream =
  room buf 3;
  head buf tag_done ~stream;
  3

let write_close buf ~stream ~total =
  room buf 7;
  head buf tag_close ~stream;
  Bytebuf.set_be buf 3 total ~bytes:4;
  7

let write_nack buf ~stream ~have_below indices =
  let count = List.length indices in
  room buf (9 + (4 * count));
  head buf tag_nack ~stream;
  Bytebuf.set_be buf 3 have_below ~bytes:4;
  Bytebuf.set_be buf 7 count ~bytes:2;
  put_indices buf 9 indices

let write_gone buf ~stream indices =
  let count = List.length indices in
  room buf (5 + (4 * count));
  head buf tag_gone ~stream;
  Bytebuf.set_be buf 3 count ~bytes:2;
  put_indices buf 5 indices

let build write =
  let rec go size =
    let buf = Bytebuf.create size in
    match write buf with
    | len -> Bytebuf.take buf len
    | exception Cursor.Overflow _ -> go (2 * size)
  in
  go 64
