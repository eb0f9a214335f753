(* A store-through byte sink: encoders store wire bytes straight into the
   destination slice, and every completed 64-byte block is handed to the
   [block] hook — the seam where [Ilp.run_marshal] runs its stage chain.
   Positions are kept as absolute offsets into the backing store, so a
   write is one comparison against [limit] and one store; nothing is
   accumulated, boxed or passed through a closure per word. *)

open Bufkit

type t = {
  mutable bytes : Bytes.t;
  mutable base : int;  (* absolute offset of the slice's first byte *)
  mutable limit : int;  (* absolute offset just past the slice *)
  mutable pos : int;  (* absolute write position *)
  mutable next : int;  (* absolute end of the block being filled *)
  block : int -> unit;
}

let reset t buf =
  let base = Bytebuf.offset buf in
  t.bytes <- Bytebuf.data buf;
  t.base <- base;
  t.limit <- base + Bytebuf.length buf;
  t.pos <- base;
  t.next <- base + 64

let create ~block buf =
  let t = { bytes = Bytes.empty; base = 0; limit = 0; pos = 0; next = 0; block } in
  reset t buf;
  t

let pos t = t.pos - t.base
let bytes t = t.bytes
let overrun () = invalid_arg "Wire.Sink: write past the end of the slice"

(* Blocks complete in order, and a single write may complete several
   (a long string), so drain every one the position has passed. *)
let settle t =
  while t.pos >= t.next do
    t.block (t.next - 64 - t.base);
    t.next <- t.next + 64
  done

let reserve t k =
  let p = t.pos in
  if k > t.limit - p then overrun ();
  p

let commit t k =
  t.pos <- t.pos + k;
  if t.pos >= t.next then settle t

let put_u8 t v =
  let p = reserve t 1 in
  Bytes.unsafe_set t.bytes p (Char.unsafe_chr (v land 0xff));
  commit t 1

let put_u16be t v =
  let p = reserve t 2 in
  Bytes.set_uint16_be t.bytes p (v land 0xffff);
  commit t 2

let put_u32be t v =
  let p = reserve t 4 in
  Bytes.set_int32_be t.bytes p (Int32.of_int v);
  commit t 4

let put_u64be t v =
  let p = reserve t 8 in
  Bytes.set_int64_be t.bytes p v;
  commit t 8

let put_be t v k =
  let p = reserve t k in
  for j = 0 to k - 1 do
    Bytes.unsafe_set t.bytes (p + j)
      (Char.unsafe_chr ((v asr (8 * (k - 1 - j))) land 0xff))
  done;
  commit t k

let put_string t s =
  let n = String.length s in
  let p = reserve t n in
  Bytes.blit_string s 0 t.bytes p n;
  commit t n

let put_zeros t k =
  let p = reserve t k in
  Bytes.fill t.bytes p k '\000';
  commit t k
