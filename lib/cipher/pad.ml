open Bufkit

type t = { key : int64 }

let create ~key = { key }

(* SplitMix64 finaliser over key-mixed block index: a cheap, statistically
   strong pure function of (key, position / 8). Eight keystream bytes per
   mix. Inlined down to [xor_at], so its loop keeps every int64 unboxed. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] block t idx = mix64 (Int64.add t.key (Int64.mul idx 0x9E3779B97F4A7C15L))
let block64 = block

let[@inline] word64_at t pos =
  let idx = Int64.div pos 8L and off = Int64.to_int (Int64.rem pos 8L) in
  if off = 0 then block t idx
  else
    (* Straddles two blocks: low octets from the tail of block [idx], high
       octets from the head of block [idx+1]. *)
    Int64.logor
      (Int64.shift_right_logical (block t idx) (off * 8))
      (Int64.shift_left (block t (Int64.add idx 1L)) ((8 - off) * 8))

let[@inline] byte_at t pos =
  let idx = Int64.div pos 8L and off = Int64.to_int (Int64.rem pos 8L) in
  Int64.to_int (Int64.shift_right_logical (block t idx) (off * 8)) land 0xff

let xor_at t ~pos ~i bytes ~off ~len =
  let p = Int64.add pos (Int64.of_int i) in
  let j = ref 0 in
  while !j + 8 <= len do
    let o = off + !j in
    Bytes.set_int64_le bytes o
      (Int64.logxor (Bytes.get_int64_le bytes o)
         (word64_at t (Int64.add p (Int64.of_int !j))));
    j := !j + 8
  done;
  while !j < len do
    let o = off + !j in
    Bytes.set_uint8 bytes o
      (Bytes.get_uint8 bytes o lxor byte_at t (Int64.add p (Int64.of_int !j)));
    incr j
  done

let transform_at t ~pos buf =
  let n = Bytebuf.length buf in
  for i = 0 to n - 1 do
    let k = byte_at t (Int64.add pos (Int64.of_int i)) in
    let b = Char.code (Bytebuf.unsafe_get buf i) in
    Bytebuf.unsafe_set buf i (Char.unsafe_chr (b lxor k))
  done

let transform_copy_at t ~pos ~src ~dst =
  let n = Bytebuf.length src in
  if Bytebuf.length dst <> n then
    invalid_arg "Pad.transform_copy_at: length mismatch";
  for i = 0 to n - 1 do
    let k = byte_at t (Int64.add pos (Int64.of_int i)) in
    let b = Char.code (Bytebuf.unsafe_get src i) in
    Bytebuf.unsafe_set dst i (Char.unsafe_chr (b lxor k))
  done
