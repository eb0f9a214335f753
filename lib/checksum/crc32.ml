open Bufkit

(* Built eagerly: [lazy] is not safe to force from two domains at once
   (the second forcer can observe [CamlinternalLazy.Undefined]), and CRC32
   runs on stage-2 worker domains. 256 table entries cost nothing at
   start-up. *)
let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

(* Slicing-by-8 (Intel's extension of Sarwate's algorithm): seven more
   tables where [tk.(b)] is the register effect of byte [b] followed by
   [k] zero bytes, so one 64-bit load advances the CRC with eight
   independent lookups instead of eight chained byte steps. This is what
   lets the fused ILP block op keep a CRC stage at word speed. *)
let table1, table2, table3, table4, table5, table6, table7 =
  let next t8 prev =
    let t = Array.make 256 0 in
    for n = 0 to 255 do
      t.(n) <- t8.(prev.(n) land 0xff) lxor (prev.(n) lsr 8)
    done;
    t
  in
  let t1 = next table table in
  let t2 = next table t1 in
  let t3 = next table t2 in
  let t4 = next table t3 in
  let t5 = next table t4 in
  let t6 = next table t5 in
  let t7 = next table t6 in
  (t1, t2, t3, t4, t5, t6, t7)

type state = int

let init = 0xFFFFFFFF

let feed_byte st b =
  let t = table in
  t.((st lxor (b land 0xff)) land 0xff) lxor (st lsr 8)

let[@inline] feed_word64le st w =
  (* XOR the register into the low 32 bits of the word, then slice: byte
     k of the result is followed by 7-k more bytes of this word. *)
  let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL) lxor st in
  let hi = Int64.to_int (Int64.shift_right_logical w 32) land 0xFFFFFFFF in
  Array.unsafe_get table7 (lo land 0xff)
  lxor Array.unsafe_get table6 ((lo lsr 8) land 0xff)
  lxor Array.unsafe_get table5 ((lo lsr 16) land 0xff)
  lxor Array.unsafe_get table4 ((lo lsr 24) land 0xff)
  lxor Array.unsafe_get table3 (hi land 0xff)
  lxor Array.unsafe_get table2 ((hi lsr 8) land 0xff)
  lxor Array.unsafe_get table1 ((hi lsr 16) land 0xff)
  lxor Array.unsafe_get table ((hi lsr 24) land 0xff)

(* Block-grain feed for the fused ILP flush: eight sliced word steps in
   one call, so the caller pays one cross-module dispatch per 64 bytes
   instead of one per word. *)
let feed_block64 st bytes off =
  let st = feed_word64le st (Bytes.get_int64_le bytes off) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 8)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 16)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 24)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 32)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 40)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 48)) in
  feed_word64le st (Bytes.get_int64_le bytes (off + 56))

let feed_sub st buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytebuf.length buf then
    raise
      (Bytebuf.Bounds
         (Printf.sprintf "Crc32.feed_sub: pos=%d len=%d in slice of %d" pos
            len (Bytebuf.length buf)));
  let t = table in
  let bytes = Bytebuf.data buf and base = Bytebuf.offset buf in
  let st = ref st in
  let i = ref pos in
  let word_end = pos + (len land lnot 7) in
  while !i < word_end do
    st := feed_word64le !st (Bytes.get_int64_le bytes (base + !i));
    i := !i + 8
  done;
  while !i < pos + len do
    let b = Char.code (Bytes.unsafe_get bytes (base + !i)) in
    st := t.((!st lxor b) land 0xff) lxor (!st lsr 8);
    incr i
  done;
  !st

let feed st buf = feed_sub st buf ~pos:0 ~len:(Bytebuf.length buf)
let finish_int st = (st lxor 0xFFFFFFFF) land 0xFFFFFFFF
let resume d = d lxor 0xFFFFFFFF
let finish st = Int32.of_int (finish_int st)
let digest_sub buf ~pos ~len = finish_int (feed_sub init buf ~pos ~len)
let digest buf = finish (feed init buf)
let digest_string s = digest (Bytebuf.of_string s)

(* CRC concatenation without re-reading either input, by zlib's
   (>= 1.2.12) polynomial construction. Over GF(2), appending [len2]
   zero bytes to a message multiplies its CRC register by x^(8 len2)
   mod P, so the CRC of the concatenation is [crc1 * x^(8 len2) mod P]
   xor [crc2]. [x2n_table.(k)] holds x^(2^k) mod P, built once at module
   init; the power for [len2] is the product of the entries selected by
   its bits, each a 32-step shift-and-add [multmodp]. No arrays and no
   matrices per call. This is what lets a fused send path compute the
   payload CRC once, in the marshalling loop, and still produce
   header-spanning digests without touching the payload again. *)

(* a * b mod P, reflected (bit 31 is x^0): for each bit of [a] from x^0
   up, add the current [b] when the bit is set, then multiply [b] by x.
   Branch-free, 32 steps. *)
let multmodp a b =
  let p = ref 0 and b = ref b in
  for k = 31 downto 0 do
    p := !p lxor (!b land -((a lsr k) land 1));
    b := (!b lsr 1) lxor (0xEDB88320 land -(!b land 1))
  done;
  !p

let x2n_table =
  let t = Array.make 32 0 in
  let p = ref (1 lsl 30) (* x^1 *) in
  t.(0) <- !p;
  for k = 1 to 31 do
    p := multmodp !p !p;
    t.(k) <- !p
  done;
  t

(* x^(8 n) mod P, the register operator for [n] zero bytes: bit j of
   [n] selects x^(2^(j+3)). *)
let x8nmodp n =
  let p = ref (1 lsl 31) (* x^0 *) and n = ref n and k = ref 3 in
  while !n <> 0 do
    if !n land 1 = 1 then p := multmodp x2n_table.(!k land 31) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 len2 =
  (* Appending zero bytes is the identity map on the register, but the
     second digest must still be folded in: [crc2] of the empty string is
     0, so for a genuinely empty suffix this is [crc1] — and for a
     non-empty digest spliced at a zero-length offset (empty-payload ADU
     seals), dropping [crc2] would silently corrupt the composition. *)
  if len2 <= 0 then crc1 lxor crc2 else multmodp (x8nmodp len2) crc1 lxor crc2
