open Bufkit

(* RFC 8439 ChaCha20, pure OCaml, word-at-a-time.

   The keystream is a pure function of (key, nonce, byte position): block
   [p / 64] is one 20-round core evaluation, independent of every other
   block. That seekability is what lets the fused ILP loop consume the
   keystream 64 bits at a time at arbitrary offsets — same contract as
   [Pad.word64_at] — and what lets out-of-order ADUs decrypt without
   chaining state (contrast [Rc4], the paper's §5 pathology).

   The block function's u32 arithmetic rides in unboxed [int64] locals
   with lazy masking (see [refill]). Not hardened against timing side
   channels — this is a protocol-architecture reproduction, not a crypto
   library. *)

type key = int array (* 8 little-endian u32 words *)

let mask32 = 0xFFFFFFFF

let key_of_string s =
  if String.length s <> 32 then
    invalid_arg "Chacha20.key_of_string: key must be 32 bytes";
  Array.init 8 (fun i ->
      let b j = Char.code s.[(4 * i) + j] in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))

(* SplitMix64 expansion of a compact 64-bit seed into a 256-bit key, so
   demo/bench keys can be named the way [Pad] keys are. Convenience, not a
   KDF for real secrets. *)
let key_of_int64 seed =
  let mix64 z =
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let k = Array.make 8 0 in
  for i = 0 to 3 do
    let w =
      mix64 (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L))
    in
    k.(2 * i) <- Int64.to_int (Int64.logand w 0xFFFFFFFFL);
    k.((2 * i) + 1) <-
      Int64.to_int (Int64.logand (Int64.shift_right_logical w 32) 0xFFFFFFFFL)
  done;
  k

type t = {
  state : int array; (* 16 u32 words; slot 12 (counter) rewritten per block *)
  block : Bytes.t; (* 64-byte serialisation of the cached keystream block *)
  mutable cached : int; (* block counter held in [block]; -1 = none *)
}

(* Point [t] at a new (key, nonce) in place: the state words change and
   the cached block is dropped. Allocates nothing, so one keystream can
   serve a record context for its whole life. *)
let reset t ~key ~n0 ~n1 ~n2 =
  if Array.length key <> 8 then invalid_arg "Chacha20.reset: malformed key";
  let state = t.state in
  Array.blit key 0 state 4 8;
  state.(13) <- n0 land mask32;
  state.(14) <- n1 land mask32;
  state.(15) <- n2 land mask32;
  t.cached <- -1

let create ~key ~n0 ~n1 ~n2 =
  if Array.length key <> 8 then invalid_arg "Chacha20.create: malformed key";
  let state = Array.make 16 0 in
  state.(0) <- 0x61707865;
  state.(1) <- 0x3320646e;
  state.(2) <- 0x79622d32;
  state.(3) <- 0x6b206574;
  let t = { state; block = Bytes.create 64; cached = -1 } in
  reset t ~key ~n0 ~n1 ~n2;
  t

(* u32 rotate on a word whose bits above 31 may hold garbage: only the
   right-shifted operand needs its high half cleared. Bits 0..31 of the
   result are exact. *)
let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n)
    (Int64.shift_right_logical (Int64.logand x 0xFFFFFFFFL) (32 - n))

(* Feed-forward: add the input word and keep bits 0..31. *)
let[@inline] store b off x w =
  Bytes.set_int32_le b off (Int64.to_int32 (Int64.add x (Int64.of_int w)))

(* The 20 rounds on sixteen [int64] locals. Local refs of a boxed number
   type that never escape are kept unboxed by ocamlopt, so the block
   costs its arithmetic and no GC words. Masking is lazy: add and xor
   are exact in bits 0..31 whatever lies above, [rotl] clears only what
   it shifts down, and the feed-forward store truncates to 32 bits. *)
let refill t counter =
  let s = t.state and b = t.block in
  let counter = counter land mask32 in
  s.(12) <- counter;
  let x0 = ref (Int64.of_int s.(0)) and x1 = ref (Int64.of_int s.(1))
  and x2 = ref (Int64.of_int s.(2)) and x3 = ref (Int64.of_int s.(3))
  and x4 = ref (Int64.of_int s.(4)) and x5 = ref (Int64.of_int s.(5))
  and x6 = ref (Int64.of_int s.(6)) and x7 = ref (Int64.of_int s.(7))
  and x8 = ref (Int64.of_int s.(8)) and x9 = ref (Int64.of_int s.(9))
  and x10 = ref (Int64.of_int s.(10)) and x11 = ref (Int64.of_int s.(11))
  and x12 = ref (Int64.of_int counter) and x13 = ref (Int64.of_int s.(13))
  and x14 = ref (Int64.of_int s.(14)) and x15 = ref (Int64.of_int s.(15)) in
  let open Int64 in
  for _ = 1 to 10 do
    (* Column quarter-rounds: (0,4,8,12) (1,5,9,13) (2,6,10,14) (3,7,11,15). *)
    x0 := add !x0 !x4; x12 := rotl (logxor !x12 !x0) 16;
    x8 := add !x8 !x12; x4 := rotl (logxor !x4 !x8) 12;
    x0 := add !x0 !x4; x12 := rotl (logxor !x12 !x0) 8;
    x8 := add !x8 !x12; x4 := rotl (logxor !x4 !x8) 7;
    x1 := add !x1 !x5; x13 := rotl (logxor !x13 !x1) 16;
    x9 := add !x9 !x13; x5 := rotl (logxor !x5 !x9) 12;
    x1 := add !x1 !x5; x13 := rotl (logxor !x13 !x1) 8;
    x9 := add !x9 !x13; x5 := rotl (logxor !x5 !x9) 7;
    x2 := add !x2 !x6; x14 := rotl (logxor !x14 !x2) 16;
    x10 := add !x10 !x14; x6 := rotl (logxor !x6 !x10) 12;
    x2 := add !x2 !x6; x14 := rotl (logxor !x14 !x2) 8;
    x10 := add !x10 !x14; x6 := rotl (logxor !x6 !x10) 7;
    x3 := add !x3 !x7; x15 := rotl (logxor !x15 !x3) 16;
    x11 := add !x11 !x15; x7 := rotl (logxor !x7 !x11) 12;
    x3 := add !x3 !x7; x15 := rotl (logxor !x15 !x3) 8;
    x11 := add !x11 !x15; x7 := rotl (logxor !x7 !x11) 7;
    (* Diagonal quarter-rounds: (0,5,10,15) (1,6,11,12) (2,7,8,13) (3,4,9,14). *)
    x0 := add !x0 !x5; x15 := rotl (logxor !x15 !x0) 16;
    x10 := add !x10 !x15; x5 := rotl (logxor !x5 !x10) 12;
    x0 := add !x0 !x5; x15 := rotl (logxor !x15 !x0) 8;
    x10 := add !x10 !x15; x5 := rotl (logxor !x5 !x10) 7;
    x1 := add !x1 !x6; x12 := rotl (logxor !x12 !x1) 16;
    x11 := add !x11 !x12; x6 := rotl (logxor !x6 !x11) 12;
    x1 := add !x1 !x6; x12 := rotl (logxor !x12 !x1) 8;
    x11 := add !x11 !x12; x6 := rotl (logxor !x6 !x11) 7;
    x2 := add !x2 !x7; x13 := rotl (logxor !x13 !x2) 16;
    x8 := add !x8 !x13; x7 := rotl (logxor !x7 !x8) 12;
    x2 := add !x2 !x7; x13 := rotl (logxor !x13 !x2) 8;
    x8 := add !x8 !x13; x7 := rotl (logxor !x7 !x8) 7;
    x3 := add !x3 !x4; x14 := rotl (logxor !x14 !x3) 16;
    x9 := add !x9 !x14; x4 := rotl (logxor !x4 !x9) 12;
    x3 := add !x3 !x4; x14 := rotl (logxor !x14 !x3) 8;
    x9 := add !x9 !x14; x4 := rotl (logxor !x4 !x9) 7
  done;
  store b 0 !x0 s.(0); store b 4 !x1 s.(1); store b 8 !x2 s.(2);
  store b 12 !x3 s.(3); store b 16 !x4 s.(4); store b 20 !x5 s.(5);
  store b 24 !x6 s.(6); store b 28 !x7 s.(7); store b 32 !x8 s.(8);
  store b 36 !x9 s.(9); store b 40 !x10 s.(10); store b 44 !x11 s.(11);
  store b 48 !x12 counter; store b 52 !x13 s.(13); store b 56 !x14 s.(14);
  store b 60 !x15 s.(15);
  t.cached <- counter

let[@inline] seek t counter = if t.cached <> counter then refill t counter

(* Payload keystream: RFC 8439 reserves block 0 for the Poly1305 one-time
   key, so payload byte [p] draws from block [1 + p/64]. *)

let byte_at t pos =
  seek t (1 + (pos lsr 6));
  Char.code (Bytes.unsafe_get t.block (pos land 63))

let word64_at t pos =
  let off = pos land 63 in
  if off <= 56 then begin
    seek t (1 + (pos lsr 6));
    Bytes.get_int64_le t.block off
  end
  else begin
    (* The word straddles two keystream blocks; assemble bytewise. The
       seeks are sequential, so this costs at most one extra refill. *)
    let w = ref 0L in
    for j = 7 downto 0 do
      w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int (byte_at t (pos + j)))
    done;
    !w
  end

(* Block-grain XOR for the fused ILP flush: [pos] must be 64-aligned, so
   the whole span maps onto one cached keystream block — eight 64-bit
   loads from the cache, no per-word seek branch. *)
let xor_block64 t ~pos bytes ~off =
  seek t (1 + (pos lsr 6));
  let kb = t.block in
  for k = 0 to 7 do
    let o = off + (8 * k) in
    Bytes.set_int64_le bytes o
      (Int64.logxor (Bytes.get_int64_le bytes o) (Bytes.get_int64_le kb (8 * k)))
  done

let key_block t =
  seek t 0;
  t.block

let poly_key t =
  seek t 0;
  let b = t.block in
  ( Bytes.get_int64_le b 0,
    Bytes.get_int64_le b 8,
    Bytes.get_int64_le b 16,
    Bytes.get_int64_le b 24 )

let transform_at t ~pos buf =
  let bytes, boff, n = Bytebuf.backing buf in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = Bytes.get_int64_le bytes (boff + !i) in
    Bytes.set_int64_le bytes (boff + !i) (Int64.logxor w (word64_at t (pos + !i)));
    i := !i + 8
  done;
  while !i < n do
    let b = Char.code (Bytes.unsafe_get bytes (boff + !i)) in
    Bytes.unsafe_set bytes (boff + !i) (Char.unsafe_chr (b lxor byte_at t (pos + !i)));
    incr i
  done

let derive key ~n0 ~n1 ~n2 =
  let t = create ~key ~n0 ~n1 ~n2 in
  seek t 0;
  Array.init 8 (fun i ->
      let b j = Char.code (Bytes.get t.block ((4 * i) + j)) in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))
