open Bufkit

(* RFC 8439 AEAD_CHACHA20_POLY1305, decomposed into block, word and
   byte combinators so the whole construction — XOR with keystream, MAC
   over the ciphertext — runs inside one fused ILP pass. The caller
   drives the payload through them in position order (the plan
   compiler's block driver takes [seal_block64]/[open_block64] per
   block and the byte forms for the tail), then closes with [tag].

   MAC input: AAD ‖ pad16 ‖ ciphertext ‖ pad16 ‖ len(AAD)_LE64 ‖
   len(ct)_LE64, keyed by ChaCha20 block 0; payload keystream starts at
   block 1. *)

type t = {
  c : Chacha20.t;
  p : Poly1305.t;
  mutable aad_len : int;
  mutable ct_len : int;
}

(* Start a new record in place: re-key the keystream, take the one-time
   MAC key from its block 0 and absorb the AAD. Allocates nothing, so a
   context made once serves every record its owner seals or opens. *)
let reset t ~key ~n0 ~n1 ~n2 ~aad =
  Chacha20.reset t.c ~key ~n0 ~n1 ~n2;
  Poly1305.reset t.p (Chacha20.key_block t.c) 0;
  Poly1305.feed_sub t.p aad;
  Poly1305.pad16 t.p;
  t.aad_len <- Bytebuf.length aad;
  t.ct_len <- 0

let no_key = Chacha20.key_of_int64 0L

let make () =
  {
    c = Chacha20.create ~key:no_key ~n0:0 ~n1:0 ~n2:0;
    p = Poly1305.create ~k0:0L ~k1:0L ~k2:0L ~k3:0L;
    aad_len = 0;
    ct_len = 0;
  }

let create ~key ~n0 ~n1 ~n2 ~aad =
  let t = make () in
  reset t ~key ~n0 ~n1 ~n2 ~aad;
  t

let[@inline] seal_word t pos w =
  let ct = Int64.logxor w (Chacha20.word64_at t.c pos) in
  Poly1305.feed_word64 t.p ct;
  t.ct_len <- t.ct_len + 8;
  ct

let[@inline] open_word t pos w =
  Poly1305.feed_word64 t.p w;
  t.ct_len <- t.ct_len + 8;
  Int64.logxor w (Chacha20.word64_at t.c pos)

let[@inline] seal_byte t pos b =
  let ct = (b lxor Chacha20.byte_at t.c pos) land 0xff in
  Poly1305.feed_byte t.p ct;
  t.ct_len <- t.ct_len + 1;
  ct

let[@inline] open_byte t pos b =
  Poly1305.feed_byte t.p b;
  t.ct_len <- t.ct_len + 1;
  (b lxor Chacha20.byte_at t.c pos) land 0xff

(* Block-grain seal/open for the fused flush: 64 bytes in place, [pos]
   64-aligned. One keystream seek, one four-fold MAC feed — the per-word
   dispatch this amortises is what the E20 gate measures. *)

let seal_block64 t ~pos bytes ~off =
  Chacha20.xor_block64 t.c ~pos bytes ~off;
  Poly1305.feed_block64 t.p bytes off;
  t.ct_len <- t.ct_len + 64

let open_block64 t ~pos bytes ~off =
  Poly1305.feed_block64 t.p bytes off;
  Chacha20.xor_block64 t.c ~pos bytes ~off;
  t.ct_len <- t.ct_len + 64

let close_mac t =
  Poly1305.pad16 t.p;
  Poly1305.feed_lengths t.p t.aad_len t.ct_len

let tag t =
  close_mac t;
  Poly1305.finish t.p

let tag_into t out off =
  close_mac t;
  Poly1305.finish_into t.p out off

let tag_matches ~lo ~hi (lo', hi') =
  Int64.logor (Int64.logxor lo lo') (Int64.logxor hi hi') = 0L

let tags_equal a aoff b boff =
  Int64.logor
    (Int64.logxor (Bytes.get_int64_le a aoff) (Bytes.get_int64_le b boff))
    (Int64.logxor
       (Bytes.get_int64_le a (aoff + 8))
       (Bytes.get_int64_le b (boff + 8)))
  = 0L

(* The whole-buffer pass over a reset context: whole 64-byte blocks go
   through the block-grain primitives, the sub-block tail a byte at a
   time. *)
let run t ~seal bytes boff n =
  let i = ref 0 in
  while !i + 64 <= n do
    if seal then seal_block64 t ~pos:!i bytes ~off:(boff + !i)
    else open_block64 t ~pos:!i bytes ~off:(boff + !i);
    i := !i + 64
  done;
  while !i < n do
    let b = Char.code (Bytes.unsafe_get bytes (boff + !i)) in
    let b' = if seal then seal_byte t !i b else open_byte t !i b in
    Bytes.unsafe_set bytes (boff + !i) (Char.unsafe_chr b');
    incr i
  done

(* Whole-buffer forms over a fresh context: the honest serial baseline
   (separate passes would be even slower; this is already the
   fused-per-call composition) and the oracle the fused plan stages are
   tested against. *)

let seal_in_place ~key ~n0 ~n1 ~n2 ~aad buf =
  let t = create ~key ~n0 ~n1 ~n2 ~aad in
  run t ~seal:true (Bytebuf.data buf) (Bytebuf.offset buf) (Bytebuf.length buf);
  tag t

let open_in_place_tag ~key ~n0 ~n1 ~n2 ~aad buf =
  let t = create ~key ~n0 ~n1 ~n2 ~aad in
  run t ~seal:false (Bytebuf.data buf) (Bytebuf.offset buf) (Bytebuf.length buf);
  tag t

let open_in_place ~key ~n0 ~n1 ~n2 ~aad buf ~lo ~hi =
  tag_matches ~lo ~hi (open_in_place_tag ~key ~n0 ~n1 ~n2 ~aad buf)
