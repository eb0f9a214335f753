open Bufkit

(* State: [sum] accumulates 16-bit big-endian words; [odd] is true when an
   odd number of bytes has been absorbed, i.e. the last byte fed was the
   high half of a word whose low half is still to come. OCaml's 63-bit
   ints give ample headroom, but we fold carries opportunistically so the
   state stays small. *)
type state = { sum : int; odd : bool }

let init = { sum = 0; odd = false }

let fold16 sum =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go sum

let maybe_fold sum = if sum > 0x3FFFFFFF then fold16 sum else sum

let feed_byte st b =
  let b = b land 0xff in
  if st.odd then { sum = maybe_fold (st.sum + b); odd = false }
  else { sum = maybe_fold (st.sum + (b lsl 8)); odd = true }

let feed_sub st buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytebuf.length buf then
    raise
      (Bytebuf.Bounds
         (Printf.sprintf "Internet.feed_sub: pos=%d len=%d in slice of %d" pos
            len (Bytebuf.length buf)));
  if len = 0 then st
  else begin
    let i = ref pos in
    let stop = pos + len in
    let sum = ref st.sum in
    let odd = ref st.odd in
    if !odd then begin
      sum := !sum + Char.code (Bytebuf.unsafe_get buf !i);
      odd := false;
      incr i
    end;
    while stop - !i >= 2 do
      let hi = Char.code (Bytebuf.unsafe_get buf !i) in
      let lo = Char.code (Bytebuf.unsafe_get buf (!i + 1)) in
      sum := !sum + ((hi lsl 8) lor lo);
      if !sum > 0x3FFFFFFF then sum := fold16 !sum;
      i := !i + 2
    done;
    if !i < stop then begin
      sum := !sum + (Char.code (Bytebuf.unsafe_get buf !i) lsl 8);
      odd := true
    end;
    { sum = maybe_fold !sum; odd = !odd }
  end

let feed st buf = feed_sub st buf ~pos:0 ~len:(Bytebuf.length buf)
let finish st = lnot (fold16 st.sum) land 0xffff
let digest buf = finish (feed init buf)

let digest_iovec iov =
  let st = ref init in
  Iovec.iter_fragments iov (fun frag -> st := feed !st frag);
  finish !st

let verify buf ~expected = digest buf = expected land 0xffff

let pp ppf st =
  Format.fprintf ppf "internet(sum=%04x odd=%b)" (fold16 st.sum) st.odd
