open Bufkit

(* Everything an AEAD record stage needs at run time: the (already
   epoch-derived) key, the 96-bit nonce as three u32 words, and the
   additional authenticated data. The AAD buffer is only read while the
   stage runs, so callers may reuse a scratch slice across records. *)
type aead_params = {
  aead_key : Cipher.Chacha20.key;
  aead_n0 : int;
  aead_n1 : int;
  aead_n2 : int;
  aead_aad : Bytebuf.t;
}

type stage =
  | Checksum of Checksum.Kind.t
  | Xor_pad of { key : int64; pos : int64 }
  | Rc4_stream of { key : string }
  | Aead_seal of aead_params
  | Aead_open of aead_params
  | Byteswap32
  | Deliver_copy

let stage_name = function
  | Checksum k -> "checksum:" ^ Checksum.Kind.to_string k
  | Xor_pad _ -> "xor-pad"
  | Rc4_stream _ -> "rc4"
  | Aead_seal _ -> "aead-seal"
  | Aead_open _ -> "aead-open"
  | Byteswap32 -> "byteswap32"
  | Deliver_copy -> "deliver-copy"

let pp_stage ppf s = Format.pp_print_string ppf (stage_name s)

type plan = stage list

(* The validity of a plan depends only on its shape — which constructors
   appear where — not on keys or stream positions. That is what makes the
   plan cache sound: one validation + lowering per shape. *)
type shape =
  | Sh_check of Checksum.Kind.t
  | Sh_xor
  | Sh_rc4
  | Sh_aead_seal
  | Sh_aead_open
  | Sh_swap
  | Sh_copy
  | Sh_src_xdr  (* marshalling source, prepended by the marshal lookup *)
  | Sh_src_ber
  | Sh_sink_xdr  (* streaming decoder, appended by the unmarshal lookup *)
  | Sh_sink_ber

let shape_of_stage = function
  | Checksum k -> Sh_check k
  | Xor_pad _ -> Sh_xor
  | Rc4_stream _ -> Sh_rc4
  | Aead_seal _ -> Sh_aead_seal
  | Aead_open _ -> Sh_aead_open
  | Byteswap32 -> Sh_swap
  | Deliver_copy -> Sh_copy

let shape_of_plan plan = List.map shape_of_stage plan

let validate_shape shape =
  let rec go i seen_rc4 seen_aead = function
    | [] -> Ok ()
    | Sh_swap :: _ when i > 0 ->
        Error "byteswap32 reads across byte positions; it can only be fused as the first stage"
    | Sh_rc4 :: _ when seen_rc4 ->
        Error "two sequential ciphers cannot share one keystream position"
    | Sh_rc4 :: rest -> go (i + 1) true seen_aead rest
    | (Sh_aead_seal | Sh_aead_open) :: _ when seen_aead ->
        Error "two AEAD records cannot share one plan: each seal/open is one record"
    | (Sh_aead_seal | Sh_aead_open) :: rest -> go (i + 1) seen_rc4 true rest
    | (Sh_check _ | Sh_xor | Sh_swap | Sh_copy) :: rest ->
        go (i + 1) seen_rc4 seen_aead rest
    | (Sh_src_xdr | Sh_src_ber | Sh_sink_xdr | Sh_sink_ber) :: _ ->
        (* The marshal/unmarshal lookups strip their boundary markers
           before validating the stage chain. *)
        Error "marshal source / unmarshal sink markers are plan boundaries"
  in
  go 0 false false shape

let has_swap = List.exists (function Sh_swap -> true | _ -> false)

let validate plan = validate_shape (shape_of_plan plan)

(* RC4 is the only order-coupled stage left: its keystream byte [i]
   requires bytes [0..i-1] first, so a batch containing it degrades to
   serial processing — the paper's §5 chaining pathology, kept as an
   ablation. ChaCha20 AEAD stages are seekable (per-record nonces,
   counter-addressed keystream) and impose no cross-ADU ordering. *)
let needs_in_order plan =
  List.exists
    (function
      | Rc4_stream _ -> true
      | Checksum _ | Xor_pad _ | Aead_seal _ | Aead_open _ | Byteswap32
      | Deliver_copy ->
          false)
    plan

type result = {
  output : Bytebuf.t;
  checksums : (Checksum.Kind.t * int) list;
  tags : (int64 * int64) list;
  passes : int;
  bytes_touched : int;
  compiled : bool;
}

let check_swap_len buf =
  if Bytebuf.length buf mod 4 <> 0 then
    invalid_arg "Ilp: byteswap32 needs a length that is a multiple of 4"

let byteswap32_copy src =
  check_swap_len src;
  let n = Bytebuf.length src in
  let dst = Bytebuf.create n in
  let i = ref 0 in
  while !i < n do
    Bytebuf.unsafe_set dst !i (Bytebuf.unsafe_get src (!i + 3));
    Bytebuf.unsafe_set dst (!i + 1) (Bytebuf.unsafe_get src (!i + 2));
    Bytebuf.unsafe_set dst (!i + 2) (Bytebuf.unsafe_get src (!i + 1));
    Bytebuf.unsafe_set dst (!i + 3) (Bytebuf.unsafe_get src !i);
    i := !i + 4
  done;
  dst

(* Registry accounting. Handles are resolved once at module initialisation —
   a run costs a few atomic bumps and one histogram insert, never a string
   concatenation or a registry lookup. *)
type run_handles = {
  rh_runs : Obs.Counter.t;
  rh_bytes : Obs.Counter.t;
  rh_passes : Obs.Counter.t;
  rh_ns : Obs.Histogram.t;
}

let run_handles mode =
  let pfx = "ilp." ^ mode ^ "." in
  {
    rh_runs = Obs.Registry.counter (pfx ^ "runs");
    rh_bytes = Obs.Registry.counter (pfx ^ "bytes");
    rh_passes = Obs.Registry.counter (pfx ^ "passes");
    rh_ns = Obs.Registry.histogram (pfx ^ "ns");
  }

let handles_layered = run_handles "layered"
let handles_interpreted = run_handles "fused-interpreted"
let handles_compiled = run_handles "fused-compiled"

let record_run h ~ns (r : result) =
  Obs.Counter.incr h.rh_runs;
  Obs.Counter.add h.rh_bytes r.bytes_touched;
  Obs.Counter.add h.rh_passes r.passes;
  Obs.Histogram.record h.rh_ns ns

type stage_handles = { sh_passes : Obs.Counter.t; sh_bytes : Obs.Counter.t }

let stage_handles name =
  {
    sh_passes = Obs.Registry.counter ("ilp.stage." ^ name ^ ".passes");
    sh_bytes = Obs.Registry.counter ("ilp.stage." ^ name ^ ".bytes");
  }

let checksum_stage_handles =
  List.map
    (fun k -> (k, stage_handles ("checksum:" ^ Checksum.Kind.to_string k)))
    Checksum.Kind.all

let h_stage_xor = stage_handles "xor-pad"
let h_stage_rc4 = stage_handles "rc4"
let h_stage_aead_seal = stage_handles "aead-seal"
let h_stage_aead_open = stage_handles "aead-open"
let h_stage_swap = stage_handles "byteswap32"
let h_stage_copy = stage_handles "deliver-copy"

let stage_handle = function
  | Checksum k -> List.assoc k checksum_stage_handles
  | Xor_pad _ -> h_stage_xor
  | Rc4_stream _ -> h_stage_rc4
  | Aead_seal _ -> h_stage_aead_seal
  | Aead_open _ -> h_stage_aead_open
  | Byteswap32 -> h_stage_swap
  | Deliver_copy -> h_stage_copy

let record_stage stage ~bytes =
  let h = stage_handle stage in
  Obs.Counter.incr h.sh_passes;
  Obs.Counter.add h.sh_bytes bytes

let run_layered_impl plan input =
  let n = Bytebuf.length input in
  let passes = ref 0 in
  let touched = ref 0 in
  let checks = ref [] in
  let tags = ref [] in
  let current = ref input in
  let apply stage =
    incr passes;
    let before = !touched in
    (match stage with
    | Checksum kind ->
        touched := !touched + n;
        checks := (kind, Checksum.Kind.digest kind !current) :: !checks
    | Xor_pad { key; pos } ->
        touched := !touched + (2 * n);
        let out = Bytebuf.copy !current in
        Cipher.Pad.transform_at (Cipher.Pad.create ~key) ~pos out;
        current := out
    | Rc4_stream { key } ->
        touched := !touched + (2 * n);
        current := Cipher.Rc4.transform (Cipher.Rc4.create ~key) !current
    | Aead_seal { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
        (* Encrypt pass + MAC pass over the result: the honest layered
           composition the fused stage is measured against. *)
        touched := !touched + (3 * n);
        let out = Bytebuf.copy !current in
        tags :=
          Cipher.Aead.seal_in_place ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
            ~n2:aead_n2 ~aad:aead_aad out
          :: !tags;
        current := out
    | Aead_open { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
        touched := !touched + (3 * n);
        let out = Bytebuf.copy !current in
        tags :=
          Cipher.Aead.open_in_place_tag ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
            ~n2:aead_n2 ~aad:aead_aad out
          :: !tags;
        current := out
    | Byteswap32 ->
        touched := !touched + (2 * n);
        current := byteswap32_copy !current
    | Deliver_copy ->
        touched := !touched + (2 * n);
        current := Bytebuf.copy !current);
    record_stage stage ~bytes:(!touched - before)
  in
  List.iter apply plan;
  (* If no stage rewrote the data, the output is still a fresh buffer so
     layered and fused results have the same ownership semantics. *)
  let output = if !current == input then Bytebuf.copy input else !current in
  {
    output;
    checksums = List.rev !checks;
    tags = List.rev !tags;
    passes = !passes;
    bytes_touched = !touched;
    compiled = false;
  }

(* ------------------------------------------------------------------ *)
(* The per-byte interpreter. Since the compiler below covers every
   valid plan, this survives only as the test oracle for the
   compilation-vs-interpretation ablation (experiments E2/E14).       *)
(* ------------------------------------------------------------------ *)

type fused_state =
  | F_check of Checksum.Kind.feeder ref * Checksum.Kind.t
  | F_pad of Cipher.Pad.t * int64
  | F_rc4 of Cipher.Rc4.t
  | F_aead of Cipher.Aead.t * bool (* true = seal *)
  | F_copy

let interp_byte states input output i src_i =
  (* The one load... *)
  let b = ref (Char.code (Bytebuf.unsafe_get input src_i)) in
  List.iter
    (fun st ->
      match st with
      | F_check (feeder, _) -> feeder := Checksum.Kind.feeder_byte !feeder !b
      | F_pad (pad, pos) ->
          b := !b lxor Cipher.Pad.byte_at pad (Int64.add pos (Int64.of_int i))
      | F_rc4 rc4 -> b := !b lxor Cipher.Rc4.keystream_byte rc4
      | F_aead (a, seal) ->
          b := (if seal then Cipher.Aead.seal_byte else Cipher.Aead.open_byte) a i !b
      | F_copy -> ())
    states;
  (* ...and the one store. *)
  Bytebuf.unsafe_set output i (Char.unsafe_chr !b)

let run_fused_interpreted_impl plan input =
  (match validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ilp.run_fused_interpreted: " ^ msg));
  let n = Bytebuf.length input in
  let swap_first = match plan with Byteswap32 :: _ -> true | _ -> false in
  if swap_first then check_swap_len input;
  let rest = if swap_first then List.tl plan else plan in
  let states =
    List.map
      (function
        | Checksum kind -> F_check (ref (Checksum.Kind.feeder kind), kind)
        | Xor_pad { key; pos } -> F_pad (Cipher.Pad.create ~key, pos)
        | Rc4_stream { key } -> F_rc4 (Cipher.Rc4.create ~key)
        | Aead_seal { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
            F_aead
              ( Cipher.Aead.create ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
                  ~n2:aead_n2 ~aad:aead_aad,
                true )
        | Aead_open { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
            F_aead
              ( Cipher.Aead.create ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
                  ~n2:aead_n2 ~aad:aead_aad,
                false )
        | Deliver_copy -> F_copy
        | Byteswap32 -> assert false)
      rest
  in
  let output = Bytebuf.create n in
  (* With a leading conversion we read the permuted source position
     instead of adding a pass; the branch is hoisted out of the loop. *)
  if swap_first then
    for i = 0 to n - 1 do
      interp_byte states input output i (i - (i mod 4) + (3 - (i mod 4)))
    done
  else
    for i = 0 to n - 1 do
      interp_byte states input output i i
    done;
  let checksums =
    List.filter_map
      (function
        | F_check (feeder, kind) ->
            Some (kind, Checksum.Kind.feeder_finish !feeder)
        | F_pad _ | F_rc4 _ | F_aead _ | F_copy -> None)
      states
  in
  let tags =
    List.filter_map
      (function F_aead (a, _) -> Some (Cipher.Aead.tag a) | _ -> None)
      states
  in
  { output; checksums; tags; passes = 1; bytes_touched = 2 * n; compiled = false }

(* ------------------------------------------------------------------ *)
(* §8's "compilation", generalised. Each stage lowers to two in-place
   operations on the destination: a block op over 64 bytes at a
   64-aligned stream offset, and a tail op over the last [len mod 64]
   bytes, called once. One driver serves every runner: it brings each
   block into the destination (copied, or byte-swapped under a leading
   Byteswap32, when the source is elsewhere) and runs every stage over
   it while it is L1-hot. Dispatch happens once per stage per 64 bytes
   and no word is boxed on the way. A handful of whole-plan shapes
   short-circuit to the hand-fused kernels instead.                    *)
(* ------------------------------------------------------------------ *)

let fold16 s =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go s

let swap16 s = ((s land 0xff) lsl 8) lor ((s lsr 8) land 0xff)

(* Per-run stage state. Built fresh each run from the plan (keys and
   stream positions are run-time parameters, not part of the cached
   shape). *)
type rt =
  | R_inet of { mutable sum : int }
      (* Internet checksum in little-endian lane order: a block adds each
         64-bit load as two 32-bit halves, which folds to the sum of its
         four 16-bit LE lanes; a tail byte adds at its lane's octet.
         One's-complement addition commutes with byte order (RFC 1071
         §2.B), so [rt_finish] swaps the folded sum to network order. *)
  | R_gen of { kind : Checksum.Kind.t; mutable f : Checksum.Kind.feeder }
  | R_crc32 of { mutable crc : Checksum.Crc32.state }
      (* CRC-32 on its own unboxed path: eight sliced word steps per
         block — the framing stage every secure plan runs. *)
  | R_pad of { pad : Cipher.Pad.t; pos : int64 }
  | R_rc4 of Cipher.Rc4.t
  | R_aead of { a : Cipher.Aead.t; seal : bool }
  | R_copy

let rt_of_stage = function
  | Checksum Checksum.Kind.Internet -> R_inet { sum = 0 }
  | Checksum Checksum.Kind.Crc32 -> R_crc32 { crc = Checksum.Crc32.init }
  | Checksum kind -> R_gen { kind; f = Checksum.Kind.feeder kind }
  | Xor_pad { key; pos } -> R_pad { pad = Cipher.Pad.create ~key; pos }
  | Rc4_stream { key } -> R_rc4 (Cipher.Rc4.create ~key)
  | Aead_seal { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
      R_aead
        {
          a =
            Cipher.Aead.create ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
              ~n2:aead_n2 ~aad:aead_aad;
          seal = true;
        }
  | Aead_open { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
      R_aead
        {
          a =
            Cipher.Aead.create ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
              ~n2:aead_n2 ~aad:aead_aad;
          seal = false;
        }
  | Deliver_copy -> R_copy
  | Byteswap32 -> assert false (* the driver performs it on the way in *)

(* The tail op: the last [len] (< 64) bytes at [db.(off..)], stream
   position [i] (64-aligned), a byte at a time. The byte-grain stages
   (the ablation ciphers and the generic checksum feeders) use it for
   whole blocks too. Each stage keeps its state in a local across the
   loop and stores it back once. *)
let rt_tail rt db off i len =
  match rt with
  | R_inet s ->
      let sum = ref s.sum in
      for j = 0 to len - 1 do
        let b = Char.code (Bytes.unsafe_get db (off + j)) in
        sum := !sum + (if j land 1 = 0 then b else b lsl 8)
      done;
      s.sum <- !sum
  | R_gen s ->
      let f = ref s.f in
      for j = 0 to len - 1 do
        let b = Char.code (Bytes.unsafe_get db (off + j)) in
        f := Checksum.Kind.feeder_byte !f b
      done;
      s.f <- !f
  | R_crc32 s ->
      let crc = ref s.crc in
      for j = 0 to len - 1 do
        let b = Char.code (Bytes.unsafe_get db (off + j)) in
        crc := Checksum.Crc32.feed_byte !crc b
      done;
      s.crc <- !crc
  | R_pad { pad; pos } -> Cipher.Pad.xor_at pad ~pos ~i db ~off ~len
  | R_rc4 _ | R_aead _ ->
      for j = 0 to len - 1 do
        let b = Char.code (Bytes.unsafe_get db (off + j)) in
        let b =
          match rt with
          | R_rc4 rc4 -> b lxor Cipher.Rc4.keystream_byte rc4
          | R_aead { a; seal = true } -> Cipher.Aead.seal_byte a (i + j) b
          | R_aead { a; seal = false } -> Cipher.Aead.open_byte a (i + j) b
          | R_inet _ | R_gen _ | R_crc32 _ | R_pad _ | R_copy -> b
        in
        Bytes.unsafe_set db (off + j) (Char.unsafe_chr b)
      done
  | R_copy -> ()

(* The block op: 64 bytes in place at [db.(off..)], stream position [i]
   (64-aligned). The production stages — Internet, CRC-32, AEAD and
   copy — and the pad allocate nothing here. *)
let rt_block rt db off i =
  match rt with
  | R_inet s ->
      let sum = ref s.sum in
      for k = 0 to 7 do
        let w = Bytes.get_int64_le db (off + (8 * k)) in
        sum :=
          !sum
          + Int64.to_int (Int64.logand w 0xFFFFFFFFL)
          + Int64.to_int (Int64.shift_right_logical w 32)
      done;
      (* One overflow check per block: sixteen 32-bit halves add < 2^36,
         so the running sum stays far below the 63-bit bound. *)
      s.sum <- (if !sum > 0x3FFFFFFFFFFF then fold16 !sum else !sum)
  | R_crc32 s -> s.crc <- Checksum.Crc32.feed_block64 s.crc db off
  | R_aead { a; seal } ->
      if seal then Cipher.Aead.seal_block64 a ~pos:i db ~off
      else Cipher.Aead.open_block64 a ~pos:i db ~off
  | R_copy -> ()
  | R_pad { pad; pos } -> Cipher.Pad.xor_at pad ~pos ~i db ~off ~len:64
  | R_gen _ | R_rc4 _ -> rt_tail rt db off i 64

let rt_finish = function
  | R_inet s ->
      Some (Checksum.Kind.Internet, lnot (swap16 (fold16 s.sum)) land 0xffff)
  | R_gen s -> Some (s.kind, Checksum.Kind.feeder_finish s.f)
  | R_crc32 s ->
      Some
        ( Checksum.Kind.Crc32,
          Int32.to_int (Checksum.Crc32.finish s.crc) land 0xFFFFFFFF )
  | R_pad _ | R_rc4 _ | R_aead _ | R_copy -> None

(* The AEAD analogue of [rt_finish]: close the record and read the
   Poly1305 tag. Must run after every payload byte has passed through. *)
let rt_finish_tag = function
  | R_aead { a; _ } -> Some (Cipher.Aead.tag a)
  | R_inet _ | R_gen _ | R_crc32 _ | R_pad _ | R_rc4 _ | R_copy -> None

(* The block driver: one run's stage chain over one destination, with a
   watermark below which the destination is final. Every runner moves
   the watermark with [advance] — run_fused and run_view to the end in
   one call, run_unmarshal on the decoder's demand, run_marshal from the
   sink's block hook — so whole blocks take the block ops and the last
   [n mod 64] bytes take the tail ops exactly once. *)
type drive = {
  stages : rt array;
  copy_in : bool;  (* the source is not the destination, or swaps *)
  swap : bool;
  sb : Bytes.t;
  sbase : int;
  db : Bytes.t;
  dbase : int;
  n : int;
  mutable wm : int;
}

let drive ?(swap = false) plan input dst =
  let sb, sbase, n = Bytebuf.backing input in
  let db, dbase, _ = Bytebuf.backing dst in
  {
    stages = Array.of_list (List.map rt_of_stage plan);
    copy_in = swap || not (sb == db && sbase = dbase);
    swap;
    sb;
    sbase;
    db;
    dbase;
    n;
    wm = 0;
  }

(* Bring [len] (64, or the tail) bytes at stream offset [i] into the
   destination. A leading Byteswap32 reverses each 4-byte group on the
   way — group loads before stores, so it also works in place. *)
let bring_in d i len =
  let s = d.sbase + i and t = d.dbase + i in
  if d.swap then begin
    let k = ref 0 in
    while !k < len do
      Bytes.set_int32_le d.db (t + !k) (Bytes.get_int32_be d.sb (s + !k));
      k := !k + 4
    done
  end
  else if len = 64 then
    for k = 0 to 7 do
      Bytes.set_int64_le d.db (t + (8 * k))
        (Bytes.get_int64_le d.sb (s + (8 * k)))
    done
  else Bytes.blit d.sb s d.db t len

let advance d upto =
  let upto = if upto > d.n then d.n else upto in
  while d.wm < upto do
    let i = d.wm in
    let len = if d.n - i >= 64 then 64 else d.n - i in
    if d.copy_in then bring_in d i len;
    let off = d.dbase + i in
    let st = d.stages in
    if len = 64 then
      for s = 0 to Array.length st - 1 do
        rt_block (Array.unsafe_get st s) d.db off i
      done
    else
      for s = 0 to Array.length st - 1 do
        rt_tail (Array.unsafe_get st s) d.db off i len
      done;
    d.wm <- i + len
  done

let finish d =
  let stages = Array.to_list d.stages in
  (List.filter_map rt_finish stages, List.filter_map rt_finish_tag stages)

let run_general ~swap_first plan input dst =
  if swap_first then check_swap_len input;
  let stages = if swap_first then List.tl plan else plan in
  let d = drive ~swap:swap_first stages input dst in
  advance d d.n;
  finish d

(* A lowering is what the cache stores per shape: either a dispatch to a
   whole-plan hand-fused kernel (no per-block dispatch at all) or the
   general block driver. *)
type lowering =
  | L_copy
  | L_copy_checksum (* Internet checksum + copy, either order *)
  | L_pad_checksum_copy
  | L_checksum_pad_copy
  | L_general of { swap_first : bool }
  | L_marshal (* sink-driven stage chain; see [run_marshal]. *)
  | L_unmarshal (* demand-driven stage chain; see [run_unmarshal]. *)

(* Split a sink-terminated shape into (stage chain, sink marker). *)
let split_sink shape =
  let rec go acc = function
    | [ ((Sh_sink_xdr | Sh_sink_ber) as s) ] -> Some (List.rev acc, s)
    | x :: tl -> go (x :: acc) tl
    | [] -> None
  in
  go [] shape

let lower shape =
  match shape with
  | (Sh_src_xdr | Sh_src_ber) :: rest ->
      if has_swap rest then
        Error
          "byteswap32 cannot follow a marshalling source: the encoder already emits wire byte order"
      else (
        match validate_shape rest with Error _ as e -> e | Ok () -> Ok L_marshal)
  | _ when split_sink shape <> None -> (
      let rest, _ = Option.get (split_sink shape) in
      if has_swap rest then
        Error
          "byteswap32 cannot precede a streaming decoder: the decoder consumes wire byte order"
      else
        match validate_shape rest with
        | Error _ as e -> e
        | Ok () -> Ok L_unmarshal)
  | _ -> (
      match validate_shape shape with
      | Error _ as e -> e
      | Ok () ->
          Ok
            (match shape with
            | [] | [ Sh_copy ] -> L_copy
            | [ Sh_check Checksum.Kind.Internet ]
            | [ Sh_check Checksum.Kind.Internet; Sh_copy ]
            | [ Sh_copy; Sh_check Checksum.Kind.Internet ] ->
                L_copy_checksum
            | [ Sh_xor; Sh_check Checksum.Kind.Internet; Sh_copy ] ->
                L_pad_checksum_copy
            | [ Sh_check Checksum.Kind.Internet; Sh_xor; Sh_copy ] ->
                L_checksum_pad_copy
            | Sh_swap :: _ -> L_general { swap_first = true }
            | _ -> L_general { swap_first = false }))

(* The plan cache. Shared across domains (Ilp_par workers compile through
   it too), so lookups take a mutex — one brief critical section per run,
   against a table whose population is bounded by the number of distinct
   plan shapes the program ever uses. *)
let cache : (shape list, (lowering, string) Stdlib.result) Hashtbl.t =
  Hashtbl.create 16

let cache_mu = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0
let c_cache_hits = Obs.Registry.counter "ilp.plan_cache.hits"
let c_cache_misses = Obs.Registry.counter "ilp.plan_cache.misses"

type cache_stats = { hits : int; misses : int; entries : int }

let with_cache f =
  Mutex.lock cache_mu;
  match f () with
  | v ->
      Mutex.unlock cache_mu;
      v
  | exception e ->
      Mutex.unlock cache_mu;
      raise e

let plan_cache_stats () =
  with_cache (fun () ->
      { hits = !cache_hits; misses = !cache_misses; entries = Hashtbl.length cache })

let compile_lookup plan =
  let shape = shape_of_plan plan in
  with_cache (fun () ->
      match Hashtbl.find_opt cache shape with
      | Some r ->
          incr cache_hits;
          Obs.Counter.incr c_cache_hits;
          r
      | None ->
          incr cache_misses;
          Obs.Counter.incr c_cache_misses;
          let r = lower shape in
          Hashtbl.add cache shape r;
          r)

let dst_for dst_opt n =
  match dst_opt with
  | None -> Bytebuf.create n
  | Some d ->
      if Bytebuf.length d <> n then
        invalid_arg "Ilp.run_fused: dst length must equal input length";
      d

let exec lowering plan input dst_opt =
  let n = Bytebuf.length input in
  let dst = dst_for dst_opt n in
  let mk ?(tags = []) checksums =
    {
      output = dst;
      checksums;
      tags;
      passes = 1;
      bytes_touched = 2 * n;
      compiled = true;
    }
  in
  match (lowering, plan) with
  | L_copy, _ ->
      Kernels.copy ~src:input ~dst;
      mk []
  | L_copy_checksum, _ ->
      let c = Kernels.copy_checksum ~src:input ~dst in
      mk [ (Checksum.Kind.Internet, c) ]
  | L_pad_checksum_copy, Xor_pad { key; pos } :: _ ->
      let c = Kernels.copy_checksum_xor ~src:input ~dst ~key ~stream_pos:pos in
      mk [ (Checksum.Kind.Internet, c) ]
  | L_checksum_pad_copy, _ :: Xor_pad { key; pos } :: _ ->
      let c = Kernels.checksum_xor_copy ~src:input ~dst ~key ~stream_pos:pos in
      mk [ (Checksum.Kind.Internet, c) ]
  | L_general { swap_first }, _ ->
      let checksums, tags = run_general ~swap_first plan input dst in
      mk ~tags checksums
  | (L_pad_checksum_copy | L_checksum_pad_copy | L_marshal | L_unmarshal), _ ->
      (* The lowering came from this plan's shape; marshal/unmarshal
         lowerings are only ever produced for marked shapes, which never
         reach [exec]. *)
      assert false

let run_layered plan input =
  let r, ns = Obs.Clock.time_ns (fun () -> run_layered_impl plan input) in
  record_run handles_layered ~ns r;
  r

let run_fused_interpreted plan input =
  let r, ns =
    Obs.Clock.time_ns (fun () -> run_fused_interpreted_impl plan input)
  in
  record_run handles_interpreted ~ns r;
  r

let run_fused ?dst plan input =
  let r, ns =
    Obs.Clock.time_ns (fun () ->
        match compile_lookup plan with
        | Error msg -> invalid_arg ("Ilp.run_fused: " ^ msg)
        | Ok lowering -> exec lowering plan input dst)
  in
  record_run handles_compiled ~ns r;
  r

(* ------------------------------------------------------------------ *)
(* Fused presentation conversion: the plan's first "stage" is the
   marshaller itself (send side) or its last is the unmarshaller
   (receive side). On send, the encoder stores through a Wire.Sink whose
   block hook is the block driver — encode, checksum, encrypt and the
   delivering store happen in one pass, over blocks still L1-resident.
   On receive, the decoder pulls bytes through a demand hook that
   verifies/decrypts just ahead of the parse. This is the paper's §4
   "presentation conversion in the ILP loop", i.e. the step from its
   28 Mb/s convert-only to the 24 Mb/s convert+checksum figure.        *)
(* ------------------------------------------------------------------ *)

type source =
  | Marshal_xdr of Wire.Xdr.schema * Wire.Value.t
  | Marshal_prog of Wire.Schema.prog * Wire.Value.t
  | Marshal_xdr_interp of Wire.Xdr.schema * Wire.Value.t
  | Marshal_ber of Wire.Value.t

type sink = Unmarshal_xdr of Wire.Xdr.schema | Unmarshal_ber

(* [Marshal_xdr] resolves through the schema-program cache, so sizing is
   the compiled precomputation (O(1) for static schemas) rather than an
   interpretive walk. BER headers are value-dependent (TLV lengths), so
   BER keeps the interpretive sizer. *)
let marshal_size = function
  | Marshal_xdr (s, v) -> Wire.Schema.size (Wire.Schema.prog_of_xdr s) v
  | Marshal_prog (p, v) -> Wire.Schema.size p v
  | Marshal_xdr_interp (s, v) -> Wire.Xdr.sizeof s v
  | Marshal_ber v -> Wire.Ber.sizeof v

type unmarshal_result = {
  value : Wire.Value.t;
  consumed : int;
  checksums : (Checksum.Kind.t * int) list;
  tags : (int64 * int64) list;
}

(* Marshal/unmarshal plans go through the same shape cache, under keys
   extended with a source/sink marker, but their hit/miss traffic is
   reported separately. *)
let c_mcache_hits = Obs.Registry.counter "ilp.marshal.plan_cache.hits"
let c_mcache_misses = Obs.Registry.counter "ilp.marshal.plan_cache.misses"
let c_bytes_encoded = Obs.Registry.counter "ilp.marshal.bytes_encoded"
let c_bytes_decoded = Obs.Registry.counter "ilp.marshal.bytes_decoded"
let handles_marshal = run_handles "marshal"
let handles_unmarshal = run_handles "unmarshal"

let presentation_lookup shape =
  with_cache (fun () ->
      match Hashtbl.find_opt cache shape with
      | Some r ->
          incr cache_hits;
          Obs.Counter.incr c_mcache_hits;
          r
      | None ->
          incr cache_misses;
          Obs.Counter.incr c_mcache_misses;
          let r = lower shape in
          Hashtbl.add cache shape r;
          r)

let shape_of_source = function
  | Marshal_xdr _ | Marshal_prog _ | Marshal_xdr_interp _ -> Sh_src_xdr
  | Marshal_ber _ -> Sh_src_ber

let shape_of_sink = function
  | Unmarshal_xdr _ -> Sh_sink_xdr
  | Unmarshal_ber -> Sh_sink_ber

let run_marshal_impl source plan dst_opt =
  (match presentation_lookup (shape_of_source source :: shape_of_plan plan) with
  | Error msg -> invalid_arg ("Ilp.run_marshal: " ^ msg)
  | Ok _ -> ());
  (* A caller-provided [dst] pins the encoded length, so the sizing
     walk is skipped entirely: the sink's bounds check catches an
     undersized dst mid-encode and the final [pos = n] check catches an
     oversized one, both with the same Invalid_argument the eager check
     would raise. Only the allocating path still needs [marshal_size]. *)
  let n =
    match dst_opt with
    | Some d -> Bytebuf.length d
    | None -> marshal_size source
  in
  let dst = dst_for dst_opt n in
  (* The encoder stores straight into [dst]; the sink reports each
     completed 64-byte block, and the driver runs the stage chain over
     them in place once 1 KB is pending — still L1-resident, but the
     stage code runs back to back instead of alternating with the
     encoder every 64 bytes, which cost 10-25% on the sealed E20 record.
     An encoder that overruns the slice raises in the sink before
     touching the bytes beyond it (pooled buffers share backing
     storage). *)
  let d = drive plan dst dst in
  let block off = if off + 64 - d.wm >= 1024 then advance d (off + 64) in
  let sink = Wire.Sink.create ~block dst in
  (match source with
  | Marshal_xdr (s, v) -> Wire.Schema.emit (Wire.Schema.prog_of_xdr s) sink v
  | Marshal_prog (p, v) -> Wire.Schema.emit p sink v
  | Marshal_xdr_interp (s, v) -> Wire.Xdr.emit s v sink
  | Marshal_ber v -> Wire.Ber.emit v sink);
  if Wire.Sink.pos sink <> n then
    invalid_arg "Ilp.run_marshal: encoder emitted fewer bytes than sizeof";
  advance d n;
  let checksums, tags = finish d in
  ({
     output = dst;
     checksums;
     tags;
     passes = 1;
     bytes_touched = 2 * n;
     compiled = true;
   }
    : result)

let run_marshal ?dst source plan =
  let r, ns = Obs.Clock.time_ns (fun () -> run_marshal_impl source plan dst) in
  record_run handles_marshal ~ns r;
  Obs.Counter.add c_bytes_encoded (Bytebuf.length r.output);
  r

let run_unmarshal_impl plan sink input dst_opt =
  (match presentation_lookup (shape_of_plan plan @ [ shape_of_sink sink ]) with
  | Error msg -> invalid_arg ("Ilp.run_unmarshal: " ^ msg)
  | Ok _ -> ());
  let n = Bytebuf.length input in
  let dst = dst_for dst_opt n in
  (* Watermark transform: bytes [0, wm) of [dst] are final. The decoder's
     demand hook advances it lazily, a whole block at a time, just ahead
     of the parse; [dst == input] transforms in place over the borrowed
     view. *)
  let d = drive plan input dst in
  let r = Cursor.demand_reader dst (advance d) in
  let value =
    match sink with
    | Unmarshal_xdr s -> Wire.Xdr.decode_reader s r
    | Unmarshal_ber -> Wire.Ber.decode_reader r
  in
  let consumed = Cursor.pos r in
  (* Integrity covers the whole unit, not just the decoded prefix: run
     the transform to the end before finishing the checksum stages. *)
  advance d n;
  let checksums, tags = finish d in
  { value; consumed; checksums; tags }

let run_unmarshal ?dst plan sink input =
  let r, ns =
    Obs.Clock.time_ns (fun () -> run_unmarshal_impl plan sink input dst)
  in
  Obs.Counter.incr handles_unmarshal.rh_runs;
  Obs.Counter.add handles_unmarshal.rh_bytes (2 * Bytebuf.length input);
  Obs.Counter.add handles_unmarshal.rh_passes 1;
  Obs.Histogram.record handles_unmarshal.rh_ns ns;
  Obs.Counter.add c_bytes_decoded r.consumed;
  r

(* Lazy receive: run the manipulation plan over the whole unit (the
   checksum must cover all of it anyway), then VALIDATE instead of
   decoding — the parse proper happens later, field by field, only for
   the fields the application touches. Total on hostile input. *)

type view_result = {
  view : (Wire.View.t * int, string) Stdlib.result;
  view_checksums : (Checksum.Kind.t * int) list;
  view_tags : (int64 * int64) list;
}

let handles_view = run_handles "view"

let run_view_impl plan prog input dst_opt =
  (match presentation_lookup (shape_of_plan plan @ [ Sh_sink_xdr ]) with
  | Error msg -> invalid_arg ("Ilp.run_view: " ^ msg)
  | Ok _ -> ());
  let n = Bytebuf.length input in
  let dst = dst_for dst_opt n in
  (* In place with nothing to transform or digest, the pass would only
     walk the blocks without touching them: skip it. Otherwise sink
     plans exclude Byteswap32 ([lower] rejects it before a decoder), so
     the driver only copies on the way in. *)
  let view_checksums, view_tags =
    let copy_only = function Deliver_copy -> true | _ -> false in
    if dst == input && List.for_all copy_only plan then ([], [])
    else run_general ~swap_first:false plan input dst
  in
  { view = Wire.View.make prog dst ~pos:0; view_checksums; view_tags }

let run_view ?dst plan prog input =
  let r, ns = Obs.Clock.time_ns (fun () -> run_view_impl plan prog input dst) in
  Obs.Counter.incr handles_view.rh_runs;
  Obs.Counter.add handles_view.rh_bytes (2 * Bytebuf.length input);
  Obs.Counter.add handles_view.rh_passes 1;
  Obs.Histogram.record handles_view.rh_ns ns;
  (match r.view with
  | Ok (_, consumed) -> Obs.Counter.add c_bytes_decoded consumed
  | Error _ -> ());
  r
