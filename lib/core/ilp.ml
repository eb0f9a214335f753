open Bufkit

(* Everything an AEAD record stage needs at run time: the (already
   epoch-derived) key, the 96-bit nonce as three u32 words, and the
   additional authenticated data. A compiled stage reads them at the
   start of every run, so a record context can keep one params record
   and rewrite it in place per record; the AAD buffer is only read while
   the stage runs. *)
type aead_params = {
  mutable aead_key : Cipher.Chacha20.key;
  mutable aead_n0 : int;
  mutable aead_n1 : int;
  mutable aead_n2 : int;
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

(* Validity depends only on which constructors appear where, never on
   keys or stream positions. *)
let validate plan =
  let rec go i seen_rc4 seen_aead = function
    | [] -> Ok ()
    | Byteswap32 :: _ when i > 0 ->
        Error "byteswap32 reads across byte positions; it can only be fused as the first stage"
    | Rc4_stream _ :: _ when seen_rc4 ->
        Error "two sequential ciphers cannot share one keystream position"
    | Rc4_stream _ :: rest -> go (i + 1) true seen_aead rest
    | (Aead_seal _ | Aead_open _) :: _ when seen_aead ->
        Error "two AEAD records cannot share one plan: each seal/open is one record"
    | (Aead_seal _ | Aead_open _) :: rest -> go (i + 1) seen_rc4 true rest
    | (Checksum _ | Xor_pad _ | Byteswap32 | Deliver_copy) :: rest ->
        go (i + 1) seen_rc4 seen_aead rest
  in
  go 0 false false plan

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

let record_run h ~ns ~passes ~bytes =
  Obs.Counter.incr h.rh_runs;
  Obs.Counter.add h.rh_bytes bytes;
  Obs.Counter.add h.rh_passes passes;
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

(* Stage state. An instance builds it once from the plan and resets it
   in place before each run after its first. *)
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
  | R_rc4 of { key : string; mutable rc4 : Cipher.Rc4.t }
  | R_aead of { p : aead_params; seal : bool; a : Cipher.Aead.t }
  | R_copy

let rt_of_stage = function
  | Checksum Checksum.Kind.Internet -> R_inet { sum = 0 }
  | Checksum Checksum.Kind.Crc32 -> R_crc32 { crc = Checksum.Crc32.init }
  | Checksum kind -> R_gen { kind; f = Checksum.Kind.feeder kind }
  | Xor_pad { key; pos } -> R_pad { pad = Cipher.Pad.create ~key; pos }
  | Rc4_stream { key } -> R_rc4 { key; rc4 = Cipher.Rc4.create ~key }
  | Aead_seal p -> R_aead { p; seal = true; a = Cipher.Aead.make () }
  | Aead_open p -> R_aead { p; seal = false; a = Cipher.Aead.make () }
  | Deliver_copy -> R_copy
  | Byteswap32 -> assert false (* the driver performs it on the way in *)

(* Ready for a run. The production stages reset without allocating, the
   AEAD stage onto whatever record its params name now (it is built
   unkeyed, so every run starts here); the RC4 ablation starts a new
   keystream. *)
let rt_reset = function
  | R_inet s -> s.sum <- 0
  | R_gen s -> s.f <- Checksum.Kind.feeder s.kind
  | R_crc32 s -> s.crc <- Checksum.Crc32.init
  | R_rc4 s -> s.rc4 <- Cipher.Rc4.create ~key:s.key
  | R_aead { p; a; _ } ->
      Cipher.Aead.reset a ~key:p.aead_key ~n0:p.aead_n0 ~n1:p.aead_n1
        ~n2:p.aead_n2 ~aad:p.aead_aad
  | R_pad _ | R_copy -> ()

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
          | R_rc4 s -> b lxor Cipher.Rc4.keystream_byte s.rc4
          | R_aead { a; seal = true; _ } -> Cipher.Aead.seal_byte a (i + j) b
          | R_aead { a; seal = false; _ } -> Cipher.Aead.open_byte a (i + j) b
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
  | R_aead { a; seal; _ } ->
      if seal then Cipher.Aead.seal_block64 a ~pos:i db ~off
      else Cipher.Aead.open_block64 a ~pos:i db ~off
  | R_copy -> ()
  | R_pad { pad; pos } -> Cipher.Pad.xor_at pad ~pos ~i db ~off ~len:64
  | R_gen _ | R_rc4 _ -> rt_tail rt db off i 64

let inet_finish sum = lnot (swap16 (fold16 sum)) land 0xffff

(* The block driver: a stage chain over one destination, with a
   watermark below which the destination is final. Every runner moves
   the watermark with [advance] — [exec] to the end in one call,
   run_unmarshal on the decoder's demand, [exec_marshal] from the sink's
   block hook — so whole blocks take the block ops and the last
   [n mod 64] bytes take the tail ops exactly once. [start] points it at
   a run's source and destination. *)
type drive = {
  stages : rt array;
  swap : bool;
  mutable copy_in : bool;  (* the source is not the destination, or swaps *)
  mutable sb : Bytes.t;
  mutable sbase : int;
  mutable db : Bytes.t;
  mutable dbase : int;
  mutable n : int;
  mutable wm : int;
}

let make_drive plan =
  let swap, stages =
    match plan with Byteswap32 :: rest -> (true, rest) | _ -> (false, plan)
  in
  {
    stages = Array.of_list (List.map rt_of_stage stages);
    swap;
    copy_in = false;
    sb = Bytes.empty;
    sbase = 0;
    db = Bytes.empty;
    dbase = 0;
    n = 0;
    wm = 0;
  }

let start d input dst =
  let sb = Bytebuf.data input and sbase = Bytebuf.offset input in
  let db = Bytebuf.data dst and dbase = Bytebuf.offset dst in
  d.copy_in <- d.swap || not (sb == db && sbase = dbase);
  d.sb <- sb;
  d.sbase <- sbase;
  d.db <- db;
  d.dbase <- dbase;
  d.n <- Bytebuf.length input;
  d.wm <- 0

let reset_stages d =
  for s = 0 to Array.length d.stages - 1 do
    rt_reset (Array.unsafe_get d.stages s)
  done

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

(* How an instance runs its plan: a few whole-plan shapes dispatch to a
   hand-fused kernel (no per-block dispatch at all), every other plan
   to the block driver. *)
type lowering =
  | L_copy
  | L_copy_checksum (* Internet checksum + copy, either order *)
  | L_pad_checksum_copy of { key : int64; pos : int64 }
  | L_checksum_pad_copy of { key : int64; pos : int64 }
  | L_general

let lowering_of = function
  | [] | [ Deliver_copy ] -> L_copy
  | [ Checksum Checksum.Kind.Internet ]
  | [ Checksum Checksum.Kind.Internet; Deliver_copy ]
  | [ Deliver_copy; Checksum Checksum.Kind.Internet ] ->
      L_copy_checksum
  | [ Xor_pad { key; pos }; Checksum Checksum.Kind.Internet; Deliver_copy ] ->
      L_pad_checksum_copy { key; pos }
  | [ Checksum Checksum.Kind.Internet; Xor_pad { key; pos }; Deliver_copy ] ->
      L_checksum_pad_copy { key; pos }
  | _ -> L_general

let dst_for dst_opt n =
  match dst_opt with
  | None -> Bytebuf.create n
  | Some d ->
      if Bytebuf.length d <> n then
        invalid_arg "Ilp.run_fused: dst length must equal input length";
      d

(* ---- Compiled instances ----

   A plan compiled once: its lowering, and for the block driver its
   stage state, kept across runs and reset in place at the start of
   each — the AEAD stage onto the record its params name at that moment.
   Checksums land in fixed int slots in plan order, the AEAD tag in a
   16-byte slot. A run reads no clock, takes no lock and builds no list
   or result record. A marshal instance also keeps the sink its encoder
   stores through, with the driver mounted as the sink's block hook. *)

type instance = {
  lowering : lowering;
  d : drive;  (* the block driver's, over the plan after a leading swap *)
  kinds : Checksum.Kind.t array;  (* checksum stages, in plan order *)
  sums : int array;  (* their values after the last run *)
  aead : bool;  (* the plan has an AEAD stage *)
  tag : Bytes.t;  (* its tag after the last run, 16 bytes LE *)
  sink : Wire.Sink.t option;  (* a marshal instance's encoder target *)
}

(* What runs beside the stages: nothing, an encoder storing through the
   instance's sink, or a decoder reading behind the driver. *)
type codec = No_codec | Encoder | Decoder

(* Every instance is built here. A plan beside a codec may not
   byte-swap, since the codecs emit and consume wire byte order, and
   always runs under the block driver, whose watermark the codec moves. *)
let build what codec plan =
  if codec <> No_codec && List.exists (function Byteswap32 -> true | _ -> false) plan
  then
    invalid_arg
      (what
     ^ ": byteswap32 cannot run beside a codec: the codecs work in wire byte order");
  (match validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg (what ^ ": " ^ msg));
  let lowering = if codec = No_codec then lowering_of plan else L_general in
  let d = make_drive (match lowering with L_general -> plan | _ -> []) in
  let sink =
    if codec <> Encoder then None
    else
      (* The stages run over blocks the encoder has completed once 1 KB
         is pending — still L1-resident, but the stage code runs back to
         back instead of alternating with the encoder every 64 bytes,
         which cost 10-25% on the sealed E20 record. *)
      Some
        (Wire.Sink.create Bytebuf.empty ~block:(fun off ->
             if off + 64 - d.wm >= 1024 then advance d (off + 64)))
  in
  let kinds =
    Array.of_list (List.filter_map (function Checksum k -> Some k | _ -> None) plan)
  in
  let aead = List.exists (function Aead_seal _ | Aead_open _ -> true | _ -> false) plan in
  {
    lowering;
    d;
    kinds;
    sums = Array.make (Array.length kinds) 0;
    aead;
    tag = (if aead then Bytes.make 16 '\000' else Bytes.empty);
    sink;
  }

let compile plan = build "Ilp.compile" No_codec plan

(* Read each stage's result into the instance's slots. *)
let settle_slots inst =
  let st = inst.d.stages in
  let j = ref 0 in
  for s = 0 to Array.length st - 1 do
    match Array.unsafe_get st s with
    | R_inet r ->
        inst.sums.(!j) <- inet_finish r.sum;
        incr j
    | R_gen r ->
        inst.sums.(!j) <- Checksum.Kind.feeder_finish r.f;
        incr j
    | R_crc32 r ->
        inst.sums.(!j) <- Checksum.Crc32.finish_int r.crc;
        incr j
    | R_aead r -> Cipher.Aead.tag_into r.a inst.tag 0
    | R_pad _ | R_rc4 _ | R_copy -> ()
  done

(* Reset the stages and point the driver at this run's bytes. *)
let begin_run inst input dst =
  reset_stages inst.d;
  start inst.d input dst

(* The hand-fused kernels take exactly the input's length. *)
let fit dst n = if Bytebuf.length dst = n then dst else Bytebuf.take dst n

let exec inst ~dst input =
  let n = Bytebuf.length input in
  if Bytebuf.length dst < n then invalid_arg "Ilp.exec: dst shorter than input";
  match inst.lowering with
  | L_copy -> Kernels.copy ~src:input ~dst:(fit dst n)
  | L_copy_checksum ->
      inst.sums.(0) <- Kernels.copy_checksum ~src:input ~dst:(fit dst n)
  | L_pad_checksum_copy { key; pos } ->
      inst.sums.(0) <-
        Kernels.copy_checksum_xor ~src:input ~dst:(fit dst n) ~key
          ~stream_pos:pos
  | L_checksum_pad_copy { key; pos } ->
      inst.sums.(0) <-
        Kernels.checksum_xor_copy ~src:input ~dst:(fit dst n) ~key
          ~stream_pos:pos
  | L_general ->
      if inst.d.swap then check_swap_len input;
      begin_run inst input dst;
      advance inst.d n;
      settle_slots inst

let checksum inst i = inst.sums.(i)
let last_checksum inst = inst.sums.(Array.length inst.sums - 1)

let checksums inst =
  List.init (Array.length inst.kinds) (fun i -> (inst.kinds.(i), inst.sums.(i)))

let tags inst =
  if inst.aead then [ (Bytes.get_int64_le inst.tag 0, Bytes.get_int64_le inst.tag 8) ]
  else []

let write_tag inst dst ~pos =
  if not inst.aead then invalid_arg "Ilp.write_tag: the plan has no AEAD stage";
  if pos < 0 || pos + 16 > Bytebuf.length dst then
    invalid_arg "Ilp.write_tag: no room for the tag";
  Bytes.blit inst.tag 0 (Bytebuf.data dst) (Bytebuf.offset dst + pos) 16

let run_layered plan input =
  let t0 = Obs.Clock.now_ns () in
  let r = run_layered_impl plan input in
  record_run handles_layered ~ns:(Obs.Clock.now_ns () -. t0) ~passes:r.passes
    ~bytes:r.bytes_touched;
  r

let run_fused_interpreted plan input =
  let t0 = Obs.Clock.now_ns () in
  let r = run_fused_interpreted_impl plan input in
  record_run handles_interpreted ~ns:(Obs.Clock.now_ns () -. t0)
    ~passes:r.passes ~bytes:r.bytes_touched;
  r

let run_fused ?dst plan input =
  let t0 = Obs.Clock.now_ns () in
  let inst = build "Ilp.run_fused" No_codec plan in
  let n = Bytebuf.length input in
  let dst = dst_for dst n in
  exec inst ~dst input;
  record_run handles_compiled ~ns:(Obs.Clock.now_ns () -. t0) ~passes:1
    ~bytes:(2 * n);
  {
    output = dst;
    checksums = checksums inst;
    tags = tags inst;
    passes = 1;
    bytes_touched = 2 * n;
    compiled = true;
  }

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
  | Marshal_prog of Wire.Schema.prog * Wire.Value.t
  | Marshal_xdr_interp of Wire.Xdr.schema * Wire.Value.t
  | Marshal_ber of Wire.Value.t

type sink = Unmarshal_xdr of Wire.Xdr.schema | Unmarshal_ber

(* A compiled program sizes by its precomputation (O(1) for static
   schemas) rather than an interpretive walk. BER headers are
   value-dependent (TLV lengths), so BER keeps the interpretive sizer. *)
let marshal_size = function
  | Marshal_prog (p, v) -> Wire.Schema.size p v
  | Marshal_xdr_interp (s, v) -> Wire.Xdr.sizeof s v
  | Marshal_ber v -> Wire.Ber.sizeof v

type unmarshal_result = {
  value : Wire.Value.t;
  consumed : int;
  checksums : (Checksum.Kind.t * int) list;
  tags : (int64 * int64) list;
}

let c_bytes_encoded = Obs.Registry.counter "ilp.marshal.bytes_encoded"
let c_bytes_decoded = Obs.Registry.counter "ilp.marshal.bytes_decoded"
let handles_marshal = run_handles "marshal"
let handles_unmarshal = run_handles "unmarshal"

let compile_marshal plan = build "Ilp.compile_marshal" Encoder plan

(* The encoder stores straight into [dst] through the instance's sink,
   whose block hook runs the stage chain over completed blocks in place.
   An encoder that overruns the slice raises in the sink before touching
   the bytes beyond it (pooled buffers share backing storage). *)
let exec_marshal inst ~dst source =
  match inst.sink with
  | None -> invalid_arg "Ilp.exec_marshal: not a marshal instance"
  | Some sink ->
      let n = Bytebuf.length dst in
      begin_run inst dst dst;
      Wire.Sink.reset sink dst;
      (match source with
      | Marshal_prog (p, v) -> Wire.Schema.emit p sink v
      | Marshal_xdr_interp (s, v) -> Wire.Xdr.emit s v sink
      | Marshal_ber v -> Wire.Ber.emit v sink);
      if Wire.Sink.pos sink <> n then
        invalid_arg "Ilp.run_marshal: encoder emitted fewer bytes than sizeof";
      advance inst.d n;
      settle_slots inst

let run_marshal ?dst source plan =
  let t0 = Obs.Clock.now_ns () in
  let inst = build "Ilp.run_marshal" Encoder plan in
  (* A caller-provided [dst] pins the encoded length, so the sizing walk
     is skipped: the sink's bounds check catches an undersized dst
     mid-encode and the final length check an oversized one. *)
  let dst =
    match dst with Some d -> d | None -> Bytebuf.create (marshal_size source)
  in
  exec_marshal inst ~dst source;
  let n = Bytebuf.length dst in
  record_run handles_marshal ~ns:(Obs.Clock.now_ns () -. t0) ~passes:1
    ~bytes:(2 * n);
  Obs.Counter.add c_bytes_encoded n;
  {
    output = dst;
    checksums = checksums inst;
    tags = tags inst;
    passes = 1;
    bytes_touched = 2 * n;
    compiled = true;
  }

let run_unmarshal ?dst plan sink input =
  let t0 = Obs.Clock.now_ns () in
  let inst = build "Ilp.run_unmarshal" Decoder plan in
  let n = Bytebuf.length input in
  let dst = dst_for dst n in
  (* Watermark transform: bytes [0, wm) of [dst] are final. The decoder's
     demand hook advances it lazily, a whole block at a time, just ahead
     of the parse; [dst == input] transforms in place over the borrowed
     view. *)
  let d = inst.d in
  begin_run inst input dst;
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
  settle_slots inst;
  record_run handles_unmarshal ~ns:(Obs.Clock.now_ns () -. t0) ~passes:1
    ~bytes:(2 * n);
  Obs.Counter.add c_bytes_decoded consumed;
  { value; consumed; checksums = checksums inst; tags = tags inst }

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

(* In place, a plan of copies alone (always valid) has nothing to run:
   the empty plan — a view of bytes already opened — builds nothing
   before the view. *)
let run_view ?dst plan prog input =
  let t0 = Obs.Clock.now_ns () in
  let n = Bytebuf.length input in
  let dst = dst_for dst n in
  let view_checksums, view_tags =
    if dst == input && List.for_all (function Deliver_copy -> true | _ -> false) plan
    then ([], [])
    else begin
      let inst = build "Ilp.run_view" Decoder plan in
      exec inst ~dst input;
      (checksums inst, tags inst)
    end
  in
  let view = Wire.View.make prog dst ~pos:0 in
  record_run handles_view ~ns:(Obs.Clock.now_ns () -. t0) ~passes:1
    ~bytes:(2 * n);
  (match view with
  | Ok (_, consumed) -> Obs.Counter.add c_bytes_decoded consumed
  | Error _ -> ());
  { view; view_checksums; view_tags }
