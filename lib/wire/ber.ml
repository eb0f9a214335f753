open Bufkit

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let tag_boolean = 0x01
let tag_integer = 0x02
let tag_octets = 0x04
let tag_null = 0x05
let tag_utf8 = 0x0C
let tag_sequence = 0x30

(* Minimal two's-complement length of an OCaml int (1..8 octets). The
   search is a top-level function of [v] and [k], not a local closure
   over [v]: sizing an INTEGER allocates nothing. *)
let rec int_len_from v k =
  if k >= 8 then 8
  else
    let bits = (8 * k) - 1 in
    if v >= -(1 lsl bits) && v < 1 lsl bits then k else int_len_from v (k + 1)

let int_len v = int_len_from v 1

let int64_len v =
  (* Any int64 needing fewer than 8 octets fits 63 bits, i.e. converts
     to a native int exactly; only the conversion-lossy remainder is
     pinned at 8. Keeps the hot sizing path in unboxed arithmetic. *)
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then int_len n else 8

let len_size n =
  if n < 0x80 then 1
  else if n < 0x100 then 2
  else if n < 0x10000 then 3
  else if n < 0x1000000 then 4
  else 5

let rec content_size (v : Value.t) =
  match v with
  | Null -> 0
  | Bool _ -> 1
  | Int i -> int_len i
  | Int64 i -> int64_len i
  | Octets s | Utf8 s -> String.length s
  | List vs -> List.fold_left (fun n v -> n + sizeof v) 0 vs
  | Record fs -> List.fold_left (fun n (_, v) -> n + sizeof v) 0 fs

and sizeof v =
  let c = content_size v in
  1 + len_size c + c

let put_len w n =
  if n < 0x80 then Cursor.put_u8 w n
  else if n < 0x100 then begin
    Cursor.put_u8 w 0x81;
    Cursor.put_u8 w n
  end
  else if n < 0x10000 then begin
    Cursor.put_u8 w 0x82;
    Cursor.put_u16be w n
  end
  else if n < 0x1000000 then begin
    Cursor.put_u8 w 0x83;
    Cursor.put_u8 w (n lsr 16);
    Cursor.put_u16be w (n land 0xffff)
  end
  else begin
    Cursor.put_u8 w 0x84;
    Cursor.put_int_as_u32be w n
  end

let put_int_octets w v k =
  for j = k - 1 downto 0 do
    Cursor.put_u8 w ((v asr (8 * j)) land 0xff)
  done

let put_int64_octets w v k =
  for j = k - 1 downto 0 do
    Cursor.put_u8 w
      (Int64.to_int (Int64.shift_right v (8 * j)) land 0xff)
  done

(* Children are encoded through top-level mutual recursion, not
   [List.iter (fun v -> ...)]: the hot encode loop allocates no closure
   per sequence (see the wire round-trip tests' allocation counts). *)
let rec encode_into (v : Value.t) w =
  match v with
  | Null ->
      Cursor.put_u8 w tag_null;
      Cursor.put_u8 w 0
  | Bool b ->
      Cursor.put_u8 w tag_boolean;
      Cursor.put_u8 w 1;
      Cursor.put_u8 w (if b then 0xff else 0x00)
  | Int i ->
      let k = int_len i in
      Cursor.put_u8 w tag_integer;
      Cursor.put_u8 w k;
      put_int_octets w i k
  | Int64 i ->
      let k = int64_len i in
      Cursor.put_u8 w tag_integer;
      Cursor.put_u8 w k;
      put_int64_octets w i k
  | Octets s ->
      Cursor.put_u8 w tag_octets;
      put_len w (String.length s);
      Cursor.put_string w s
  | Utf8 s ->
      Cursor.put_u8 w tag_utf8;
      put_len w (String.length s);
      Cursor.put_string w s
  | List vs ->
      Cursor.put_u8 w tag_sequence;
      put_len w (content_size v);
      encode_children vs w
  | Record fs ->
      Cursor.put_u8 w tag_sequence;
      put_len w (content_size v);
      encode_field_children fs w

and encode_children vs w =
  match vs with
  | [] -> ()
  | v :: tl ->
      encode_into v w;
      encode_children tl w

and encode_field_children fs w =
  match fs with
  | [] -> ()
  | (_, v) :: tl ->
      encode_into v w;
      encode_field_children tl w

let encode v =
  let buf = Bytebuf.create (sizeof v) in
  let w = Cursor.writer buf in
  encode_into v w;
  Cursor.written w

(* --- Sink-driven encoder (fused ILP pipelines) --- *)

(* Tag and definite length; the dominant shape, tag + short length, is
   one 16-bit store. *)
let sink_put_tag_len s tag n =
  if n < 0x80 then Sink.put_u16be s ((tag lsl 8) lor n)
  else begin
    let k = len_size n - 1 in
    Sink.put_u16be s ((tag lsl 8) lor 0x80 lor k);
    Sink.put_be s n k
  end

(* Preorder side-stack of sequence content lengths. The naive encoder
   calls [content_size] at every SEQUENCE header, re-walking each
   subtree once per nesting level; [measure] computes all of them in a
   single walk and [emit_value] consumes them in the same preorder, so
   the sink-driven path traverses the value exactly twice total
   regardless of depth. *)
type sizes = { mutable sz : int array; mutable wr : int; mutable rd : int }

let sizes_push b c =
  (if b.wr = Array.length b.sz then
     let a = Array.make (2 * b.wr) 0 in
     Array.blit b.sz 0 a 0 b.wr;
     b.sz <- a);
  let i = b.wr in
  b.wr <- i + 1;
  b.sz.(i) <- c;
  i

let rec measure (v : Value.t) b =
  match v with
  | Null -> 2
  | Bool _ -> 3
  | Int i -> 2 + int_len i
  | Int64 i -> 2 + int64_len i
  | Octets str | Utf8 str ->
      let n = String.length str in
      1 + len_size n + n
  | List vs ->
      (* Reserve the slot before the children so the stack stays in
         preorder, then patch it once the subtree total is known. *)
      let i = sizes_push b 0 in
      let c = measure_children vs b 0 in
      b.sz.(i) <- c;
      1 + len_size c + c
  | Record fs ->
      let i = sizes_push b 0 in
      let c = measure_fields fs b 0 in
      b.sz.(i) <- c;
      1 + len_size c + c

and measure_children vs b acc =
  match vs with
  | [] -> acc
  | v :: tl -> measure_children tl b (acc + measure v b)

and measure_fields fs b acc =
  match fs with
  | [] -> acc
  | (_, v) :: tl -> measure_fields tl b (acc + measure v b)

let rec emit_value (v : Value.t) s b =
  match v with
  | Null -> Sink.put_u16be s (tag_null lsl 8)
  | Bool bl ->
      Sink.put_u16be s ((tag_boolean lsl 8) lor 1);
      Sink.put_u8 s (if bl then 0xff else 0x00)
  | Int i ->
      let k = int_len i in
      Sink.put_u16be s ((tag_integer lsl 8) lor k);
      Sink.put_be s i k
  | Int64 i ->
      let k = int64_len i in
      Sink.put_u16be s ((tag_integer lsl 8) lor k);
      (* k < 8 means the value fits a native int exactly. *)
      if k < 8 then Sink.put_be s (Int64.to_int i) k else Sink.put_u64be s i
  | Octets str ->
      sink_put_tag_len s tag_octets (String.length str);
      Sink.put_string s str
  | Utf8 str ->
      sink_put_tag_len s tag_utf8 (String.length str);
      Sink.put_string s str
  | List vs ->
      let c = b.sz.(b.rd) in
      b.rd <- b.rd + 1;
      sink_put_tag_len s tag_sequence c;
      emit_children vs s b
  | Record fs ->
      let c = b.sz.(b.rd) in
      b.rd <- b.rd + 1;
      sink_put_tag_len s tag_sequence c;
      emit_fields fs s b

and emit_children vs s b =
  match vs with
  | [] -> ()
  | v :: tl ->
      emit_value v s b;
      emit_children tl s b

and emit_fields fs s b =
  match fs with
  | [] -> ()
  | (_, v) :: tl ->
      emit_value v s b;
      emit_fields tl s b

(* One stack per domain, reused across calls: [sizes_push] grows it
   geometrically, and the grown array stays, so a steady stream of
   values allocates nothing here. [emit] never runs inside itself. *)
let sizes_key =
  Domain.DLS.new_key (fun () -> { sz = Array.make 64 0; wr = 0; rd = 0 })

let emit (v : Value.t) s =
  let b = Domain.DLS.get sizes_key in
  b.wr <- 0;
  b.rd <- 0;
  ignore (measure v b : int);
  emit_value v s b

(* Interpretive (toolkit-style) encoder: every TLV becomes an intermediate
   string that is copied again by its parent, modelling the layered
   buffer-to-buffer behaviour of a generic presentation toolkit. *)
let encode_interpretive v =
  let len_string n =
    if n < 0x80 then String.make 1 (Char.chr n)
    else if n < 0x100 then Printf.sprintf "\x81%c" (Char.chr n)
    else if n < 0x10000 then
      Printf.sprintf "\x82%c%c" (Char.chr (n lsr 8)) (Char.chr (n land 0xff))
    else if n < 0x1000000 then
      Printf.sprintf "\x83%c%c%c"
        (Char.chr (n lsr 16))
        (Char.chr ((n lsr 8) land 0xff))
        (Char.chr (n land 0xff))
    else
      Printf.sprintf "\x84%c%c%c%c"
        (Char.chr ((n lsr 24) land 0xff))
        (Char.chr ((n lsr 16) land 0xff))
        (Char.chr ((n lsr 8) land 0xff))
        (Char.chr (n land 0xff))
  in
  let tlv tag content =
    let b = Buffer.create (String.length content + 6) in
    Buffer.add_char b (Char.chr tag);
    Buffer.add_string b (len_string (String.length content));
    Buffer.add_string b content;
    Buffer.contents b
  in
  let int_octets_string v =
    let k = int_len v in
    String.init k (fun j -> Char.chr ((v asr (8 * (k - 1 - j))) land 0xff))
  in
  let int64_octets_string v =
    let k = int64_len v in
    String.init k (fun j ->
        Int64.to_int (Int64.shift_right v (8 * (k - 1 - j))) land 0xff
        |> Char.chr)
  in
  let rec interp (v : Value.t) =
    match v with
    | Null -> tlv tag_null ""
    | Bool b -> tlv tag_boolean (if b then "\xff" else "\x00")
    | Int i -> tlv tag_integer (int_octets_string i)
    | Int64 i -> tlv tag_integer (int64_octets_string i)
    | Octets s -> tlv tag_octets s
    | Utf8 s -> tlv tag_utf8 s
    | List vs -> tlv tag_sequence (String.concat "" (List.map interp vs))
    | Record fs ->
        tlv tag_sequence (String.concat "" (List.map (fun (_, v) -> interp v) fs))
  in
  Bytebuf.of_string (interp v)

(* Decoding *)

let read_len r =
  let b0 = Cursor.u8 r in
  if b0 < 0x80 then b0
  else
    let k = b0 land 0x7f in
    if k = 0 then decode_error "BER: indefinite lengths are not supported";
    if k > 4 then decode_error "BER: length of length %d too large" k;
    let rec go k acc = if k = 0 then acc else go (k - 1) ((acc lsl 8) lor Cursor.u8 r) in
    go k 0

let decode_int_content r k =
  if k = 0 then decode_error "BER: empty INTEGER";
  if k > 8 then decode_error "BER: INTEGER of %d octets unsupported" k;
  let first = Cursor.u8 r in
  let acc = ref (Int64.of_int (if first >= 0x80 then first - 0x100 else first)) in
  for _ = 2 to k do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Cursor.u8 r))
  done;
  !acc

let value_of_int64 (i : int64) : Value.t =
  let as_int = Int64.to_int i in
  if Int64.equal (Int64.of_int as_int) i then Int as_int else Int64 i

let rec decode_value r : Value.t =
  let tag = Cursor.u8 r in
  let len = read_len r in
  if tag = tag_null then begin
    if len <> 0 then decode_error "BER: NULL with nonzero length";
    Null
  end
  else if tag = tag_boolean then begin
    if len <> 1 then decode_error "BER: BOOLEAN of length %d" len;
    Bool (Cursor.u8 r <> 0)
  end
  else if tag = tag_integer then value_of_int64 (decode_int_content r len)
  else if tag = tag_octets then Octets (Cursor.string r len)
  else if tag = tag_utf8 then Utf8 (Cursor.string r len)
  else if tag = tag_sequence then begin
    let stop = Cursor.pos r + len in
    let rec children acc =
      if Cursor.pos r > stop then decode_error "BER: SEQUENCE content overran"
      else if Cursor.pos r = stop then List.rev acc
      else children (decode_value r :: acc)
    in
    List (children [])
  end
  else decode_error "BER: unsupported tag 0x%02x" tag

let decode_reader r =
  try decode_value r with
  | Cursor.Underflow msg -> decode_error "BER: truncated input (%s)" msg

let decode_prefix buf =
  let r = Cursor.reader buf in
  let v = decode_reader r in
  (v, Cursor.pos r)

let decode buf =
  let v, consumed = decode_prefix buf in
  if consumed <> Bytebuf.length buf then
    decode_error "BER: %d trailing bytes" (Bytebuf.length buf - consumed);
  v

(* Integer-array fast paths. *)

let int_array_content_size a =
  let n = ref 0 in
  Array.iter (fun v -> n := !n + 2 + int_len v) a;
  !n

(* Tuned path: direct byte stores after a single up-front allocation, the
   moral equivalent of the paper's hand-coded unrolled conversion loop. *)
let encode_int_array a =
  let content = int_array_content_size a in
  let total = 1 + len_size content + content in
  let buf = Bytebuf.create total in
  let bytes, base, _ = Bytebuf.backing buf in
  let pos = ref 0 in
  let emit b =
    Bytes.unsafe_set bytes (base + !pos) (Char.unsafe_chr b);
    incr pos
  in
  emit tag_sequence;
  if content < 0x80 then emit content
  else if content < 0x100 then begin
    emit 0x81; emit content
  end
  else if content < 0x10000 then begin
    emit 0x82; emit (content lsr 8); emit (content land 0xff)
  end
  else if content < 0x1000000 then begin
    emit 0x83;
    emit (content lsr 16);
    emit ((content lsr 8) land 0xff);
    emit (content land 0xff)
  end
  else begin
    emit 0x84;
    emit ((content lsr 24) land 0xff);
    emit ((content lsr 16) land 0xff);
    emit ((content lsr 8) land 0xff);
    emit (content land 0xff)
  end;
  Array.iter
    (fun v ->
      let k = int_len v in
      emit tag_integer;
      emit k;
      for j = k - 1 downto 0 do
        emit ((v asr (8 * j)) land 0xff)
      done)
    a;
  buf

(* Tuned decode: one pass over the TLVs without materialising values. *)
let decode_int_array buf =
  try
    let r = Cursor.reader buf in
    if Cursor.u8 r <> tag_sequence then decode_error "BER: not a SEQUENCE";
  let content = read_len r in
  if content <> Cursor.remaining r then
    decode_error "BER: SEQUENCE length does not cover the input";
  let acc = ref [] in
  let count = ref 0 in
  while Cursor.remaining r > 0 do
    if Cursor.u8 r <> tag_integer then decode_error "BER: not an array of INTEGER";
    let k = Cursor.u8 r in
    if k = 0 || k > 8 then decode_error "BER: bad INTEGER length %d" k;
    let first = Cursor.u8 r in
    let v = ref (if first >= 0x80 then first - 0x100 else first) in
    for _ = 2 to k do
      v := (!v lsl 8) lor Cursor.u8 r
    done;
    acc := !v :: !acc;
    incr count
  done;
    let out = Array.make !count 0 in
    List.iteri (fun i v -> out.(!count - 1 - i) <- v) !acc;
    out
  with Cursor.Underflow msg -> decode_error "BER: truncated input (%s)" msg

(* The paper's fused convert-and-checksum loop: the Internet checksum of
   the encoding is accumulated as each byte is produced, while the bytes
   are still in registers, rather than in a second pass over memory. *)
let encode_int_array_with_checksum a =
  let content = int_array_content_size a in
  let total = 1 + len_size content + content in
  let buf = Bytebuf.create total in
  let bytes, base, _ = Bytebuf.backing buf in
  let pos = ref 0 in
  let sum = ref 0 in
  let emit b =
    Bytes.unsafe_set bytes (base + !pos) (Char.unsafe_chr b);
    (* Even positions are the high octet of a 16-bit word. *)
    sum := !sum + (if !pos land 1 = 0 then b lsl 8 else b);
    if !sum > 0x3FFFFFFF then sum := (!sum land 0xffff) + (!sum lsr 16);
    incr pos
  in
  emit tag_sequence;
  if content < 0x80 then emit content
  else if content < 0x100 then begin
    emit 0x81; emit content
  end
  else if content < 0x10000 then begin
    emit 0x82; emit (content lsr 8); emit (content land 0xff)
  end
  else if content < 0x1000000 then begin
    emit 0x83;
    emit (content lsr 16);
    emit ((content lsr 8) land 0xff);
    emit (content land 0xff)
  end
  else begin
    emit 0x84;
    emit ((content lsr 24) land 0xff);
    emit ((content lsr 16) land 0xff);
    emit ((content lsr 8) land 0xff);
    emit (content land 0xff)
  end;
  Array.iter
    (fun v ->
      let k = int_len v in
      emit tag_integer;
      emit k;
      for j = k - 1 downto 0 do
        emit ((v asr (8 * j)) land 0xff)
      done)
    a;
  let s = ref !sum in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  (buf, lnot !s land 0xffff)
