type t = { data : Bytes.t; off : int; len : int }

exception Bounds of string

let bounds_error fmt = Format.kasprintf (fun s -> raise (Bounds s)) fmt

let check_range t pos len what =
  if pos < 0 || len < 0 || pos + len > t.len then
    bounds_error "%s: pos=%d len=%d outside slice of length %d" what pos len
      t.len

(* Fresh-storage allocations, for zero-alloc accounting on pooled hot
   paths. Counts [create] only: [sub]/[shift]/[take] views share backing
   storage and are not allocations in this sense. *)
let created = Atomic.make 0

let created_total () = Atomic.get created

let create_padded len ~pad =
  if len < 0 || pad < 0 then invalid_arg "Bytebuf.create: negative length";
  Atomic.incr created;
  { data = Bytes.make (len + pad) '\000'; off = 0; len }

let create len = create_padded len ~pad:0

let of_bytes b = { data = b; off = 0; len = Bytes.length b }
let of_string s = of_bytes (Bytes.of_string s)

let init len f =
  Atomic.incr created;
  of_bytes (Bytes.init len f)
let empty = { data = Bytes.empty; off = 0; len = 0 }
let length t = t.len

let sub t ~pos ~len =
  check_range t pos len "Bytebuf.sub";
  { data = t.data; off = t.off + pos; len }

let shift t n = sub t ~pos:n ~len:(t.len - n)
let take t n = sub t ~pos:0 ~len:n
let split t n = (take t n, shift t n)

let get t i =
  if i < 0 || i >= t.len then
    bounds_error "Bytebuf.get: index %d in slice of length %d" i t.len;
  Bytes.unsafe_get t.data (t.off + i)

let set t i c =
  if i < 0 || i >= t.len then
    bounds_error "Bytebuf.set: index %d in slice of length %d" i t.len;
  Bytes.unsafe_set t.data (t.off + i) c

let get_uint8 t i = Char.code (get t i)

let set_be t pos v ~bytes =
  for i = 0 to bytes - 1 do
    set t (pos + i) (Char.unsafe_chr ((v asr (8 * (bytes - 1 - i))) land 0xff))
  done

let get_be t pos ~bytes =
  check_range t pos bytes "Bytebuf.get_be";
  let v = ref 0 in
  for i = 0 to bytes - 1 do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get t.data (t.off + pos + i))
  done;
  !v

let set_uint8 t i v =
  if v < 0 || v > 0xff then invalid_arg "Bytebuf.set_uint8: not a byte";
  set t i (Char.unsafe_chr v)

let unsafe_get t i = Bytes.unsafe_get t.data (t.off + i)
let unsafe_set t i c = Bytes.unsafe_set t.data (t.off + i) c
let backing t = (t.data, t.off, t.len)
let data t = t.data
let offset t = t.off

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  check_range src src_pos len "Bytebuf.blit (src)";
  check_range dst dst_pos len "Bytebuf.blit (dst)";
  Bytes.blit src.data (src.off + src_pos) dst.data (dst.off + dst_pos) len

let blit_from_string s ~src_pos ~dst ~dst_pos ~len =
  if src_pos < 0 || len < 0 || src_pos + len > String.length s then
    bounds_error "Bytebuf.blit_from_string: pos=%d len=%d in string of %d"
      src_pos len (String.length s);
  check_range dst dst_pos len "Bytebuf.blit_from_string (dst)";
  Bytes.blit_string s src_pos dst.data (dst.off + dst_pos) len

let fill t c = Bytes.fill t.data t.off t.len c

let copy t =
  let dst = create t.len in
  blit ~src:t ~src_pos:0 ~dst ~dst_pos:0 ~len:t.len;
  dst

let concat ts =
  let total = List.fold_left (fun acc t -> acc + t.len) 0 ts in
  let dst = create total in
  let pos = ref 0 in
  let blit_one t =
    blit ~src:t ~src_pos:0 ~dst ~dst_pos:!pos ~len:t.len;
    pos := !pos + t.len
  in
  List.iter blit_one ts;
  dst

let to_string t = Bytes.sub_string t.data t.off t.len
let to_bytes t = Bytes.sub t.data t.off t.len

let rec equal_from a b i =
  i >= a.len || (unsafe_get a i = unsafe_get b i && equal_from a b (i + 1))

let equal a b = a.len = b.len && equal_from a b 0

let compare a b = String.compare (to_string a) (to_string b)

let pp ppf t =
  let shown = min t.len 16 in
  Format.fprintf ppf "<%d bytes:" t.len;
  for i = 0 to shown - 1 do
    Format.fprintf ppf " %02x" (get_uint8 t i)
  done;
  if t.len > shown then Format.fprintf ppf " ...";
  Format.fprintf ppf ">"
