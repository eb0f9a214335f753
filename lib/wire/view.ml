(* Lazy zero-copy decoding: a View is (borrowed bytes, offset, compiled
   schema node). Construction runs Schema.validate once; after that every
   accessor TRUSTS the bytes and reads fields on demand — no Value.t is
   materialized unless [to_value] asks for one, and octet fields come
   back as aliasing sub-slices of the ADU payload. The LowParse shape:
   validate once, then O(1) (or trusted-skip) accessors. *)

open Bufkit

type t = {
  buf : Bytebuf.t;  (* the borrowed payload; never copied, never kept *)
  off : int;  (* where this node's encoding starts, relative to [buf] *)
  sc : Schema.t;
}

let schema v = v.sc
let offset v = v.off
let buffer v = v.buf

let make prog buf ~pos =
  match Schema.validate_end prog buf ~pos with
  | consumed -> Ok ({ buf; off = pos; sc = Schema.root prog }, consumed)
  | exception Schema.Invalid m -> Error m

let wrong v what =
  invalid_arg
    (Format.asprintf "View.%s: schema is %a" what Schema.pp v.sc)

(* Trusted reads: [make] already bounds-checked everything, so accessors
   use the raw backing like the fused kernels do. *)
let u32 v pos =
  let b, base, _ = Bytebuf.backing v.buf in
  let p = base + pos in
  let x =
    (Char.code (Bytes.unsafe_get b p) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get b (p + 3))
  in
  (x lxor 0x8000_0000) - 0x8000_0000

let u64 v pos =
  let b, base, _ = Bytebuf.backing v.buf in
  let p = base + pos in
  let hi =
    (Char.code (Bytes.unsafe_get b p) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get b (p + 3))
  and lo =
    (Char.code (Bytes.unsafe_get b (p + 4)) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (p + 5)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (p + 6)) lsl 8)
    lor Char.code (Bytes.unsafe_get b (p + 7))
  in
  Int64.logor
    (Int64.shift_left (Int64.of_int hi) 32)
    (Int64.of_int lo)

(* Size of the (validated) encoding at [pos] under [sc] — the trusted
   skip used to step past dynamic siblings. Static subtrees are O(1). *)
let rec extent v (sc : Schema.t) pos =
  match Schema.static sc with
  | Some k -> k
  | None -> (
      match sc.shape with
      | Void | Bool | Int | Hyper -> assert false (* static *)
      | Opaque | Str ->
          let n = u32 v pos in
          4 + n + Xdr.padding n
      | Array el -> (
          let n = u32 v pos in
          match Schema.static el with
          | Some k -> 4 + (n * k)
          | None ->
              let p = ref (pos + 4) in
              for _ = 1 to n do
                p := !p + extent v el !p
              done;
              !p - pos)
      | Struct (fields, _) ->
          let p = ref pos in
          Array.iter (fun f -> p := !p + extent v f !p) fields;
          !p - pos)

(* ------------------------------------------------------------------ *)
(* Scalar accessors.                                                   *)
(* ------------------------------------------------------------------ *)

let get_bool v =
  match v.sc.shape with
  | Schema.Bool -> u32 v v.off = 1
  | _ -> wrong v "get_bool"

let get_int v =
  match v.sc.shape with
  | Schema.Int -> u32 v v.off
  | _ -> wrong v "get_int"

let get_hyper v =
  match v.sc.shape with
  | Schema.Hyper -> u64 v v.off
  | _ -> wrong v "get_hyper"

let counted_body v what =
  match v.sc.shape with
  | Schema.Opaque | Schema.Str ->
      let n = u32 v v.off in
      Bytebuf.sub v.buf ~pos:(v.off + 4) ~len:n
  | _ -> wrong v what

let octets_view v = counted_body v "octets_view"
let get_octets v = Bytebuf.to_string (counted_body v "get_octets")
let get_string v = Bytebuf.to_string (counted_body v "get_string")

(* ------------------------------------------------------------------ *)
(* Structure navigation.                                               *)
(* ------------------------------------------------------------------ *)

let count v =
  match v.sc.shape with
  | Schema.Array _ -> u32 v v.off
  | Schema.Struct (fields, _) -> Array.length fields
  | _ -> wrong v "count"

let elem v i =
  match v.sc.shape with
  | Schema.Array el -> (
      let n = u32 v v.off in
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "View.elem: index %d out of %d" i n);
      match Schema.static el with
      | Some k -> { v with off = v.off + 4 + (i * k); sc = el }
      | None ->
          let p = ref (v.off + 4) in
          for _ = 1 to i do
            p := !p + extent v el !p
          done;
          { v with off = !p; sc = el })
  | _ -> wrong v "elem"

let field v i =
  match v.sc.shape with
  | Schema.Struct (fields, offsets) -> (
      let n = Array.length fields in
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "View.field: index %d out of %d" i n);
      match offsets.(i) with
      | Some o -> { v with off = v.off + o; sc = fields.(i) }
      | None ->
          (* Walk from the last statically-known start. *)
          let j = ref i and o = ref None in
          while !o = None do
            decr j;
            o := offsets.(!j)
          done;
          let p = ref (v.off + Option.get !o) in
          for k = !j to i - 1 do
            p := !p + extent v fields.(k) !p
          done;
          { v with off = !p; sc = fields.(i) })
  | _ -> wrong v "field"

(* ------------------------------------------------------------------ *)
(* Full materialization — the opt-in slow path.                        *)
(* ------------------------------------------------------------------ *)

(* Mirrors Xdr.decode exactly: hypers through Value.canonical (Int64
   collapses to Int when it fits), structs decode to List. *)
let rec value_at v (sc : Schema.t) pos : Value.t * int =
  match sc.shape with
  | Void -> (Value.Null, pos)
  | Bool -> (Value.Bool (u32 v pos = 1), pos + 4)
  | Int -> (Value.Int (u32 v pos), pos + 4)
  | Hyper -> (Value.canonical (Value.Int64 (u64 v pos)), pos + 8)
  | Opaque ->
      let n = u32 v pos in
      ( Value.Octets (Bytebuf.to_string (Bytebuf.sub v.buf ~pos:(pos + 4) ~len:n)),
        pos + 4 + n + Xdr.padding n )
  | Str ->
      let n = u32 v pos in
      ( Value.Utf8 (Bytebuf.to_string (Bytebuf.sub v.buf ~pos:(pos + 4) ~len:n)),
        pos + 4 + n + Xdr.padding n )
  | Array el ->
      let n = u32 v pos in
      let p = ref (pos + 4) in
      let vs =
        List.init n (fun _ ->
            let x, p' = value_at v el !p in
            p := p';
            x)
      in
      (Value.List vs, !p)
  | Struct (fields, _) ->
      let p = ref pos in
      let vs =
        Array.to_list
          (Array.map
             (fun f ->
               let x, p' = value_at v f !p in
               p := p';
               x)
             fields)
      in
      (Value.List vs, !p)

let to_value v = fst (value_at v v.sc v.off)
