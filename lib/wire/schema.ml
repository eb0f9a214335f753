(* Schema-compiled presentation: lower an XDR schema ONCE into a
   specialized marshal/size/validate program, so the per-send cost is a
   single destructuring walk of the value — no (schema, value)
   double-dispatch, no re-derived sizes, no per-field tag branches
   (Bebop's "the schema is known ahead of time" argument, applied to the
   ILP marshal source).

   Three programs are compiled per schema, together, by [prog_of_xdr];
   the caller holds the result for as long as it sends or receives that
   schema, so no message pays a lookup:

   - [emit]: stores into a {!Sink} exactly the bytes {!Xdr.emit} would
     produce. Fixed-width fields compile to direct stores; an int array
     and a counted string are each one bounds-checked run; struct
     fields are a pre-lowered emitter array walked by a top-level loop
     (no closures allocated per call).
   - [size]: the branchless length precomputation. Statically-sized
     subtrees fold to a constant at compile time — a fully static schema
     sizes in O(1), a mixed struct only walks its dynamic fields.
   - [validate]: a TOTAL one-pass structural check over received bytes
     (LowParse-style): runs of content-free fixed-size fields fuse into
     single bounds comparisons, counted fields get the same strictness
     as {!Xdr.decode}. [Ok consumed] iff {!Xdr.decode_prefix} would
     succeed and consume [consumed] bytes — the contract {!View}'s O(1)
     accessors rely on. *)

open Bufkit

(* ------------------------------------------------------------------ *)
(* The wire-shape description.                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  shape : shape;
  static : int option;  (* encoded size when value-independent *)
  content_free : bool;  (* no booleans, no counted lengths: any bytes
                           of the right length are a valid encoding *)
}

and shape =
  | Void
  | Bool
  | Int
  | Hyper
  | Opaque
  | Str
  | Array of t
  | Struct of t array * int option array
      (* fields, plus each field's start offset from the struct's first
         byte when every earlier field is statically sized — the O(1)
         field-access table for {!View}. *)

let static t = t.static
let content_free t = t.content_free

let rec of_xdr (s : Xdr.schema) : t =
  match s with
  | S_void -> { shape = Void; static = Some 0; content_free = true }
  | S_bool -> { shape = Bool; static = Some 4; content_free = false }
  | S_int -> { shape = Int; static = Some 4; content_free = true }
  | S_hyper -> { shape = Hyper; static = Some 8; content_free = true }
  | S_opaque -> { shape = Opaque; static = None; content_free = false }
  | S_string -> { shape = Str; static = None; content_free = false }
  | S_array el ->
      { shape = Array (of_xdr el); static = None; content_free = false }
  | S_struct ss ->
      let fields = Array.of_list (List.map of_xdr ss) in
      let n = Array.length fields in
      let offsets = Array.make n None in
      let off = ref (Some 0) in
      Array.iteri
        (fun i f ->
          offsets.(i) <- !off;
          off :=
            match (!off, f.static) with
            | Some o, Some k -> Some (o + k)
            | _, _ -> None)
        fields;
      {
        shape = Struct (fields, offsets);
        static = !off;
        content_free = Array.for_all (fun f -> f.content_free) fields;
      }

let rec to_xdr t : Xdr.schema =
  match t.shape with
  | Void -> S_void
  | Bool -> S_bool
  | Int -> S_int
  | Hyper -> S_hyper
  | Opaque -> S_opaque
  | Str -> S_string
  | Array el -> S_array (to_xdr el)
  | Struct (fields, _) ->
      S_struct (Array.to_list (Array.map to_xdr fields))

let pp ppf t = Xdr.pp_schema ppf (to_xdr t)

(* ------------------------------------------------------------------ *)
(* The emit program.                                                   *)
(* ------------------------------------------------------------------ *)

type emitter = Sink.t -> Value.t -> unit

let mismatch () = raise (Xdr.Error "XDR: value does not match schema")
let arity () = raise (Xdr.Error "XDR: struct arity mismatch")

(* Children are emitted through top-level recursion over pre-lowered
   emitter arrays, never [List.iter (fun v -> ...)]: the steady-state
   emit path allocates nothing. *)
let rec emit_list (e : emitter) sink = function
  | [] -> ()
  | v :: tl ->
      e sink v;
      emit_list e sink tl

let rec emit_struct_list es n i sink = function
  | [] -> if i <> n then arity ()
  | v :: tl ->
      if i >= n then arity ();
      es.(i) sink v;
      emit_struct_list es n (i + 1) sink tl

let rec emit_struct_fields es n i sink = function
  | [] -> if i <> n then arity ()
  | (_, v) :: tl ->
      if i >= n then arity ();
      es.(i) sink v;
      emit_struct_fields es n (i + 1) sink tl

(* The direct int-array blit: the count and its lanes are one run, so
   the sink checks its bounds once and each element is a range check
   and a 32-bit big-endian store. *)
let rec store_ints b p = function
  | [] -> ()
  | Value.Int x :: tl ->
      Xdr.check_int32 x;
      Bytes.set_int32_be b p (Int32.of_int x);
      store_ints b (p + 4) tl
  | _ :: _ -> mismatch ()

let emit_int_run sink vs =
  let k = List.length vs in
  let p = Sink.reserve sink (4 + (4 * k)) in
  let b = Sink.bytes sink in
  Bytes.set_int32_be b p (Int32.of_int k);
  store_ints b (p + 4) vs;
  Sink.commit sink (4 + (4 * k))

let rec emit_hyper_list sink = function
  | [] -> ()
  | Value.Int64 i :: tl ->
      Sink.put_u64be sink i;
      emit_hyper_list sink tl
  | Value.Int i :: tl ->
      Sink.put_u64be sink (Int64.of_int i);
      emit_hyper_list sink tl
  | _ :: _ -> mismatch ()

(* A counted item is one run too: length, bytes and zero padding behind
   one bounds check. *)
let emit_counted sink s =
  let n = String.length s in
  let k = 4 + n + Xdr.padding n in
  let p = Sink.reserve sink k in
  let b = Sink.bytes sink in
  Bytes.set_int32_be b p (Int32.of_int n);
  Bytes.blit_string s 0 b (p + 4) n;
  Bytes.fill b (p + 4 + n) (k - 4 - n) '\000';
  Sink.commit sink k

(* Each node compiles to a closure that destructures the value ONCE and
   emits — the schema side of the dispatch is resolved here, at compile
   time. *)
let rec compile_emit (s : Xdr.schema) : emitter =
  match s with
  | S_void -> (
      fun _ v -> match v with Value.Null -> () | _ -> mismatch ())
  | S_bool -> (
      fun sink v ->
        match v with
        | Value.Bool b -> Sink.put_u32be sink (if b then 1 else 0)
        | _ -> mismatch ())
  | S_int -> (
      fun sink v ->
        match v with
        | Value.Int i ->
            Xdr.check_int32 i;
            Sink.put_u32be sink i
        | _ -> mismatch ())
  | S_hyper -> (
      fun sink v ->
        match v with
        | Value.Int64 i -> Sink.put_u64be sink i
        | Value.Int i -> Sink.put_u64be sink (Int64.of_int i)
        | _ -> mismatch ())
  | S_opaque -> (
      fun sink v ->
        match v with Value.Octets s -> emit_counted sink s | _ -> mismatch ())
  | S_string -> (
      fun sink v ->
        match v with Value.Utf8 s -> emit_counted sink s | _ -> mismatch ())
  | S_array S_int -> (
      fun sink v ->
        match v with
        | Value.List vs -> emit_int_run sink vs
        | _ -> mismatch ())
  | S_array S_hyper -> (
      fun sink v ->
        match v with
        | Value.List vs ->
            Sink.put_u32be sink (List.length vs);
            emit_hyper_list sink vs
        | _ -> mismatch ())
  | S_array el ->
      let e = compile_emit el in
      fun sink v ->
        (match v with
        | Value.List vs ->
            Sink.put_u32be sink (List.length vs);
            emit_list e sink vs
        | _ -> mismatch ())
  | S_struct ss ->
      let es = Array.of_list (List.map compile_emit ss) in
      let n = Array.length es in
      fun sink v ->
        (match v with
        | Value.List vs -> emit_struct_list es n 0 sink vs
        | Value.Record fs -> emit_struct_fields es n 0 sink fs
        | _ -> mismatch ())

(* ------------------------------------------------------------------ *)
(* The size program.                                                   *)
(* ------------------------------------------------------------------ *)

type sizer = Fixed of int | Dyn of (Value.t -> int)

let counted_size s =
  let n = String.length s in
  4 + n + Xdr.padding n

let rec size_list f acc = function
  | [] -> acc
  | v :: tl -> size_list f (acc + f v) tl

let rec size_struct_list zs n i acc = function
  | [] -> if i <> n then arity () else acc
  | v :: tl ->
      if i >= n then arity ();
      let k = match zs.(i) with Fixed k -> k | Dyn f -> f v in
      size_struct_list zs n (i + 1) (acc + k) tl

let rec size_struct_fields zs n i acc = function
  | [] -> if i <> n then arity () else acc
  | (_, v) :: tl ->
      if i >= n then arity ();
      let k = match zs.(i) with Fixed k -> k | Dyn f -> f v in
      size_struct_fields zs n (i + 1) (acc + k) tl

(* Statically-sized subtrees fold to [Fixed] and are never walked at
   size time; a mismatched value under a fully static schema therefore
   surfaces at emit time, not sizing time (run_marshal raises either
   way). *)
let rec compile_size (s : Xdr.schema) : sizer =
  match s with
  | S_void -> Fixed 0
  | S_bool | S_int -> Fixed 4
  | S_hyper -> Fixed 8
  | S_opaque ->
      Dyn
        (fun v ->
          match v with Value.Octets s -> counted_size s | _ -> mismatch ())
  | S_string ->
      Dyn
        (fun v ->
          match v with Value.Utf8 s -> counted_size s | _ -> mismatch ())
  | S_array el -> (
      match compile_size el with
      | Fixed k ->
          Dyn
            (fun v ->
              match v with
              | Value.List vs -> 4 + (k * List.length vs)
              | _ -> mismatch ())
      | Dyn f ->
          Dyn
            (fun v ->
              match v with
              | Value.List vs -> size_list f 4 vs
              | _ -> mismatch ()))
  | S_struct ss ->
      let zs = List.map compile_size ss in
      if List.for_all (function Fixed _ -> true | Dyn _ -> false) zs then
        Fixed
          (List.fold_left
             (fun acc z -> match z with Fixed k -> acc + k | Dyn _ -> acc)
             0 zs)
      else
        let zs = Array.of_list zs in
        let n = Array.length zs in
        Dyn
          (fun v ->
            match v with
            | Value.List vs -> size_struct_list zs n 0 0 vs
            | Value.Record fs -> size_struct_fields zs n 0 0 fs
            | _ -> mismatch ())

(* ------------------------------------------------------------------ *)
(* The validate program. TOTAL: never raises past its own boundary.    *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

(* A validation op: (bytes, absolute limit, absolute pos) -> new pos. *)
type vop = Bytes.t -> int -> int -> int

let need b limit pos k =
  ignore b;
  if pos + k > limit then invalid "XDR: truncated input"

(* Big-endian 32-bit load, sign-extended like [Cursor.int32_as_int]. *)
let i32 b pos =
  let v =
    (Char.code (Bytes.unsafe_get b pos) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (pos + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get b (pos + 3))
  in
  (v lxor 0x8000_0000) - 0x8000_0000

let rec compile_validate (sc : t) : vop =
  match (sc.content_free, sc.static) with
  | true, Some k ->
      (* Content-free static subtree: one bounds comparison covers the
         whole thing, however many fields it spans. *)
      fun b limit pos ->
        need b limit pos k;
        pos + k
  | _, _ -> (
      match sc.shape with
      | Void | Int | Hyper ->
          (* content-free, handled above *)
          assert false
      | Bool ->
          fun b limit pos ->
            need b limit pos 4;
            let v = i32 b pos in
            if v <> 0 && v <> 1 then invalid "XDR: boolean with value %d" v;
            pos + 4
      | Opaque | Str ->
          fun b limit pos ->
            need b limit pos 4;
            let n = i32 b pos in
            if n < 0 || n > limit - (pos + 4) then
              invalid "XDR: bad counted length %d" n;
            let e = pos + 4 + n + Xdr.padding n in
            if e > limit then invalid "XDR: truncated input";
            e
      | Array el -> (
          match (el.content_free, el.static) with
          | true, Some k ->
              (* count check + one multiply: the whole array in O(1). *)
              fun b limit pos ->
                need b limit pos 4;
                let n = i32 b pos in
                if n < 0 || n > 0x1000000 then
                  invalid "XDR: unreasonable array count %d" n;
                let e = pos + 4 + (n * k) in
                if e > limit then invalid "XDR: truncated input";
                e
          | _, _ ->
              let ve = compile_validate el in
              fun b limit pos ->
                need b limit pos 4;
                let n = i32 b pos in
                if n < 0 || n > 0x1000000 then
                  invalid "XDR: unreasonable array count %d" n;
                let p = ref (pos + 4) in
                for _ = 1 to n do
                  p := ve b limit !p
                done;
                !p)
      | Struct (fields, _) ->
          (* Fuse runs of content-free static fields into single skip
             ops — the flat program a hand-written validator would be. *)
          let ops = ref [] in
          let pend = ref 0 in
          let flush () =
            if !pend > 0 then begin
              let k = !pend in
              ops :=
                (fun b limit pos ->
                  need b limit pos k;
                  pos + k)
                :: !ops;
              pend := 0
            end
          in
          Array.iter
            (fun f ->
              match (f.content_free, f.static) with
              | true, Some k -> pend := !pend + k
              | _, _ ->
                  flush ();
                  ops := compile_validate f :: !ops)
            fields;
          flush ();
          let ops = Array.of_list (List.rev !ops) in
          let nops = Array.length ops in
          fun b limit pos ->
            let p = ref pos in
            for i = 0 to nops - 1 do
              p := ops.(i) b limit !p
            done;
            !p)

(* ------------------------------------------------------------------ *)
(* The compiled program.                                               *)
(* ------------------------------------------------------------------ *)

type prog = {
  p_schema : t;
  p_sizer : sizer;
  p_emit : emitter;
  p_validate : vop;
}

let root p = p.p_schema

let prog_of_xdr (s : Xdr.schema) =
  let sc = of_xdr s in
  {
    p_schema = sc;
    p_sizer = compile_size s;
    p_emit = compile_emit s;
    p_validate = compile_validate sc;
  }

let size p v = match p.p_sizer with Fixed k -> k | Dyn f -> f v
let emit p sink v = p.p_emit sink v

let validate_end p buf ~pos =
  let b = Bytebuf.data buf
  and base = Bytebuf.offset buf
  and len = Bytebuf.length buf in
  if pos < 0 || pos > len then raise (Invalid "XDR: position outside the buffer");
  p.p_validate b (base + len) (base + pos) - base

let validate p buf ~pos =
  match validate_end p buf ~pos with
  | e -> Ok e
  | exception Invalid m -> Error m
