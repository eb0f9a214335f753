open Bufkit

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type t = Raw | Ber | Xdr of Xdr.schema | Lwts of Xdr.schema

let name = function
  | Raw -> "raw"
  | Ber -> "ber"
  | Xdr _ -> "xdr"
  | Lwts _ -> "lwts"

let pp ppf t = Format.pp_print_string ppf (name t)

(* Schema inference is the expensive part of probing (a full walk of the
   sample), and both XDR-family syntaxes need the same schema — derive it
   at most once per sample, lazily, and share it across a whole
   [negotiate] preference scan. *)
let for_sample ~schema n (v : Value.t) =
  match (String.lowercase_ascii n, v) with
  | "raw", Octets _ -> Some Raw
  | "raw", (Null | Bool _ | Int _ | Int64 _ | Utf8 _ | List _ | Record _) ->
      None
  | "ber", _ -> Some Ber
  | "xdr", _ -> (
      match Lazy.force schema with Some s -> Some (Xdr s) | None -> None)
  | "lwts", _ -> (
      match Lazy.force schema with Some s -> Some (Lwts s) | None -> None)
  | _, _ -> None

let infer v = lazy (try Some (Xdr.schema_of_value v) with Xdr.Error _ -> None)
let for_value n (v : Value.t) = for_sample ~schema:(infer v) n v

let encode t (v : Value.t) =
  match (t, v) with
  | Raw, Octets s -> Bytebuf.of_string s
  | Raw, (Null | Bool _ | Int _ | Int64 _ | Utf8 _ | List _ | Record _) ->
      error "raw syntax carries only octet strings"
  | Ber, _ -> Ber.encode v
  | Xdr schema, _ -> (
      try Xdr.encode schema v with Xdr.Error m -> error "%s" m)
  | Lwts schema, _ -> (
      try Lwts.encode schema v with Lwts.Error m -> error "%s" m)

let decode t buf : Value.t =
  match t with
  | Raw -> Octets (Bytebuf.to_string buf)
  | Ber -> ( try Ber.decode buf with Ber.Decode_error m -> error "%s" m)
  | Xdr schema -> ( try Xdr.decode schema buf with Xdr.Error m -> error "%s" m)
  | Lwts schema -> (
      try Lwts.decode schema buf with Lwts.Error m -> error "%s" m)

let sizeof t (v : Value.t) =
  match (t, v) with
  | Raw, Octets s -> String.length s
  | Raw, (Null | Bool _ | Int _ | Int64 _ | Utf8 _ | List _ | Record _) ->
      error "raw syntax carries only octet strings"
  | Ber, _ -> Ber.sizeof v
  | Xdr schema, _ -> (
      try Xdr.sizeof schema v with Xdr.Error m -> error "%s" m)
  | Lwts schema, _ -> (
      try Lwts.sizeof schema v with Lwts.Error m -> error "%s" m)

let placements t adus =
  let _, rev =
    List.fold_left
      (fun (off, acc) v ->
        let n = sizeof t v in
        (off + n, (off, n) :: acc))
      (0, []) adus
  in
  List.rev rev

let encode_sized t (v : Value.t) ~size =
  if size < 0 then error "negative encoded size";
  match (t, v) with
  | Raw, Octets s ->
      if String.length s <> size then
        error "raw syntax: size %d does not match %d-byte value" size
          (String.length s);
      Bytebuf.of_string s
  | Raw, (Null | Bool _ | Int _ | Int64 _ | Utf8 _ | List _ | Record _) ->
      error "raw syntax carries only octet strings"
  | (Ber | Xdr _ | Lwts _), _ ->
      let buf = Bytebuf.create size in
      let w = Cursor.writer buf in
      (try
         match t with
         | Raw -> assert false
         | Ber -> Ber.encode_into v w
         | Xdr schema -> Xdr.encode_into schema v w
         | Lwts schema -> Lwts.encode_into schema v w
       with
      | Cursor.Overflow _ ->
          error "encoding overran its declared %d-byte size" size
      | Xdr.Error m | Lwts.Error m -> error "%s" m);
      if Cursor.writer_pos w <> size then
        error "encoding used %d of its declared %d bytes" (Cursor.writer_pos w)
          size;
      buf

let negotiate ~sender ~receiver ~sample =
  let receiver = List.map String.lowercase_ascii receiver in
  let schema = infer sample in
  let acceptable n =
    if List.mem (String.lowercase_ascii n) receiver then
      for_sample ~schema n sample
    else None
  in
  List.find_map acceptable sender
