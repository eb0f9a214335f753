(* The datagram reader ([Framing.read], [Adu.read_header]) against a
   reference chain of separate decoders, kept here as the oracle: a
   trailer check ([unseal]), stage 0's classifier ([validate]), a
   fragment parser ([parse_fragment_res]), an ADU decoder
   ([decode_view_res]) and a control parser ([parse]), each reading the
   bytes again through [Cursor]. *)

open Bufkit
open Alf_core
module Ingress = Alf_serve.Ingress

let qcheck t = QCheck_alcotest.to_alcotest t

module Oracle = struct
  let unseal integrity buf =
    match integrity with
    | None -> Some buf
    | Some kind ->
        let n = Bytebuf.length buf in
        if n < 4 then None
        else
          let body = Bytebuf.sub buf ~pos:0 ~len:(n - 4) in
          let stored =
            (Bytebuf.get_uint8 buf (n - 4) lsl 24)
            lor (Bytebuf.get_uint8 buf (n - 3) lsl 16)
            lor (Bytebuf.get_uint8 buf (n - 2) lsl 8)
            lor Bytebuf.get_uint8 buf (n - 1)
          in
          if Checksum.Kind.digest kind body land 0xFFFFFFFF = stored then
            Some body
          else None

  let u16 buf off =
    (Bytebuf.get_uint8 buf off lsl 8) lor Bytebuf.get_uint8 buf (off + 1)

  let u32 buf off =
    (Bytebuf.get_uint8 buf off lsl 24)
    lor (Bytebuf.get_uint8 buf (off + 1) lsl 16)
    lor (Bytebuf.get_uint8 buf (off + 2) lsl 8)
    lor Bytebuf.get_uint8 buf (off + 3)

  (* Stage 0: [Ok stream] or [Error reason]. *)
  let validate ~trailer ~max_len ~max_total_len buf =
    let len = Bytebuf.length buf in
    let body = len - trailer in
    if body < 3 then Error "runt"
    else if len > max_len then Error "oversize"
    else
      let stream = u16 buf 1 in
      match Bytebuf.get_uint8 buf 0 with
      | 0xAD ->
          if body < 19 then Error "frag_header"
          else
            let frag_idx = u16 buf 7 in
            let nfrags = u16 buf 9 in
            let total_len = u32 buf 11 in
            let frag_off = u32 buf 15 in
            let chunk = body - 19 in
            if
              nfrags = 0 || frag_idx >= nfrags
              || total_len < Adu.header_size
              || total_len > max_total_len
              || frag_off + chunk > total_len
              || (nfrags = 1 && (frag_off <> 0 || chunk <> total_len))
            then Error "frag_header"
            else Ok stream
      | 0xC2 -> if body = 7 then Ok stream else Error "ctl_malformed"
      | 0xC3 -> if body = 3 then Ok stream else Error "ctl_malformed"
      | 0xC1 ->
          if body >= 9 && body = 9 + (4 * u16 buf 7) then Ok stream
          else Error "ctl_malformed"
      | 0xC4 ->
          if body >= 5 && body = 5 + (4 * u16 buf 3) then Ok stream
          else Error "ctl_malformed"
      | 0xFE -> Error "fec_unsupported"
      | _ -> Error "bad_kind"

  type frag = {
    stream : int;
    index : int;
    frag_idx : int;
    nfrags : int;
    total_len : int;
    frag_off : int;
    chunk : Bytebuf.t;
  }

  let parse_fragment_res buf =
    if Bytebuf.length buf < 19 then Error "short"
    else
      let r = Cursor.reader buf in
      if Cursor.u8 r <> 0xAD then Error "magic"
      else
        let stream = Cursor.u16be r in
        let index = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
        let frag_idx = Cursor.u16be r in
        let nfrags = Cursor.u16be r in
        let total_len = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
        let frag_off = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
        let chunk = Cursor.rest r in
        if nfrags = 0 || frag_idx >= nfrags then Error "indices"
        else if frag_off + Bytebuf.length chunk > total_len then Error "overrun"
        else Ok { stream; index; frag_idx; nfrags; total_len; frag_off; chunk }

  let decode_view_res buf =
    if Bytebuf.length buf < Adu.header_size then Error "short"
    else
      let r = Cursor.reader buf in
      if Cursor.u16be r <> Adu.magic then Error "magic"
      else
        let stream = Cursor.u16be r in
        let index = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
        let dest_off = Int64.to_int (Cursor.u64be r) in
        let dest_len = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
        let timestamp_us = Cursor.u64be r in
        let plen = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
        let got_crc = Cursor.u32be r in
        if Bytebuf.length buf <> Adu.header_size + plen then Error "length"
        else
          let st =
            ref (Checksum.Crc32.feed_sub Checksum.Crc32.init buf ~pos:0 ~len:32)
          in
          for _ = 1 to 4 do
            st := Checksum.Crc32.feed_byte !st 0
          done;
          let crc =
            Checksum.Crc32.finish
              (Checksum.Crc32.feed_sub !st buf ~pos:Adu.header_size ~len:plen)
          in
          if not (Int32.equal crc got_crc) then Error "crc"
          else
            Ok
              ( { Adu.stream; index; dest_off; dest_len; timestamp_us },
                Bytebuf.sub buf ~pos:Adu.header_size ~len:plen )

  type msg =
    | Nack of { stream : int; have_below : int; indices : int list }
    | Close of { stream : int; total : int }
    | Done of { stream : int }
    | Gone of { stream : int; indices : int list }

  let read_indices r count =
    List.init count (fun _ -> Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF)

  let parse buf =
    if Bytebuf.length buf = 0 then None
    else
      let r = Cursor.reader buf in
      try
        match Cursor.u8 r with
        | 0xC1 ->
            let stream = Cursor.u16be r in
            let have_below = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
            let count = Cursor.u16be r in
            Some (Nack { stream; have_below; indices = read_indices r count })
        | 0xC2 ->
            let stream = Cursor.u16be r in
            let total = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
            Some (Close { stream; total })
        | 0xC3 -> Some (Done { stream = Cursor.u16be r })
        | 0xC4 ->
            let stream = Cursor.u16be r in
            let count = Cursor.u16be r in
            Some (Gone { stream; indices = read_indices r count })
        | _ -> None
      with Cursor.Underflow _ -> None
end

(* What a receiver learns from one datagram, with every field. *)
type adu_outcome = Whole of Adu.name * string | Bad_adu | Multi

type outcome =
  | Drop of string  (* a drop reason's name, or "ignored" *)
  | Frag of {
      stream : int;
      index : int;
      frag_idx : int;
      nfrags : int;
      total_len : int;
      frag_off : int;
      chunk : string;
      adu : adu_outcome;
    }
  | Fec of string
  | Ctl of Oracle.msg

let pp_outcome = function
  | Drop r -> "drop " ^ r
  | Frag f ->
      Printf.sprintf "frag stream=%d index=%d %d/%d total_len=%d off=%d chunk=%d %s"
        f.stream f.index f.frag_idx f.nfrags f.total_len f.frag_off
        (String.length f.chunk)
        (match f.adu with
        | Whole (n, p) ->
            Format.asprintf "adu %a %d" Adu.pp_name n (String.length p)
        | Bad_adu -> "bad adu"
        | Multi -> "multi")
  | Fec b -> Printf.sprintf "fec %d" (String.length b)
  | Ctl (Oracle.Nack { stream; have_below; indices }) ->
      Printf.sprintf "nack %d below %d [%s]" stream have_below
        (String.concat ";" (List.map string_of_int indices))
  | Ctl (Oracle.Close { stream; total }) -> Printf.sprintf "close %d %d" stream total
  | Ctl (Oracle.Done { stream }) -> Printf.sprintf "done %d" stream
  | Ctl (Oracle.Gone { stream; indices }) ->
      Printf.sprintf "gone %d [%s]" stream
        (String.concat ";" (List.map string_of_int indices))

let oracle_frag (f : Oracle.frag) =
  Frag
    {
      stream = f.stream;
      index = f.index;
      frag_idx = f.frag_idx;
      nfrags = f.nfrags;
      total_len = f.total_len;
      frag_off = f.frag_off;
      chunk = Bytebuf.to_string f.chunk;
      adu =
        (if f.nfrags <> 1 then Multi
         else
           match Oracle.decode_view_res f.chunk with
           | Ok (name, payload) -> Whole (name, Bytebuf.to_string payload)
           | Error _ -> Bad_adu);
    }

(* The chain in [Framing.read]'s order: the trailer, stage 0's layout
   rules on the sealed datagram, then the parsers. *)
let oracle_serve integrity ~max_len ~max_total_len dg =
  let trailer = match integrity with Some _ -> 4 | None -> 0 in
  match Oracle.unseal integrity dg with
  | None -> Drop "bad_crc"
  | Some body -> (
      match Oracle.validate ~trailer ~max_len ~max_total_len dg with
      | Error r -> Drop r
      | Ok _ -> (
          if Bytebuf.get_uint8 body 0 = 0xAD then
            match Oracle.parse_fragment_res body with
            | Error _ -> Drop "frag_header"
            | Ok f -> oracle_frag f
          else
            match Oracle.parse body with
            | None -> Drop "ctl_malformed"
            | Some m -> Ctl m))

(* The serve engine's own order: stage 0 on the I/O thread, then the
   trailer on the shard. *)
let oracle_engine integrity ~max_len ~max_total_len dg =
  let trailer = match integrity with Some _ -> 4 | None -> 0 in
  match Oracle.validate ~trailer ~max_len ~max_total_len dg with
  | Error r -> Drop r
  | Ok _ -> oracle_serve integrity ~max_len ~max_total_len dg

(* The transport's chain: the trailer, then the parsers, no stage 0. *)
let oracle_transport integrity dg =
  match Oracle.unseal integrity dg with
  | None -> Drop "bad_crc"
  | Some body -> (
      let b0 = if Bytebuf.length body > 0 then Bytebuf.get_uint8 body 0 else -1 in
      if b0 = 0xAD then
        match Oracle.parse_fragment_res body with
        | Error _ -> Drop "ignored"
        | Ok f -> oracle_frag f
      else if b0 = 0xFE then Fec (Bytebuf.to_string (Bytebuf.shift body 1))
      else match Oracle.parse body with None -> Drop "ignored" | Some m -> Ctl m)

let new_outcome (v : Framing.view) =
  let indices () = List.init v.Framing.count (Framing.index_at v) in
  match v.Framing.kind with
  | Framing.Data ->
      let dg = v.Framing.dg and pos = v.Framing.chunk_off in
      let len = v.Framing.chunk_len in
      Frag
        {
          stream = v.Framing.stream;
          index = v.Framing.index;
          frag_idx = v.Framing.frag_idx;
          nfrags = v.Framing.nfrags;
          total_len = v.Framing.total_len;
          frag_off = v.Framing.frag_off;
          chunk = Bytebuf.to_string (Bytebuf.sub dg ~pos ~len);
          adu =
            (if v.Framing.nfrags <> 1 then Multi
             else if Adu.read_header v.Framing.adu dg ~pos ~len then
               let a = Adu.of_header v.Framing.adu dg ~pos in
               Whole (a.Adu.name, Bytebuf.to_string a.Adu.payload)
             else Bad_adu);
        }
  | Framing.Fec ->
      Fec
        (Bytebuf.to_string
           (Bytebuf.sub v.Framing.dg ~pos:v.Framing.chunk_off
              ~len:v.Framing.chunk_len))
  | Framing.Close ->
      Ctl (Oracle.Close { stream = v.Framing.stream; total = v.Framing.total })
  | Framing.Done -> Ctl (Oracle.Done { stream = v.Framing.stream })
  | Framing.Nack ->
      Ctl
        (Oracle.Nack
           {
             stream = v.Framing.stream;
             have_below = v.Framing.have_below;
             indices = indices ();
           })
  | Framing.Gone ->
      Ctl (Oracle.Gone { stream = v.Framing.stream; indices = indices () })

let new_serve integrity ~max_len ~max_total_len dg =
  let v = Framing.view ~max_len ~max_total_len () in
  match Ingress.validate v (Framing.read v integrity dg) with
  | Some r -> Drop (Ingress.reason_name r)
  | None -> new_outcome v

let new_engine integrity ~max_len ~max_total_len dg =
  let v = Framing.view ~max_len ~max_total_len () in
  match Ingress.validate v (Framing.read_layout v integrity dg) with
  | Some r -> Drop (Ingress.reason_name r)
  | None -> new_serve integrity ~max_len ~max_total_len dg

let new_transport integrity dg =
  let v = Framing.view () in
  match Framing.read v integrity dg with
  | Framing.Bad_crc -> Drop "bad_crc"
  | Framing.Valid -> new_outcome v
  | _ -> Drop "ignored"

(* On the transport path the reader applies stage 0's layout rules too.
   These are the cases where that changes the outcome: the separate
   parsers take the datagram, the reader rejects it (and the transport
   ignores it). *)
let named_difference dg ~body oracle_out =
  let u16 off = Bytebuf.get_uint8 dg off lsl 8 lor Bytebuf.get_uint8 dg (off + 1) in
  match oracle_out with
  | Frag f when f.nfrags = 1 && (f.frag_off <> 0 || String.length f.chunk <> f.total_len)
    ->
      Some "one-fragment datagram whose chunk is not total_len bytes from offset 0"
  | Frag f when f.total_len < Adu.header_size ->
      Some "fragment claiming an ADU shorter than the ADU header"
  | Ctl (Oracle.Close _) when body > 7 -> Some "CLOSE with trailing bytes"
  | Ctl (Oracle.Done _) when body > 3 -> Some "DONE with trailing bytes"
  | Ctl (Oracle.Nack _) when body > 9 + (4 * u16 7) -> Some "NACK with trailing bytes"
  | Ctl (Oracle.Gone _) when body > 5 + (4 * u16 3) -> Some "GONE with trailing bytes"
  | Fec b when String.length b < 2 ->
      Some "FEC tag with under 2 block bytes (a runt; too short for Fec.push anyway)"
  | _ -> None

(* --- datagrams from the writers, and their mutations --- *)

let integrities = [| None; Some Checksum.Kind.Crc32; Some Checksum.Kind.Internet |]

let gen_name =
  QCheck.Gen.(
    let* stream = int_bound 0xFFFF in
    let* index = int_bound 0xFFFFFF in
    let* dest_off = int_bound 1_000_000 in
    let* dest_len = int_bound 70000 in
    let* ts = int_bound 0x3FFFFFFF in
    return
      (Adu.name ~dest_off ~dest_len ~timestamp_us:(Int64.of_int (ts * 977))
         ~stream ~index ()))

let gen_payload =
  QCheck.Gen.(
    let* n = frequency [ (1, int_bound 200); (1, int_bound 6000) ] in
    let* seed = int_bound 255 in
    return (String.init n (fun i -> Char.chr (((i * 31) + seed) land 0xff))))

(* One datagram from a writer, sealed under the given integrity. *)
let gen_written integrity =
  QCheck.Gen.(
    let* name = gen_name in
    let stream = name.Adu.stream in
    let* payload = gen_payload in
    let plen = String.length payload in
    let* which = int_bound 6 in
    match which with
    | 0 | 1 ->
        (* A fragment of a whole ADU: possibly the only one. *)
        let encoded = Adu.encode (Adu.make name (Bytebuf.of_string payload)) in
        let total_len = Bytebuf.length encoded in
        let* mtu = int_range 40 2000 in
        let mtu = Framing.fragment_header_size + 1 + mtu in
        let nf = Framing.fragment_count ~mtu total_len in
        let* frag_idx = int_bound (nf - 1) in
        let dg = Bytebuf.create (mtu + 4) in
        let len =
          Framing.write_fragment integrity dg ~mtu ~stream ~index:name.Adu.index
            encoded ~total_len ~frag_idx
        in
        return (Bytebuf.take dg len)
    | 2 ->
        let pos = Framing.fragment_header_size + Adu.header_size in
        let dg = Bytebuf.create (pos + plen + 4) in
        Bytebuf.blit_from_string payload ~src_pos:0 ~dst:dg ~dst_pos:pos
          ~len:plen;
        let len =
          Framing.seal_single integrity dg ~stream name ~plen
            ~payload_crc:
              (Int32.to_int (Checksum.Crc32.digest_string payload)
              land 0xFFFFFFFF)
        in
        return (Bytebuf.take dg len)
    | _ ->
        let* total = int_bound 0xFFFFFF in
        let* have_below = int_bound 0xFFFFFF in
        let* indices = list_size (int_bound 20) (int_bound 0xFFFFFF) in
        let write =
          match which with
          | 3 -> Ctl.write_close ~stream ~total
          | 4 -> Ctl.write_done ~stream
          | 5 -> fun b -> Ctl.write_nack b ~stream ~have_below indices
          | _ -> fun b -> Ctl.write_gone b ~stream indices
        in
        let dg = Bytebuf.create 200 in
        return (Bytebuf.take dg (Ctl.seal_in_place integrity dg ~len:(write dg))))

let flip dg bits =
  let b = Bytebuf.copy dg in
  List.iter
    (fun bit ->
      let n = Bytebuf.length b in
      if n > 0 then
        let i = bit / 8 mod n in
        Bytebuf.set_uint8 b i (Bytebuf.get_uint8 b i lxor (1 lsl (bit mod 8))))
    bits;
  b

(* Random bytes led by a known kind byte, so the noise reaches the
   per-kind checks. *)
let gen_noise =
  QCheck.Gen.(
    let* kind = oneofl [ 0xAD; 0xC1; 0xC2; 0xC3; 0xC4; 0xFE; 0x00; 0x99 ] in
    let* rest = string_size (int_bound 120) in
    return (Bytebuf.of_string (String.make 1 (Char.chr kind) ^ rest)))

type case = { integrity : int; dg : Bytebuf.t; limits : int * int }

let gen_case =
  QCheck.Gen.(
    let* integrity = int_bound 2 in
    let* base =
      frequency
        [ (4, gen_written integrities.(integrity)); (1, gen_noise) ]
    in
    let* mutation = int_bound 3 in
    let* bits = list_size (int_range 1 3) (int_bound 100_000) in
    let* cut = int_bound 10_000 in
    let dg =
      match mutation with
      | 0 | 1 -> base
      | 2 -> flip base bits
      | _ -> Bytebuf.take base (cut mod (Bytebuf.length base + 1))
    in
    let* limits =
      oneofl [ (max_int, max_int); (1500, 4096 + 36); (8192, 6000 + 36) ]
    in
    return { integrity; dg; limits })

let arb_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "integrity %d, %d bytes: %s" c.integrity
        (Bytebuf.length c.dg)
        (String.concat " "
           (List.init (min 48 (Bytebuf.length c.dg)) (fun i ->
                Printf.sprintf "%02x" (Bytebuf.get_uint8 c.dg i)))))
    gen_case

(* Every truncation of the datagram as well as the datagram itself. *)
let with_truncations dg f =
  let n = Bytebuf.length dg in
  let step = if n <= 400 then 1 else n / 200 in
  let rec go l = l > n || (f (Bytebuf.take dg l) && go (l + step)) in
  go 0 && f dg

let prop_reader_matches_serve_chain =
  QCheck.Test.make ~name:"reader = unseal, stage 0 and the parsers"
    ~count:1000 arb_case (fun c ->
      let integrity = integrities.(c.integrity) in
      let max_len, max_total_len = c.limits in
      with_truncations c.dg (fun dg ->
          let o = oracle_serve integrity ~max_len ~max_total_len dg
          and n = new_serve integrity ~max_len ~max_total_len dg in
          let oe = oracle_engine integrity ~max_len ~max_total_len dg
          and ne = new_engine integrity ~max_len ~max_total_len dg in
          (o = n
          || QCheck.Test.fail_reportf "oracle %s, reader %s" (pp_outcome o)
               (pp_outcome n))
          && (oe = ne
             || QCheck.Test.fail_reportf "stage 0 first: oracle %s, reader %s"
                  (pp_outcome oe) (pp_outcome ne))))

let prop_reader_matches_transport_chain =
  QCheck.Test.make ~name:"reader = the transport's chain, but for stage 0's rules"
    ~count:1000 arb_case (fun c ->
      let integrity = integrities.(c.integrity) in
      let trailer = match integrity with Some _ -> 4 | None -> 0 in
      with_truncations c.dg (fun dg ->
          let o = oracle_transport integrity dg and n = new_transport integrity dg in
          o = n
          || n = Drop "ignored"
             && named_difference dg ~body:(Bytebuf.length dg - trailer) o
                <> None
          || QCheck.Test.fail_reportf "oracle %s, reader %s" (pp_outcome o)
               (pp_outcome n)))

(* Each named difference, built directly: the reference chain takes it,
   the reader refuses it. *)
let test_named_differences () =
  let integrity = Some Checksum.Kind.Crc32 in
  let seal body = Ctl.seal integrity (Bytebuf.of_string body) in
  let set_total b v = Bytebuf.set_be b 11 v ~bytes:4 in
  let cases =
    [
      ( "one-fragment datagram whose chunk is not total_len bytes from offset 0",
        (* A whole 42-byte ADU in one fragment that claims 52. *)
        (let b =
           List.hd
             (Framing.fragment ~mtu:1000
                (Adu.make (Adu.name ~stream:5 ~index:1 ()) (Bytebuf.of_string "abcdef")))
         in
         set_total b 52;
         Ctl.seal integrity b) );
      ( "fragment claiming an ADU shorter than the ADU header",
        (* The first of four 11-byte chunks, made to claim a 20-byte ADU. *)
        (let b = List.hd (Framing.fragment ~mtu:30 (Adu.make (Adu.name ~stream:5 ~index:1 ()) Bytebuf.empty)) in
         set_total b 20;
         Ctl.seal integrity b) );
      ("CLOSE with trailing bytes", seal "\xC2\x00\x05\x00\x00\x00\x02!");
      ("DONE with trailing bytes", seal "\xC3\x00\x05!");
      ("NACK with trailing bytes", seal "\xC1\x00\x05\x00\x00\x00\x00\x00\x00!");
      ("GONE with trailing bytes", seal "\xC4\x00\x05\x00\x00!");
      ( "FEC tag with under 2 block bytes (a runt; too short for Fec.push anyway)",
        seal "\xFE\x01" );
    ]
  in
  List.iter
    (fun (name, dg) ->
      let o = oracle_transport integrity dg in
      Alcotest.(check bool) (name ^ ": the reference chain takes it") true (o <> Drop "ignored");
      Alcotest.(check string) (name ^ ": reader refuses it") "drop ignored"
        (pp_outcome (new_transport integrity dg));
      Alcotest.(check (option string)) (name ^ ": named") (Some name)
        (named_difference dg ~body:(Bytebuf.length dg - 4) o))
    cases

(* --- the reader allocates nothing --- *)

(* GC words of one call, after two warm-up calls. *)
let words f =
  f ();
  f ();
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* The writer's half: an ADU header, and a whole sealed one-fragment
   datagram around a 64-byte payload, cost no GC word. *)
let test_writer_allocates_nothing () =
  let name =
    Adu.name ~dest_off:4096 ~dest_len:64 ~timestamp_us:77L ~stream:9 ~index:3 ()
  in
  let pos = Framing.fragment_header_size + Adu.header_size in
  let dg = Bytebuf.create 256 in
  for j = 0 to 63 do
    Bytebuf.set_uint8 dg (pos + j) ((j * 5) land 0xff)
  done;
  let payload_crc = Checksum.Crc32.digest_sub dg ~pos ~len:64 in
  Alcotest.(check int) "Adu.write_header" 0
    (words (fun () ->
         Adu.write_header dg ~pos:Framing.fragment_header_size name ~plen:64
           ~payload_crc));
  let len = ref 0 in
  Alcotest.(check int) "Framing.seal_single, 64-byte ADU" 0
    (words (fun () ->
         len :=
           Framing.seal_single (Some Checksum.Kind.Crc32) dg ~stream:9 name
             ~plen:64 ~payload_crc));
  let v = Framing.view () in
  Alcotest.(check bool) "the datagram reads back" true
    (Framing.read v (Some Checksum.Kind.Crc32) (Bytebuf.take dg !len)
     = Framing.Valid
    && Adu.read_header v.Framing.adu v.Framing.dg ~pos:v.Framing.chunk_off
         ~len:v.Framing.chunk_len)

let test_reader_allocates_nothing () =
  let name = Adu.name ~dest_off:4096 ~dest_len:64 ~timestamp_us:77L ~stream:9 ~index:3 () in
  let payload = Bytebuf.of_string (String.init 3000 (fun i -> Char.chr (i land 0xff))) in
  let encoded = Adu.encode (Adu.make name payload) in
  let total_len = Bytebuf.length encoded in
  List.iter
    (fun integrity ->
      let label what =
        Printf.sprintf "%s, integrity %s" what
          (match integrity with
          | Some k -> Checksum.Kind.to_string k
          | None -> "none")
      in
      let sealed write =
        let dg = Bytebuf.create 4096 in
        Bytebuf.take dg (Ctl.seal_in_place integrity dg ~len:(write dg))
      in
      let single =
        let dg = Bytebuf.create 4096 in
        Bytebuf.take dg
          (Framing.write_fragment integrity dg ~mtu:4000 ~stream:9 ~index:3
             encoded ~total_len ~frag_idx:0)
      and middle =
        let dg = Bytebuf.create 4096 in
        Bytebuf.take dg
          (Framing.write_fragment integrity dg ~mtu:1000 ~stream:9 ~index:3
             encoded ~total_len ~frag_idx:1)
      in
      let v = Framing.view () in
      let sink = ref 0 in
      let read kind dg then_ () =
        match Framing.read v integrity dg with
        | Framing.Valid when v.Framing.kind = kind -> then_ ()
        | _ -> Alcotest.fail (label "a datagram does not read")
      in
      let cases =
        [
          ( "one-fragment datagram",
            read Framing.Data single (fun () ->
                if
                  Adu.read_header v.Framing.adu v.Framing.dg
                    ~pos:v.Framing.chunk_off ~len:v.Framing.chunk_len
                then sink := !sink + v.Framing.adu.Adu.h_plen
                else Alcotest.fail "the ADU does not read") );
          ( "middle fragment",
            read Framing.Data middle (fun () -> sink := !sink + v.Framing.frag_off) );
          ( "CLOSE",
            read Framing.Close
              (sealed (Ctl.write_close ~stream:9 ~total:12))
              (fun () -> sink := !sink + v.Framing.total) );
          ( "DONE",
            read Framing.Done (sealed (Ctl.write_done ~stream:9)) (fun () ->
                sink := !sink + v.Framing.stream) );
          ( "NACK of 8 indices",
            read Framing.Nack
              (sealed (fun b ->
                   Ctl.write_nack b ~stream:9 ~have_below:4
                     [ 4; 5; 7; 9; 10; 11; 30; 31 ]))
              (fun () ->
                for i = 0 to v.Framing.count - 1 do
                  sink := !sink + Framing.index_at v i
                done) );
        ]
      in
      List.iter
        (fun (what, run) -> Alcotest.(check int) (label what) 0 (words run))
        cases;
      ignore (Sys.opaque_identity !sink))
    [ None; Some Checksum.Kind.Crc32 ]

let () =
  Alcotest.run "reader"
    [
      ( "oracle",
        [
          qcheck prop_reader_matches_serve_chain;
          qcheck prop_reader_matches_transport_chain;
          Alcotest.test_case "named differences" `Quick test_named_differences;
        ] );
      ( "words",
        [
          Alcotest.test_case "reader allocates nothing" `Quick
            test_reader_allocates_nothing;
          Alcotest.test_case "writer allocates nothing" `Quick
            test_writer_allocates_nothing;
        ] );
    ]
