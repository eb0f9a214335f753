open Bufkit
open Wire

let qcheck t = QCheck_alcotest.to_alcotest t
let hexbuf b =
  String.concat " "
    (List.init (Bytebuf.length b) (fun i -> Printf.sprintf "%02x" (Bytebuf.get_uint8 b i)))

(* A generator of abstract values (bounded depth, 32-bit ints). *)
let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let int32ish = map (fun i -> Value.Int (Int32.to_int i)) int32 in
  let leaf =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        int32ish;
        map (fun i -> Value.Int64 i) int64;
        map (fun s -> Value.Octets s) (string_size (0 -- 20));
        map
          (fun s -> Value.Utf8 s)
          (string_size ~gen:(char_range 'a' 'z') (0 -- 12));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 1,
            map (fun vs -> Value.List vs) (list_size (0 -- 4) (node (depth - 1)))
          );
          ( 1,
            map
              (fun vs ->
                Value.Record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) vs))
              (list_size (1 -- 3) (node (depth - 1))) );
        ]
  in
  node 3

let arb_value = QCheck.make ~print:(Format.asprintf "%a" Value.pp) value_gen

(* --- Value --- *)

let test_value_helpers () =
  let v = Value.int_array [| 1; 2; 3 |] in
  (match Value.to_int_array v with
  | Some a -> Alcotest.(check (array int)) "int_array round" [| 1; 2; 3 |] a
  | None -> Alcotest.fail "to_int_array");
  Alcotest.(check bool) "non-array" true
    (Value.to_int_array (Value.List [ Value.Bool true ]) = None);
  Alcotest.(check int) "abstract size ints" 12 (Value.abstract_size v);
  let o = Value.octet_string 100 in
  Alcotest.(check int) "octet_string size" 100 (Value.abstract_size o);
  Alcotest.(check bool) "octet_string deterministic" true
    (Value.equal o (Value.octet_string 100))

let test_value_strip_names () =
  let v =
    Value.Record
      [ ("a", Value.Int 1); ("b", Value.List [ Value.Record [ ("c", Value.Null) ] ]) ]
  in
  Alcotest.(check bool) "strip" true
    (Value.equal (Value.strip_names v)
       (Value.List [ Value.Int 1; Value.List [ Value.List [ Value.Null ] ] ]))

(* --- BER --- *)

let test_ber_known_encodings () =
  let cases =
    [
      (Value.Null, "05 00");
      (Value.Bool true, "01 01 ff");
      (Value.Bool false, "01 01 00");
      (Value.Int 0, "02 01 00");
      (Value.Int 127, "02 01 7f");
      (Value.Int 128, "02 02 00 80");
      (Value.Int (-128), "02 01 80");
      (Value.Int (-129), "02 02 ff 7f");
      (Value.Octets "ab", "04 02 61 62");
      (Value.Utf8 "a", "0c 01 61");
      (Value.List [ Value.Int 1 ], "30 03 02 01 01");
    ]
  in
  List.iter
    (fun (v, expect) ->
      Alcotest.(check string)
        (Format.asprintf "%a" Value.pp v)
        expect
        (hexbuf (Ber.encode v)))
    cases

let test_ber_long_length () =
  let v = Value.Octets (String.make 200 'x') in
  let b = Ber.encode v in
  Alcotest.(check int) "tag" 0x04 (Bytebuf.get_uint8 b 0);
  Alcotest.(check int) "long form" 0x81 (Bytebuf.get_uint8 b 1);
  Alcotest.(check int) "length" 200 (Bytebuf.get_uint8 b 2);
  Alcotest.(check int) "total" 203 (Bytebuf.length b)

let test_ber_decode_errors () =
  let expect_err what s =
    match Ber.decode (Bytebuf.of_string s) with
    | _ -> Alcotest.fail (what ^ ": expected Decode_error")
    | exception Ber.Decode_error _ -> ()
  in
  expect_err "truncated" "\x02\x04\x01";
  expect_err "trailing" "\x05\x00\x00";
  expect_err "bad tag" "\x13\x01\x00";
  expect_err "indefinite" "\x30\x80\x05\x00\x00\x00";
  expect_err "bool length" "\x01\x02\x00\x00"

let prop_ber_round_trip =
  QCheck.Test.make ~name:"ber: decode(encode v) = canonical v" ~count:500 arb_value
    (fun v -> Value.equal (Ber.decode (Ber.encode v)) (Value.canonical v))

let prop_ber_sizeof =
  QCheck.Test.make ~name:"ber: sizeof = |encode|" ~count:500 arb_value (fun v ->
      Ber.sizeof v = Bytebuf.length (Ber.encode v))

let prop_ber_interpretive_equal =
  QCheck.Test.make ~name:"ber: interpretive = tuned" ~count:300 arb_value
    (fun v -> Bytebuf.equal (Ber.encode_interpretive v) (Ber.encode v))

let prop_ber_int_array_fast_path =
  QCheck.Test.make ~name:"ber: int-array fast path" ~count:300
    QCheck.(array_of_size Gen.(0 -- 50) (map Int32.to_int int32))
    (fun a ->
      let fast = Ber.encode_int_array a in
      let slow = Ber.encode (Value.int_array a) in
      Bytebuf.equal fast slow && Ber.decode_int_array fast = a)

let prop_ber_fused_checksum =
  QCheck.Test.make ~name:"ber: fused convert+checksum" ~count:300
    QCheck.(array_of_size Gen.(0 -- 60) (map Int32.to_int int32))
    (fun a ->
      let encoded, cksum = Ber.encode_int_array_with_checksum a in
      Bytebuf.equal encoded (Ber.encode_int_array a)
      && cksum = Checksum.Internet.digest encoded)

let test_ber_decode_prefix () =
  let b = Bytebuf.concat [ Ber.encode (Value.Int 7); Bytebuf.of_string "rest" ] in
  let v, used = Ber.decode_prefix b in
  Alcotest.(check bool) "value" true (Value.equal v (Value.Int 7));
  Alcotest.(check int) "consumed" 3 used

(* --- XDR --- *)

let test_xdr_known_encodings () =
  Alcotest.(check string) "int 1" "00 00 00 01"
    (hexbuf (Xdr.encode Xdr.S_int (Value.Int 1)));
  Alcotest.(check string) "int -1" "ff ff ff ff"
    (hexbuf (Xdr.encode Xdr.S_int (Value.Int (-1))));
  Alcotest.(check string) "string a (padded)" "00 00 00 01 61 00 00 00"
    (hexbuf (Xdr.encode Xdr.S_string (Value.Utf8 "a")));
  Alcotest.(check string) "bool true" "00 00 00 01"
    (hexbuf (Xdr.encode Xdr.S_bool (Value.Bool true)))

let test_xdr_int_range () =
  match Xdr.encode Xdr.S_int (Value.Int 0x100000000) with
  | _ -> Alcotest.fail "expected range error"
  | exception Xdr.Error _ -> ()

let prop_xdr_round_trip =
  QCheck.Test.make ~name:"xdr: decode(encode v) = canonical v" ~count:500 arb_value
    (fun v ->
      let schema = Xdr.schema_of_value v in
      Value.equal (Xdr.decode schema (Xdr.encode schema v)) (Value.canonical v))

let prop_xdr_sizeof =
  QCheck.Test.make ~name:"xdr: sizeof = |encode|, word aligned" ~count:500
    arb_value (fun v ->
      let schema = Xdr.schema_of_value v in
      let b = Xdr.encode schema v in
      Xdr.sizeof schema v = Bytebuf.length b && Bytebuf.length b mod 4 = 0)

let prop_xdr_int_array =
  QCheck.Test.make ~name:"xdr: int-array fast path" ~count:300
    QCheck.(array_of_size Gen.(0 -- 50) (map Int32.to_int int32))
    (fun a ->
      let fast = Xdr.encode_int_array a in
      let via_schema = Xdr.encode (Xdr.S_array Xdr.S_int) (Value.int_array a) in
      Bytebuf.equal fast via_schema && Xdr.decode_int_array fast = a)

let test_xdr_schema_mismatch () =
  match Xdr.encode Xdr.S_int (Value.Bool true) with
  | _ -> Alcotest.fail "expected mismatch error"
  | exception Xdr.Error _ -> ()

(* --- LWTS --- *)

let prop_lwts_round_trip =
  QCheck.Test.make ~name:"lwts: decode(encode v) = canonical v" ~count:500 arb_value
    (fun v ->
      let schema = Xdr.schema_of_value v in
      Value.equal (Lwts.decode schema (Lwts.encode schema v))
        (Value.canonical v))

let prop_lwts_never_longer_than_xdr =
  QCheck.Test.make ~name:"lwts: encoding <= xdr encoding" ~count:300 arb_value
    (fun v ->
      let schema = Xdr.schema_of_value v in
      Lwts.sizeof schema v <= Xdr.sizeof schema v)

let prop_lwts_int_array =
  QCheck.Test.make ~name:"lwts: int-array fast path" ~count:300
    QCheck.(array_of_size Gen.(0 -- 50) (map Int32.to_int int32))
    (fun a ->
      let fast = Lwts.encode_int_array a in
      let via_schema = Lwts.encode (Xdr.S_array Xdr.S_int) (Value.int_array a) in
      Bytebuf.equal fast via_schema && Lwts.decode_int_array fast = a)

let test_int_array_wire_sizes () =
  (* BER spends per-element tag+length bytes; XDR spends fixed 4 bytes;
     LWTS matches XDR for int arrays. *)
  let a = Array.init 100 (fun i -> i - 50) in
  let ber = Bytebuf.length (Ber.encode_int_array a) in
  let xdr = Bytebuf.length (Xdr.encode_int_array a) in
  let lwts = Bytebuf.length (Lwts.encode_int_array a) in
  Alcotest.(check int) "xdr = lwts" xdr lwts;
  Alcotest.(check bool) "ber smaller here (1-byte ints)" true (ber < xdr);
  let big = Array.make 100 0x7FFFFFFF in
  Alcotest.(check bool) "ber larger for wide ints" true
    (Bytebuf.length (Ber.encode_int_array big)
    > Bytebuf.length (Xdr.encode_int_array big))

(* --- Sink-driven encoders --- *)

(* Drive a sink over a fresh buffer of the encoder's [sizeof], exactly as
   the fused marshal does before its stage chain runs. *)
let sink_encode n drive =
  let out = Bytebuf.create n in
  drive (Sink.create ~block:ignore out);
  out

let prop_ber_emit_equal =
  QCheck.Test.make ~name:"ber: emit = encode" ~count:500 arb_value
    (fun v ->
      Bytebuf.equal (Ber.encode v) (sink_encode (Ber.sizeof v) (Ber.emit v)))

let prop_xdr_emit_equal =
  QCheck.Test.make ~name:"xdr: emit = encode" ~count:500 arb_value
    (fun v ->
      let schema = Xdr.schema_of_value v in
      Bytebuf.equal
        (Xdr.encode schema v)
        (sink_encode (Xdr.sizeof schema v) (Xdr.emit schema v)))

let test_sink_block_hook () =
  (* The hook sees each completed 64-byte block exactly once, in order,
     once all of its bytes are stored — a 200-byte string completes
     several blocks in one write — and never the partial last block. *)
  let v =
    Value.Record
      [
        ("a", Value.Utf8 (String.make 200 'q'));
        ("b", Value.int_array (Array.init 30 (fun i -> i * 1000)));
        ("c", Value.Octets "xyz");
      ]
  in
  let schema = Xdr.schema_of_value v in
  List.iter
    (fun (label, expected, drive) ->
      let n = Bytebuf.length expected in
      let out = Bytebuf.create n in
      let seen = ref [] in
      let block off =
        Alcotest.(check string)
          (Printf.sprintf "%s: block %d complete" label off)
          (Bytebuf.to_string (Bytebuf.sub expected ~pos:off ~len:64))
          (Bytebuf.to_string (Bytebuf.sub out ~pos:off ~len:64));
        seen := off :: !seen
      in
      drive (Sink.create ~block out);
      Alcotest.(check (list int))
        (label ^ ": one call per whole block, in order")
        (List.init (n / 64) (fun k -> 64 * k))
        (List.rev !seen))
    [
      ("ber", Ber.encode v, Ber.emit v);
      ("xdr", Xdr.encode schema v, Xdr.emit schema v);
      ("compiled xdr", Xdr.encode schema v, fun sink ->
          Schema.emit (Schema.prog_of_xdr schema) sink v);
    ]

let test_words_boundaries () =
  (* 32-bit extremes, empties, and strings straddling word boundaries. *)
  let cases =
    [
      Value.Int 0x7FFFFFFF;
      Value.Int (-0x80000000);
      Value.Int64 Int64.min_int;
      Value.List [];
      Value.Utf8 "";
      Value.Octets "";
      Value.Utf8 "1234567";
      Value.Octets "12345678";
      Value.Record [ ("a", Value.Octets "123456789") ];
    ]
  in
  List.iter
    (fun v ->
      let label = Format.asprintf "%a" Value.pp v in
      Alcotest.(check string)
        ("ber " ^ label)
        (hexbuf (Ber.encode v))
        (hexbuf (sink_encode (Ber.sizeof v) (Ber.emit v)));
      let schema = Xdr.schema_of_value v in
      Alcotest.(check string)
        ("xdr " ^ label)
        (hexbuf (Xdr.encode schema v))
        (hexbuf (sink_encode (Xdr.sizeof schema v) (Xdr.emit schema v))))
    cases

let test_xdr_int_array_range () =
  (* Same 32-bit discipline as schema_of_value — never silent truncation. *)
  match Xdr.encode_int_array [| 1; 0x100000000 |] with
  | _ -> Alcotest.fail "expected range error"
  | exception Xdr.Error _ -> ()

let prop_ber_int_array_full_range =
  QCheck.Test.make ~name:"ber: int-array full int range" ~count:300
    QCheck.(array_of_size Gen.(0 -- 30) int)
    (fun a -> Ber.decode_int_array (Ber.encode_int_array a) = a)

let arb_garbage = QCheck.(string_gen_of_size Gen.(0 -- 12) Gen.char)

let prop_xdr_decode_prefix_garbage =
  QCheck.Test.make ~name:"xdr: decode_prefix ignores trailing garbage"
    ~count:300
    QCheck.(pair arb_value arb_garbage)
    (fun (v, junk) ->
      let schema = Xdr.schema_of_value v in
      let enc = Xdr.encode schema v in
      let got, used =
        Xdr.decode_prefix schema (Bytebuf.concat [ enc; Bytebuf.of_string junk ])
      in
      Value.equal got (Value.canonical v) && used = Bytebuf.length enc)

let prop_ber_decode_prefix_garbage =
  QCheck.Test.make ~name:"ber: decode_prefix ignores trailing garbage"
    ~count:300
    QCheck.(pair arb_value arb_garbage)
    (fun (v, junk) ->
      let enc = Ber.encode v in
      let got, used =
        Ber.decode_prefix (Bytebuf.concat [ enc; Bytebuf.of_string junk ])
      in
      Value.equal got (Value.canonical v) && used = Bytebuf.length enc)

let test_encode_allocation () =
  (* The hoisted encoders build the result in exactly one buffer — no
     per-element or per-field intermediates. *)
  let v =
    Value.List
      [
        Value.Record [ ("a", Value.Int 5); ("b", Value.Utf8 "hello") ];
        Value.int_array [| 1; 2; 3 |];
        Value.Octets (String.make 40 'x');
      ]
  in
  let schema = Xdr.schema_of_value v in
  let before = Bytebuf.created_total () in
  ignore (Ber.encode v);
  Alcotest.(check int) "ber: one buffer" 1 (Bytebuf.created_total () - before);
  let before = Bytebuf.created_total () in
  ignore (Xdr.encode schema v);
  Alcotest.(check int) "xdr: one buffer" 1 (Bytebuf.created_total () - before)

let test_ber_sizeof_allocation () =
  (* Sizing a SEQUENCE OF INTEGER costs arithmetic only: no closure per
     INTEGER length search, no per-element box. *)
  let v = Value.List (List.init 1024 (fun i -> Value.Int ((i * 7919) - 4000000))) in
  ignore (Ber.sizeof v);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Ber.sizeof v));
  Alcotest.(check int) "ber: sizeof allocates 0 words" 0
    (int_of_float (Gc.minor_words () -. before))

(* --- Syntax --- *)

let all_syntaxes v =
  List.filter_map (fun n -> Syntax.for_value n v) [ "raw"; "ber"; "xdr"; "lwts" ]

let prop_syntax_uniform_round_trip =
  QCheck.Test.make ~name:"syntax: encode/decode round trip" ~count:300 arb_value
    (fun v ->
      List.for_all
        (fun syntax ->
          let decoded = Syntax.decode syntax (Syntax.encode syntax v) in
          match syntax with
          | Syntax.Raw -> Value.equal decoded v
          | Syntax.Ber | Syntax.Xdr _ | Syntax.Lwts _ ->
              Value.equal decoded (Value.canonical v))
        (all_syntaxes v))

let prop_syntax_sizeof =
  QCheck.Test.make ~name:"syntax: sizeof = |encode|" ~count:300 arb_value
    (fun v ->
      List.for_all
        (fun syntax ->
          Syntax.sizeof syntax v = Bytebuf.length (Syntax.encode syntax v))
        (all_syntaxes v))

let test_syntax_raw_only_octets () =
  Alcotest.(check bool) "raw refuses ints" true
    (Syntax.for_value "raw" (Value.Int 1) = None);
  match Syntax.encode Syntax.Raw (Value.Int 1) with
  | _ -> Alcotest.fail "expected error"
  | exception Syntax.Error _ -> ()

let test_syntax_negotiate () =
  let sample = Value.int_array [| 1; 2 |] in
  (match
     Syntax.negotiate ~sender:[ "lwts"; "ber" ] ~receiver:[ "ber"; "lwts" ] ~sample
   with
  | Some s -> Alcotest.(check string) "sender preference wins" "lwts" (Syntax.name s)
  | None -> Alcotest.fail "negotiation failed");
  (match Syntax.negotiate ~sender:[ "raw" ] ~receiver:[ "raw" ] ~sample with
  | None -> ()
  | Some _ -> Alcotest.fail "raw should not carry ints");
  match Syntax.negotiate ~sender:[ "xdr" ] ~receiver:[ "ber" ] ~sample with
  | None -> ()
  | Some _ -> Alcotest.fail "no common syntax"

let test_syntax_placements () =
  let adus = [ Value.int_array [| 1 |]; Value.int_array [| 2; 3 |] ] in
  match Syntax.placements Syntax.Ber adus with
  | [ (0, l1); (o2, l2) ] ->
      Alcotest.(check int) "first length" (Ber.sizeof (List.nth adus 0)) l1;
      Alcotest.(check int) "second offset" l1 o2;
      Alcotest.(check int) "second length" (Ber.sizeof (List.nth adus 1)) l2
  | _ -> Alcotest.fail "placement shape"

let test_schema_driven_prefix_decode () =
  (* Prefix decoding against a schema: codecs consume exactly their value
     and report it, so multiple values can share one buffer. *)
  let v1 = Value.Int 42 and v2 = Value.Utf8 "tail" in
  let schema1 = Xdr.schema_of_value v1 in
  let joined = Bytebuf.concat [ Xdr.encode schema1 v1; Bytebuf.of_string "XYZW" ] in
  let got, used = Xdr.decode_prefix schema1 joined in
  Alcotest.(check bool) "xdr value" true (Value.equal got v1);
  Alcotest.(check int) "xdr consumed" 4 used;
  let schema2 = Xdr.schema_of_value v2 in
  let joined2 = Bytebuf.concat [ Lwts.encode schema2 v2; Bytebuf.of_string "Q" ] in
  let got2, used2 = Lwts.decode_prefix schema2 joined2 in
  Alcotest.(check bool) "lwts value" true (Value.equal got2 v2);
  Alcotest.(check int) "lwts consumed" 8 used2

let test_pp_schema_smoke () =
  let s =
    Xdr.S_struct [ Xdr.S_int; Xdr.S_array Xdr.S_string; Xdr.S_hyper ]
  in
  let printed = Format.asprintf "%a" Xdr.pp_schema s in
  let contains needle =
    let n = String.length needle and m = String.length printed in
    let rec go i = i + n <= m && (String.sub printed i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions int" true (contains "int");
  Alcotest.(check bool) "mentions hyper" true (contains "hyper");
  Alcotest.(check bool) "array marker" true (contains "string<><>" || contains "string<>")

(* --- Text (network newline conversion) --- *)

let internal_text_gen =
  QCheck.Gen.(string_size ~gen:(oneof [ char_range 'a' 'z'; return '\n'; return ' ' ]) (0 -- 60))

let arb_text = QCheck.make ~print:(Printf.sprintf "%S") internal_text_gen

let test_text_basic () =
  let b = Text.to_network "a\nb\n" in
  Alcotest.(check string) "crlf" "a\r\nb\r\n" (Bytebuf.to_string b);
  Alcotest.(check int) "network_size" 6 (Text.network_size "a\nb\n")

let test_text_errors () =
  (match Text.to_network "bad\rcr" with
  | _ -> Alcotest.fail "bare CR accepted"
  | exception Invalid_argument _ -> ());
  (match Text.of_network (Bytebuf.of_string "a\nb") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare LF accepted");
  match Text.of_network (Bytebuf.of_string "a\rb") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare CR accepted"

let prop_text_round_trip =
  QCheck.Test.make ~name:"text: of_network(to_network s) = s" ~count:500 arb_text
    (fun s ->
      match Text.of_network (Text.to_network s) with
      | Ok back -> back = s
      | Error _ -> false)

let prop_text_size_changes =
  QCheck.Test.make ~name:"text: network size = len + newlines" ~count:300 arb_text
    (fun s ->
      let newlines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s in
      Text.network_size s = String.length s + newlines
      && Bytebuf.length (Text.to_network s) = Text.network_size s)

let prop_text_placement =
  (* The paper's point: positions in the network stream are computable
     only through the conversion. Concatenating the converted ADUs at
     their sender-computed placements equals converting the whole
     document. *)
  QCheck.Test.make ~name:"text: placement = stream positions" ~count:300
    QCheck.(small_list arb_text)
    (fun adus ->
      let whole = Text.to_network (String.concat "" adus) in
      let places = Text.placement adus in
      List.length places = List.length adus
      && List.for_all2
           (fun s (off, len) ->
             Bytebuf.equal (Text.to_network s)
               (Bytebuf.sub whole ~pos:off ~len))
           adus places)

let () =
  Alcotest.run "wire"
    [
      ( "value",
        [
          Alcotest.test_case "helpers" `Quick test_value_helpers;
          Alcotest.test_case "strip names" `Quick test_value_strip_names;
        ] );
      ( "ber",
        [
          Alcotest.test_case "known encodings" `Quick test_ber_known_encodings;
          Alcotest.test_case "long length" `Quick test_ber_long_length;
          Alcotest.test_case "decode errors" `Quick test_ber_decode_errors;
          Alcotest.test_case "decode prefix" `Quick test_ber_decode_prefix;
          qcheck prop_ber_round_trip;
          qcheck prop_ber_sizeof;
          qcheck prop_ber_interpretive_equal;
          qcheck prop_ber_int_array_fast_path;
          qcheck prop_ber_fused_checksum;
        ] );
      ( "xdr",
        [
          Alcotest.test_case "known encodings" `Quick test_xdr_known_encodings;
          Alcotest.test_case "int range" `Quick test_xdr_int_range;
          Alcotest.test_case "schema mismatch" `Quick test_xdr_schema_mismatch;
          qcheck prop_xdr_round_trip;
          qcheck prop_xdr_sizeof;
          qcheck prop_xdr_int_array;
        ] );
      ( "lwts",
        [
          Alcotest.test_case "wire sizes" `Quick test_int_array_wire_sizes;
          qcheck prop_lwts_round_trip;
          qcheck prop_lwts_never_longer_than_xdr;
          qcheck prop_lwts_int_array;
        ] );
      ( "words",
        [
          Alcotest.test_case "boundary cases" `Quick test_words_boundaries;
          Alcotest.test_case "sink block hook" `Quick test_sink_block_hook;
          Alcotest.test_case "xdr int-array range" `Quick test_xdr_int_array_range;
          Alcotest.test_case "encode allocation" `Quick test_encode_allocation;
          Alcotest.test_case "ber sizeof allocates nothing" `Quick
            test_ber_sizeof_allocation;
          qcheck prop_ber_emit_equal;
          qcheck prop_xdr_emit_equal;
          qcheck prop_ber_int_array_full_range;
          qcheck prop_xdr_decode_prefix_garbage;
          qcheck prop_ber_decode_prefix_garbage;
        ] );
      ( "text",
        [
          Alcotest.test_case "schema prefix decode" `Quick test_schema_driven_prefix_decode;
          Alcotest.test_case "pp_schema" `Quick test_pp_schema_smoke;
          Alcotest.test_case "basic" `Quick test_text_basic;
          Alcotest.test_case "errors" `Quick test_text_errors;
          qcheck prop_text_round_trip;
          qcheck prop_text_size_changes;
          qcheck prop_text_placement;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "raw only octets" `Quick test_syntax_raw_only_octets;
          Alcotest.test_case "negotiate" `Quick test_syntax_negotiate;
          Alcotest.test_case "placements" `Quick test_syntax_placements;
          qcheck prop_syntax_uniform_round_trip;
          qcheck prop_syntax_sizeof;
        ] );
    ]
