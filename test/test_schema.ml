(* The schema-compiled presentation path.

   Contracts under test:
   - compiled encode == interpretive encode, byte for byte (sizes too),
     over random schemas x values x plans;
   - Schema.validate agrees with Xdr.decode_prefix (success AND consumed)
     over valid encodings, truncations, bit flips and raw garbage — and
     is total on all of them;
   - View lazy accessors and View.to_value equal the eager decode;
   - zero steady-state Bytebuf allocations on both the compiled transmit
     and the lazy receive. *)

open Bufkit
open Netsim
open Alf_core
open Wire

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- generators --- *)

let schema_gen : Xdr.schema QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneofl
      [ Xdr.S_void; Xdr.S_bool; Xdr.S_int; Xdr.S_hyper; Xdr.S_opaque; Xdr.S_string ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun s -> Xdr.S_array s) (node (depth - 1)));
          ( 1,
            map (fun ss -> Xdr.S_struct ss) (list_size (0 -- 3) (node (depth - 1)))
          );
        ]
  in
  node 3

let rec value_for (s : Xdr.schema) : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  match s with
  | S_void -> return Value.Null
  | S_bool -> map (fun b -> Value.Bool b) bool
  | S_int -> map (fun i -> Value.Int (Int32.to_int i)) int32
  | S_hyper ->
      oneof
        [
          map (fun i -> Value.Int64 i) int64;
          map (fun i -> Value.Int i) small_signed_int;
        ]
  | S_opaque -> map (fun s -> Value.Octets s) (string_size (0 -- 16))
  | S_string ->
      map (fun s -> Value.Utf8 s) (string_size ~gen:(char_range 'a' 'z') (0 -- 12))
  | S_array el -> map (fun vs -> Value.List vs) (list_size (0 -- 4) (value_for el))
  | S_struct ss ->
      let fields = flatten_l (List.map value_for ss) in
      oneof
        [
          map (fun vs -> Value.List vs) fields;
          map
            (fun vs ->
              Value.Record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) vs))
            fields;
        ]

let pair_gen : (Xdr.schema * Value.t) QCheck.Gen.t =
  QCheck.Gen.(schema_gen >>= fun s -> map (fun v -> (s, v)) (value_for s))

let pp_pair (s, v) =
  Format.asprintf "%a / %a" Xdr.pp_schema s Value.pp v

let arb_pair = QCheck.make ~print:pp_pair pair_gen

(* Plans valid on the marshal path: no byteswap, at most one RC4. *)
let plan_gen : Ilp.plan QCheck.Gen.t =
  let open QCheck.Gen in
  let stage =
    oneof
      [
        map (fun k -> Ilp.Checksum k) (oneofl Checksum.Kind.all);
        map2
          (fun key pos -> Ilp.Xor_pad { key; pos = Int64.of_int pos })
          int64 small_nat;
        map
          (fun key -> Ilp.Rc4_stream { key })
          (string_size ~gen:(char_range 'a' 'z') (1 -- 8));
        return Ilp.Deliver_copy;
      ]
  in
  let keep_first_rc4 plan =
    let seen = ref false in
    List.filter
      (function
        | Ilp.Rc4_stream _ -> if !seen then false else (seen := true; true)
        | _ -> true)
      plan
  in
  map keep_first_rc4 (list_size (0 -- 3) stage)

let arb_pair_plan =
  QCheck.make
    ~print:(fun ((s, v), p) ->
      Printf.sprintf "%s [%d stages]" (pp_pair (s, v)) (List.length p))
    QCheck.Gen.(map2 (fun sv p -> (sv, p)) pair_gen plan_gen)

(* --- compiled emit == interpretive encode --- *)

let prop_size_matches_sizeof =
  QCheck.Test.make ~name:"Schema.size == Xdr.sizeof" ~count:500 arb_pair
    (fun (s, v) ->
      Schema.size (Schema.prog_of_xdr s) v = Xdr.sizeof s v)

let prop_compiled_encode_identical =
  QCheck.Test.make ~name:"compiled encode == interpretive encode" ~count:500
    arb_pair (fun (s, v) ->
      let prog = Schema.prog_of_xdr s in
      let compiled =
        (Ilp.run_marshal (Ilp.Marshal_prog (prog, v)) []).Ilp.output
      in
      Bytebuf.equal compiled (Xdr.encode s v))

let prop_compiled_fused_parity =
  QCheck.Test.make ~name:"compiled fused == interpretive fused (bytes+sums)"
    ~count:300 arb_pair_plan (fun ((s, v), plan) ->
      let c = Ilp.run_marshal (Ilp.Marshal_prog (Schema.prog_of_xdr s, v)) plan in
      let i = Ilp.run_marshal (Ilp.Marshal_xdr_interp (s, v)) plan in
      Bytebuf.equal c.Ilp.output i.Ilp.output
      && c.Ilp.checksums = i.Ilp.checksums)

let test_emit_rejects_mismatch () =
  let reject s v =
    match Ilp.run_marshal (Ilp.Marshal_prog (Schema.prog_of_xdr s, v)) [] with
    | _ -> Alcotest.fail "mismatch accepted"
    | exception Xdr.Error _ -> ()
  in
  reject Xdr.S_int (Value.Utf8 "no");
  reject Xdr.S_int (Value.Int (1 lsl 40));
  reject (Xdr.S_array Xdr.S_int) (Value.List [ Value.Int 1; Value.Bool true ]);
  reject
    (Xdr.S_struct [ Xdr.S_int; Xdr.S_int ])
    (Value.List [ Value.Int 1 ]);
  reject
    (Xdr.S_struct [ Xdr.S_int ])
    (Value.List [ Value.Int 1; Value.Int 2 ])

(* --- validate == decode_prefix --- *)

(* Arrays whose elements encode to zero bytes make hostile counts cheap
   to accept (both sides agree, but the decode side then builds a
   multi-million-Null list — pure test slowness, no disagreement).
   Keep them out of the byte-fuzzing properties only. *)
let rec has_zero_size_array = function
  | Xdr.S_array el ->
      Schema.static (Schema.of_xdr el) = Some 0 || has_zero_size_array el
  | Xdr.S_struct ss -> List.exists has_zero_size_array ss
  | _ -> false

let decode_consumed s buf =
  match Xdr.decode_prefix s buf with
  | _, consumed -> Some consumed
  | exception Xdr.Error _ -> None

let validate_consumed prog buf =
  match Schema.validate prog buf ~pos:0 with
  | Ok consumed -> Some consumed
  | Error _ -> None

let agree s buf = validate_consumed (Schema.prog_of_xdr s) buf = decode_consumed s buf

let prop_validate_agrees_on_valid =
  QCheck.Test.make ~name:"validate == decode_prefix on encodings" ~count:500
    arb_pair (fun (s, v) -> agree s (Xdr.encode s v))

let arb_pair_seed =
  QCheck.make
    ~print:(fun ((s, v), seed) -> Printf.sprintf "%s #%d" (pp_pair (s, v)) seed)
    QCheck.Gen.(map2 (fun sv seed -> (sv, seed)) pair_gen (0 -- 1000000))

let prop_validate_agrees_on_truncations =
  QCheck.Test.make ~name:"validate == decode_prefix on every truncation"
    ~count:200 arb_pair (fun (s, v) ->
      QCheck.assume (not (has_zero_size_array s));
      let enc = Xdr.encode s v in
      let ok = ref true in
      for len = 0 to Bytebuf.length enc - 1 do
        if not (agree s (Bytebuf.take enc len)) then ok := false
      done;
      !ok)

let prop_validate_agrees_on_bitflips =
  QCheck.Test.make ~name:"validate == decode_prefix under bit flips"
    ~count:300 arb_pair_seed (fun ((s, v), seed) ->
      QCheck.assume (not (has_zero_size_array s));
      let enc = Xdr.encode s v in
      let n = Bytebuf.length enc in
      QCheck.assume (n > 0);
      let flipped = Bytebuf.copy enc in
      let pos = seed mod n and bit = seed / 7 mod 8 in
      Bytebuf.set_uint8 flipped pos
        (Bytebuf.get_uint8 flipped pos lxor (1 lsl bit));
      agree s flipped)

let prop_validate_total_on_garbage =
  QCheck.Test.make ~name:"validate total + agreeing on raw garbage" ~count:500
    (QCheck.make
       ~print:(fun (s, bytes) ->
         Format.asprintf "%a / %d bytes" Xdr.pp_schema s (String.length bytes))
       QCheck.Gen.(
         map2 (fun s b -> (s, b)) schema_gen (string_size (0 -- 64))))
    (fun (s, bytes) ->
      QCheck.assume (not (has_zero_size_array s));
      agree s (Bytebuf.of_string bytes))

(* --- the lazy view --- *)

let prop_view_to_value_roundtrip =
  QCheck.Test.make ~name:"View.to_value == Xdr.decode" ~count:500 arb_pair
    (fun (s, v) ->
      let enc = Xdr.encode s v in
      match View.make (Schema.prog_of_xdr s) enc ~pos:0 with
      | Error e -> QCheck.Test.fail_reportf "validate failed: %s" e
      | Ok (view, consumed) ->
          consumed = Bytebuf.length enc
          && Value.equal (View.to_value view) (Xdr.decode s enc))

(* Structural walk: every accessor against the eagerly decoded value. *)
let rec check_view view (expected : Value.t) =
  match ((View.schema view).Schema.shape, expected) with
  | Schema.Void, Value.Null -> true
  | Schema.Bool, Value.Bool b -> View.get_bool view = b
  | Schema.Int, Value.Int i -> View.get_int view = i
  | Schema.Hyper, Value.Int i -> View.get_hyper view = Int64.of_int i
  | Schema.Hyper, Value.Int64 i -> View.get_hyper view = i
  | Schema.Opaque, Value.Octets s ->
      View.get_octets view = s && Bytebuf.to_string (View.octets_view view) = s
  | Schema.Str, Value.Utf8 s -> View.get_string view = s
  | Schema.Array _, Value.List vs ->
      View.count view = List.length vs
      && List.for_all2 check_view
           (List.init (List.length vs) (View.elem view))
           vs
  | Schema.Struct _, Value.List vs ->
      View.count view = List.length vs
      && List.for_all2 check_view
           (List.init (List.length vs) (View.field view))
           vs
  | _ -> false

let prop_view_accessors =
  QCheck.Test.make ~name:"View accessors == eager decode" ~count:500 arb_pair
    (fun (s, v) ->
      let enc = Xdr.encode s v in
      match View.make (Schema.prog_of_xdr s) enc ~pos:0 with
      | Error e -> QCheck.Test.fail_reportf "validate failed: %s" e
      | Ok (view, _) -> check_view view (Xdr.decode s enc))

let test_view_trailing_bytes () =
  (* Like decode_prefix, a view accepts trailing bytes and reports where
     the value ended. *)
  let enc = Xdr.encode Xdr.S_int (Value.Int 7) in
  let padded = Bytebuf.concat [ enc; Bytebuf.of_string "tail" ] in
  match View.make (Schema.prog_of_xdr Xdr.S_int) padded ~pos:0 with
  | Error e -> Alcotest.fail e
  | Ok (view, consumed) ->
      Alcotest.(check int) "consumed" 4 consumed;
      Alcotest.(check int) "value" 7 (View.get_int view)

let test_view_zero_copy () =
  (* octets_view aliases the input buffer: mutating the underlying bytes
     shows through the accessor — proof there is no hidden copy. *)
  let s = Xdr.S_struct [ Xdr.S_int; Xdr.S_opaque ] in
  let v = Value.List [ Value.Int 1; Value.Octets "abcd" ] in
  let enc = Xdr.encode s v in
  match View.make (Schema.prog_of_xdr s) enc ~pos:0 with
  | Error e -> Alcotest.fail e
  | Ok (view, _) ->
      let octets = View.octets_view (View.field view 1) in
      Alcotest.(check string) "before" "abcd" (Bytebuf.to_string octets);
      Bytebuf.set enc 8 'Z' (* first content byte of the opaque field *);
      Alcotest.(check string) "aliases payload" "Zbcd"
        (Bytebuf.to_string octets)

let test_view_static_field_offsets () =
  (* Mixed struct: static prefix fields are O(1) seeks, fields behind a
     dynamic one are found by walking — same answers either way. *)
  let s =
    Xdr.S_struct [ Xdr.S_int; Xdr.S_hyper; Xdr.S_string; Xdr.S_int ]
  in
  let v =
    Value.List
      [ Value.Int 3; Value.Int64 99L; Value.Utf8 "dyn"; Value.Int 44 ]
  in
  let enc = Xdr.encode s v in
  match View.make (Schema.prog_of_xdr s) enc ~pos:0 with
  | Error e -> Alcotest.fail e
  | Ok (view, _) ->
      Alcotest.(check int) "f0" 3 (View.get_int (View.field view 0));
      Alcotest.(check bool) "f1" true (View.get_hyper (View.field view 1) = 99L);
      Alcotest.(check string) "f2" "dyn" (View.get_string (View.field view 2));
      Alcotest.(check int) "f3 (behind dynamic)" 44
        (View.get_int (View.field view 3))

(* --- zero allocation, both directions --- *)

let test_compiled_marshal_zero_alloc () =
  let v =
    Value.List
      (List.init 64 (fun i ->
           Value.Record
             [
               ("seq", Value.Int i);
               ("stamp", Value.Int64 (Int64.of_int (i * 1000)));
               ("tag", Value.Utf8 "sensor");
             ]))
  in
  let prog = Schema.prog_of_xdr (Xdr.schema_of_value v) in
  let plan =
    [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Xor_pad { key = 9L; pos = 0L } ]
  in
  let n = Schema.size prog v in
  let dst = Bytebuf.create n in
  let run () = ignore (Ilp.run_marshal ~dst (Ilp.Marshal_prog (prog, v)) plan) in
  for _ = 1 to 5 do run () done;
  let before = Bytebuf.created_total () in
  for _ = 1 to 50 do run () done;
  Alcotest.(check int) "zero Bytebuf creations across 50 compiled marshals" 0
    (Bytebuf.created_total () - before)

let test_view_receive_zero_alloc () =
  let s = Xdr.S_struct [ Xdr.S_int; Xdr.S_string; Xdr.S_array Xdr.S_int ] in
  let v =
    Value.List
      [
        Value.Int 12;
        Value.Utf8 "zerocopy";
        Value.List (List.init 32 (fun i -> Value.Int i));
      ]
  in
  let prog = Schema.prog_of_xdr s in
  let enc = Xdr.encode s v in
  let plan = [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ] in
  let sum = ref 0 in
  let run () =
    (* In place over the "payload", like deliver_views does. *)
    match (Ilp.run_view ~dst:enc plan prog enc).Ilp.view with
    | Ok (view, _) ->
        sum := !sum + View.get_int (View.field view 0);
        sum := !sum + View.get_int (View.elem (View.field view 2) 7)
    | Error e -> Alcotest.fail e
  in
  for _ = 1 to 5 do run () done;
  let before = Bytebuf.created_total () in
  for _ = 1 to 50 do run () done;
  Alcotest.(check int) "zero Bytebuf creations across 50 lazy receives" 0
    (Bytebuf.created_total () - before)

let test_view_in_place_noop () =
  (* In place with nothing to transform or digest, run_view skips its
     pass: the view reads the caller's slice as it was handed over. *)
  let s = Xdr.S_struct [ Xdr.S_int; Xdr.S_string; Xdr.S_array Xdr.S_int ] in
  let v =
    Value.List
      [ Value.Int 7; Value.Utf8 "in place"; Value.List [ Value.Int 1; Value.Int 2 ] ]
  in
  let prog = Schema.prog_of_xdr s in
  let enc = Xdr.encode s v in
  let before = Bytebuf.to_string enc in
  List.iter
    (fun plan ->
      let r = Ilp.run_view ~dst:enc plan prog enc in
      Alcotest.(check int) "no digests" 0 (List.length r.Ilp.view_checksums);
      Alcotest.(check int) "no tags" 0 (List.length r.Ilp.view_tags);
      (match r.Ilp.view with
      | Ok (view, len) ->
          Alcotest.(check bool) "view over the input slice" true
            (View.buffer view == enc);
          Alcotest.(check int) "whole encoding" (Bytebuf.length enc) len;
          Alcotest.(check bool) "same value" true (View.to_value view = v)
      | Error e -> Alcotest.fail e);
      Alcotest.(check string) "bytes untouched" before (Bytebuf.to_string enc))
    [ []; [ Ilp.Deliver_copy ] ]

(* --- syntax satellites --- *)

let arb_value =
  QCheck.make ~print:(Format.asprintf "%a" Value.pp)
    QCheck.Gen.(pair_gen >>= fun (_, v) -> return v)

let prop_encode_sized_matches_encode =
  QCheck.Test.make ~name:"Syntax.encode_sized == Syntax.encode" ~count:300
    arb_value (fun v ->
      List.for_all
        (fun name ->
          match Syntax.for_value name v with
          | None -> true
          | Some syn ->
              let full = Syntax.encode syn v in
              let sized =
                Syntax.encode_sized syn v ~size:(Syntax.sizeof syn v)
              in
              Bytebuf.equal full sized)
        [ "raw"; "ber"; "xdr"; "lwts" ])

let test_encode_sized_rejects_wrong_size () =
  let v = Value.Utf8 "twelve bytes" in
  let syn = Option.get (Syntax.for_value "xdr" v) in
  let size = Syntax.sizeof syn v in
  List.iter
    (fun bad ->
      match Syntax.encode_sized syn v ~size:bad with
      | _ -> Alcotest.fail (Printf.sprintf "size %d accepted" bad)
      | exception Syntax.Error _ -> ())
    [ size - 4; size + 4 ]

let prop_negotiate_single_derivation_consistent =
  (* The lazy shared-schema rewrite must not change outcomes. *)
  QCheck.Test.make ~name:"negotiate == first acceptable for_value" ~count:200
    arb_value (fun v ->
      let names = [ "raw"; "xdr"; "ber"; "lwts" ] in
      let expected =
        List.find_map
          (fun n ->
            if List.mem n names then Syntax.for_value n v else None)
          names
      in
      Syntax.negotiate ~sender:names ~receiver:names ~sample:v = expected)

(* --- end to end: lazy views over the transport --- *)

let test_deliver_views_end_to_end () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:43L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.0)
      ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let schema = Xdr.S_struct [ Xdr.S_int; Xdr.S_string; Xdr.S_array Xdr.S_int ] in
  let prog = Schema.prog_of_xdr schema in
  let key = 0xFEED_F00DL in
  let send_plan = [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Xor_pad { key; pos = 0L } ]
  and recv_plan = [ Ilp.Xor_pad { key; pos = 0L }; Ilp.Checksum Checksum.Kind.Internet ] in
  let value i =
    Value.List
      [
        Value.Int i;
        Value.Utf8 (Printf.sprintf "adu-%d" i);
        Value.List (List.init 8 (fun j -> Value.Int (i + j)));
      ]
  in
  let got = ref [] in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine)
      ~io:(Dgram.of_udp ub) ~port:7100 ~stream:3
      ~deliver:
        (Alf_transport.deliver_views ~plan:recv_plan ~prog (fun name view ->
             (* Lazy access during the callback; copy out only what we keep. *)
             got :=
               ( name.Adu.index,
                 View.get_int (View.field view 0),
                 View.get_string (View.field view 1),
                 View.get_int (View.elem (View.field view 2) 3) )
               :: !got))
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2
      ~peer_port:7100 ~port:7101 ~stream:3 ~policy:Recovery.No_recovery
      ~tx_pool:(Pool.create ~buf_size:1491 ())
      ()
  in
  let count = 20 in
  for i = 0 to count - 1 do
    Alf_transport.send_value sender
      ~name:(Adu.name ~stream:3 ~index:i ())
      ~plan:send_plan
      (Ilp.Marshal_prog (prog, value i))
  done;
  Alf_transport.close sender;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  Alcotest.(check int) "all delivered" count (List.length !got);
  List.iter
    (fun (idx, f0, f1, a3) ->
      Alcotest.(check int) "field 0" idx f0;
      Alcotest.(check string) "field 1" (Printf.sprintf "adu-%d" idx) f1;
      Alcotest.(check int) "elem 3" (idx + 3) a3)
    !got

let () =
  Alcotest.run "schema"
    [
      ( "compiled emit",
        [
          qcheck prop_size_matches_sizeof;
          qcheck prop_compiled_encode_identical;
          qcheck prop_compiled_fused_parity;
          Alcotest.test_case "mismatches rejected" `Quick
            test_emit_rejects_mismatch;
        ] );
      ( "validate",
        [
          qcheck prop_validate_agrees_on_valid;
          qcheck prop_validate_agrees_on_truncations;
          qcheck prop_validate_agrees_on_bitflips;
          qcheck prop_validate_total_on_garbage;
        ] );
      ( "view",
        [
          qcheck prop_view_to_value_roundtrip;
          qcheck prop_view_accessors;
          Alcotest.test_case "trailing bytes" `Quick test_view_trailing_bytes;
          Alcotest.test_case "zero copy aliasing" `Quick test_view_zero_copy;
          Alcotest.test_case "static field offsets" `Quick
            test_view_static_field_offsets;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "compiled marshal zero-alloc" `Quick
            test_compiled_marshal_zero_alloc;
          Alcotest.test_case "lazy receive zero-alloc" `Quick
            test_view_receive_zero_alloc;
        ] );
      ( "syntax",
        [
          qcheck prop_encode_sized_matches_encode;
          Alcotest.test_case "encode_sized size check" `Quick
            test_encode_sized_rejects_wrong_size;
          qcheck prop_negotiate_single_derivation_consistent;
        ] );
      ( "transport",
        [
          Alcotest.test_case "in-place view without stages is a no-op" `Quick
            test_view_in_place_noop;
          Alcotest.test_case "deliver_views end to end" `Quick
            test_deliver_views_end_to_end;
        ] );
    ]
