(* The fused presentation path: marshal/unmarshal as ILP stages.

   The contract under test is byte-exactness: run_marshal must equal
   run_fused over a finished encoding (outputs and checksums), and
   run_unmarshal must invert it through mirrored plans — so the single
   pass is an optimisation, never a semantic change. *)

open Bufkit
open Netsim
open Alf_core
open Wire

let qcheck t = QCheck_alcotest.to_alcotest t

(* Abstract values, bounded depth, 32-bit ints (same shape as the wire
   suite's generator). *)
let value_gen : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int (Int32.to_int i)) int32;
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
                Value.Record
                  (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) vs))
              (list_size (1 -- 3) (node (depth - 1))) );
        ]
  in
  node 3

let arb_value = QCheck.make ~print:(Format.asprintf "%a" Value.pp) value_gen

(* Random marshal-compatible plans: any mix of checksum/cipher/copy
   stages (no Byteswap32 — rejected by construction), at most one RC4. *)
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
  map keep_first_rc4 (list_size (0 -- 4) stage)

let pp_plan ppf plan =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Ilp.pp_stage)
    plan

let arb_plan = QCheck.make ~print:(Format.asprintf "%a" pp_plan) plan_gen

(* --- Marshal = fused-over-encode --- *)

let same_result (got : Ilp.result) (ref_ : Ilp.result) =
  Bytebuf.equal got.Ilp.output ref_.Ilp.output
  && got.Ilp.checksums = ref_.Ilp.checksums

let prop_marshal_equals_fused_ber =
  QCheck.Test.make ~name:"marshal: ber = run_fused over encode" ~count:300
    QCheck.(pair arb_value arb_plan)
    (fun (v, plan) ->
      same_result
        (Ilp.run_marshal (Ilp.Marshal_ber v) plan)
        (Ilp.run_fused plan (Ber.encode v)))

let prop_marshal_equals_fused_xdr =
  QCheck.Test.make ~name:"marshal: xdr = run_fused over encode" ~count:300
    QCheck.(pair arb_value arb_plan)
    (fun (v, plan) ->
      let schema = Xdr.schema_of_value v in
      same_result
        (Ilp.run_marshal (Ilp.Marshal_prog (Schema.prog_of_xdr schema, v)) plan)
        (Ilp.run_fused plan (Xdr.encode schema v)))

let test_marshal_into_dst () =
  let v = Value.int_array [| 10; 20; 30 |] in
  let n = Ilp.marshal_size (Ilp.Marshal_ber v) in
  Alcotest.(check int) "marshal_size = sizeof" (Ber.sizeof v) n;
  let dst = Bytebuf.create n in
  let r = Ilp.run_marshal ~dst (Ilp.Marshal_ber v) [ Ilp.Deliver_copy ] in
  Alcotest.(check bool) "output is dst" true (r.Ilp.output == dst);
  Alcotest.(check bool) "bytes = encode" true
    (Bytebuf.equal dst (Ber.encode v));
  match
    Ilp.run_marshal ~dst:(Bytebuf.create (n + 1)) (Ilp.Marshal_ber v) []
  with
  | _ -> Alcotest.fail "oversized dst accepted"
  | exception Invalid_argument _ -> ()

(* --- Unmarshal: mirrored plans round-trip --- *)

(* Send plan / matching receive plan: ciphers are involutions, so the
   mirror applies them in reverse order; a checksum stage mirrors to the
   position where it sees the same bytes. *)
let mirror_pairs key rc4_key =
  [
    ([], []);
    ([ Ilp.Checksum Checksum.Kind.Internet ],
     [ Ilp.Checksum Checksum.Kind.Internet ]);
    ([ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Xor_pad { key; pos = 0L } ],
     [ Ilp.Xor_pad { key; pos = 0L }; Ilp.Checksum Checksum.Kind.Crc32 ]);
    ([ Ilp.Rc4_stream { key = rc4_key } ],
     [ Ilp.Rc4_stream { key = rc4_key } ]);
    ([ Ilp.Xor_pad { key; pos = 32L }; Ilp.Rc4_stream { key = rc4_key } ],
     [ Ilp.Rc4_stream { key = rc4_key }; Ilp.Xor_pad { key; pos = 32L } ]);
  ]

let prop_unmarshal_round_trip =
  QCheck.Test.make ~name:"unmarshal: mirrored plans recover the value"
    ~count:200 arb_value (fun v ->
      List.for_all
        (fun (send_plan, recv_plan) ->
          let sent = Ilp.run_marshal (Ilp.Marshal_ber v) send_plan in
          let r = Ilp.run_unmarshal recv_plan Ilp.Unmarshal_ber sent.Ilp.output in
          Value.equal r.Ilp.value (Value.canonical v)
          && r.Ilp.consumed = Ber.sizeof v
          && (* same digests on both sides of the wire *)
          List.sort compare sent.Ilp.checksums
          = List.sort compare r.Ilp.checksums)
        (mirror_pairs 0xFEED5EEDL "rc4key"))

let prop_unmarshal_round_trip_xdr =
  QCheck.Test.make ~name:"unmarshal: xdr mirrored round trip" ~count:200
    arb_value (fun v ->
      let schema = Xdr.schema_of_value v in
      let send_plan =
        [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Xor_pad { key = 9L; pos = 0L } ]
      and recv_plan =
        [ Ilp.Xor_pad { key = 9L; pos = 0L }; Ilp.Checksum Checksum.Kind.Internet ]
      in
      let sent =
        Ilp.run_marshal (Ilp.Marshal_prog (Schema.prog_of_xdr schema, v)) send_plan
      in
      let r =
        Ilp.run_unmarshal recv_plan (Ilp.Unmarshal_xdr schema) sent.Ilp.output
      in
      Value.equal r.Ilp.value (Value.canonical v)
      && sent.Ilp.checksums = r.Ilp.checksums)

let prop_unmarshal_trailing_garbage =
  (* The decoder stops at the value; the transform and its checksums
     still cover the entire input, exactly like run_fused would. *)
  QCheck.Test.make ~name:"unmarshal: trailing bytes transformed, not parsed"
    ~count:200
    QCheck.(pair arb_value (string_gen_of_size Gen.(1 -- 16) Gen.char))
    (fun (v, junk) ->
      let plan = [ Ilp.Xor_pad { key = 77L; pos = 0L }; Ilp.Checksum Checksum.Kind.Crc32 ] in
      let sent =
        Ilp.run_marshal (Ilp.Marshal_ber v) [ Ilp.Xor_pad { key = 77L; pos = 0L } ]
      in
      let input = Bytebuf.concat [ sent.Ilp.output; Bytebuf.of_string junk ] in
      let ref_ = Ilp.run_fused plan input in
      let dst = Bytebuf.create (Bytebuf.length input) in
      let r = Ilp.run_unmarshal ~dst plan Ilp.Unmarshal_ber input in
      Value.equal r.Ilp.value (Value.canonical v)
      && r.Ilp.consumed = Ber.sizeof v
      && r.Ilp.checksums = ref_.Ilp.checksums
      && Bytebuf.equal dst ref_.Ilp.output)

let test_unmarshal_in_place () =
  let v = Value.Record [ ("a", Value.Utf8 "in-place"); ("b", Value.Int 3) ] in
  let sent =
    Ilp.run_marshal (Ilp.Marshal_ber v) [ Ilp.Xor_pad { key = 11L; pos = 0L } ]
  in
  let buf = sent.Ilp.output in
  let r =
    Ilp.run_unmarshal ~dst:buf
      [ Ilp.Xor_pad { key = 11L; pos = 0L } ]
      Ilp.Unmarshal_ber buf
  in
  Alcotest.(check bool) "value" true (Value.equal r.Ilp.value (Value.canonical v));
  (* the borrowed view now holds the decrypted encoding *)
  Alcotest.(check bool) "in place" true (Bytebuf.equal buf (Ber.encode (Value.canonical v)))

let test_byteswap_rejected () =
  let v = Value.int_array [| 1; 2 |] in
  let rejected what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted Byteswap32" what
    | exception Invalid_argument _ -> ()
  in
  let swap = [ Ilp.Byteswap32 ] in
  rejected "marshal" (fun () -> ignore (Ilp.run_marshal (Ilp.Marshal_ber v) swap));
  rejected "compile_marshal" (fun () -> ignore (Ilp.compile_marshal swap));
  rejected "unmarshal" (fun () ->
      ignore (Ilp.run_unmarshal swap Ilp.Unmarshal_ber (Ber.encode v)));
  let s = Xdr.S_array Xdr.S_int in
  rejected "view" (fun () ->
      ignore (Ilp.run_view swap (Schema.prog_of_xdr s) (Xdr.encode s v)))

let test_marshal_cache_counters () =
  let encoded = Obs.Registry.counter "ilp.marshal.bytes_encoded" in
  let v = Value.int_array [| 1; 2; 3; 4 |] in
  let plan key = [ Ilp.Checksum Checksum.Kind.Adler32; Ilp.Xor_pad { key; pos = 0L } ] in
  let e0 = Obs.Counter.value encoded in
  for i = 2 to 6 do
    ignore (Ilp.run_marshal (Ilp.Marshal_ber v) (plan (Int64.of_int i)))
  done;
  Alcotest.(check int) "bytes_encoded advances" (e0 + (5 * Ber.sizeof v))
    (Obs.Counter.value encoded)

(* --- The integrated transport path --- *)

let test_send_value_end_to_end () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:42L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.0)
      ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
  let key = 0x5EED_CAFEL in
  let send_plan =
    [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Xor_pad { key; pos = 0L } ]
  and recv_plan =
    [ Ilp.Xor_pad { key; pos = 0L }; Ilp.Checksum Checksum.Kind.Internet ]
  in
  let got = ref [] in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:7000 ~stream:1
      ~deliver:
        (Alf_transport.deliver_values ~plan:recv_plan ~sink:Ilp.Unmarshal_ber
           (fun name v -> got := (name.Adu.index, v) :: !got))
      ()
  in
  let tx_pool = Pool.create ~buf_size:1491 () in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:7000 ~port:7001
      ~stream:1 ~policy:Recovery.No_recovery ~tx_pool ()
  in
  let values =
    [
      Value.int_array [| 1; 2; 3 |];
      Value.Utf8 "integrated send path";
      Value.Record [ ("off", Value.Int 512); ("data", Value.Octets "tile") ];
      (* big enough to take the multi-fragment fallback *)
      Value.Octets (String.make 5000 'q');
      Value.List [];
    ]
  in
  List.iteri
    (fun i v ->
      Alf_transport.send_value sender
        ~name:(Adu.name ~stream:1 ~index:i ())
        ~plan:send_plan (Ilp.Marshal_ber v))
    values;
  Alf_transport.close sender;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  Alcotest.(check int) "all delivered" (List.length values) (List.length !got);
  List.iteri
    (fun i v ->
      match List.assoc_opt i !got with
      | Some got_v ->
          Alcotest.(check bool)
            (Printf.sprintf "value %d" i)
            true
            (Value.equal got_v (Value.canonical v))
      | None -> Alcotest.fail (Printf.sprintf "value %d missing" i))
    values;
  let rs = Alf_transport.receiver_stats receiver in
  Alcotest.(check int) "nothing corrupt" 0 rs.Alf_transport.frags_corrupt_dropped

let test_send_value_matches_send_adu_wire () =
  (* A fused send and a classic encode-then-send must be byte-identical
     on the wire: same fragment header, same ADU header and CRC, same
     integrity trailer. *)
  let captured = ref [] in
  let io =
    {
      Dgram.send =
        (fun ~dst:_ ~dst_port:_ ~src_port:_ b ->
          captured := Bytebuf.to_string b :: !captured;
          true);
      bind = (fun ~port:_ _ -> ());
      max_payload = 65507;
    }
  in
  let v = Value.Record [ ("a", Value.int_array [| 5; 6; 7 |]) ] in
  let name = Adu.name ~dest_off:96 ~dest_len:24 ~stream:4 ~index:0 () in
  let wire_of send =
    let engine = Engine.create () in
    let s =
      Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io ~peer:2 ~peer_port:7000 ~port:7001
        ~stream:4 ~policy:Recovery.No_recovery
        ~tx_pool:(Pool.create ~buf_size:1491 ())
        ()
    in
    captured := [];
    send s;
    Engine.run ~until:1.0 engine;
    match !captured with
    | [ one ] -> one
    | l -> Alcotest.fail (Printf.sprintf "expected 1 datagram, got %d" (List.length l))
  in
  let fused =
    wire_of (fun s -> Alf_transport.send_value s ~name (Ilp.Marshal_ber v))
  in
  let classic =
    wire_of (fun s -> Alf_transport.send_adu s (Adu.make name (Ber.encode v)))
  in
  Alcotest.(check string) "identical wire bytes" classic fused

(* GC words per [send_value] call in steady state, for a one-fragment and
   a four-fragment ADU, with the sender keyed by [?secure]; checks on the
   way that no send creates a Bytebuf. *)
let transmit_words ?secure ~plan () =
  let engine = Engine.create () in
  let io =
    {
      Dgram.send = (fun ~dst:_ ~dst_port:_ ~src_port:_ _ -> true);
      bind = (fun ~port:_ _ -> ());
      max_payload = 65507;
    }
  in
  let tx_pool = Pool.create ~buf_size:1491 () in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io ~peer:2 ~peer_port:7000 ~port:7001
      ~stream:1 ~policy:Recovery.No_recovery ?secure ~tx_pool ()
  in
  let one = Ilp.Marshal_ber (Value.int_array (Array.init 100 (fun i -> i * 17)))
  and four = Ilp.Marshal_ber (Value.Octets (String.make 5000 'f')) in
  let next = ref 0 and now = ref 0.0 in
  let names = Array.init 110 (fun index -> Adu.name ~stream:1 ~index ()) in
  let send source =
    let name = names.(!next) in
    incr next;
    let w0 = Gc.minor_words () in
    Alf_transport.send_value sender ~name ~plan source;
    let w = Gc.minor_words () -. w0 in
    (* steady state = the engine drains (and the pool recycles) between
       sends, as it would on a live wire *)
    now := !now +. 0.001;
    Engine.run ~until:!now engine;
    int_of_float w
  in
  let st = Alf_transport.sender_stats sender in
  let steady label source ~frags =
    (* Warmup: pool buffers, scratch, obs metrics, plan lowering. *)
    for _ = 1 to 5 do
      ignore (send source)
    done;
    let f0 = st.Alf_transport.frags_sent in
    let before = Bytebuf.created_total () in
    let words = List.init 50 (fun _ -> send source) in
    Alcotest.(check int)
      (label ^ ": zero Bytebuf creations across 50 sends")
      0
      (Bytebuf.created_total () - before);
    Alcotest.(check int) (label ^ ": fragments") (50 * frags)
      (st.Alf_transport.frags_sent - f0);
    words
  in
  let w1 = steady "1 fragment" one ~frags:1 in
  let w4 = steady "4 fragments" four ~frags:4 in
  Alcotest.(check int) "all sent" 110 st.Alf_transport.adus_sent;
  Alcotest.(check int) "pool drained" 0 (Pool.stats tx_pool).Pool.outstanding;
  (w1, w4)

let test_send_value_zero_alloc () =
  (* Steady-state fused transmit creates no Bytebuf per ADU, one
     fragment or four: a one-fragment ADU is marshalled into its pooled
     datagram, a longer one into the sender's reused scratch and copied
     from there into pooled datagrams. And the writer allocates nothing
     per fragment: [send_value] costs the same GC words at 1 and at 4
     fragments. (The drain that follows hands each queued datagram to
     the substrate as a view, outside the measured call.) *)
  let w1, w4 =
    transmit_words
      ~plan:[ Ilp.Checksum Checksum.Kind.Internet; Ilp.Xor_pad { key = 7L; pos = 0L } ]
      ()
  in
  let least = List.fold_left min max_int in
  Alcotest.(check int) "GC words per send: 4 fragments = 1 fragment" (least w1)
    (least w4)

let test_sealed_send_value_words () =
  (* The sealed transmit runs the sender's compiled plan over the record
     its context was just pointed at: no per-record cipher state, plan
     lookup, closure or result list, at one fragment or four. *)
  let w1, w4 =
    transmit_words ~secure:(Secure.Record.of_int64 0x5EA1L) ~plan:[] ()
  in
  let most = List.fold_left max 0 in
  Alcotest.(check bool)
    (Printf.sprintf "1 fragment: at most 32 GC words per send (read %d)" (most w1))
    true (most w1 <= 32);
  Alcotest.(check bool)
    (Printf.sprintf "4 fragments: at most 32 GC words per send (read %d)" (most w4))
    true (most w4 <= 32)

(* --- One datagram writer: byte identity with the layered writer --- *)

(* A layered datagram writer, written apart from the library's: encode
   the ADU into a fresh buffer, cut it into fresh fragment buffers, then
   seal each into a fresh copy. The oracle every sender's bytes must
   equal. *)
module Oracle = struct
  let patch_be32 buf off v =
    for i = 0 to 3 do
      Bytebuf.set_uint8 buf (off + i) ((v lsr (8 * (3 - i))) land 0xff)
    done

  let adu_encode (name : Adu.name) payload =
    let plen = Bytebuf.length payload in
    let buf = Bytebuf.create (36 + plen) in
    let w = Cursor.writer buf in
    Cursor.put_u16be w 0xADF0;
    Cursor.put_u16be w name.Adu.stream;
    Cursor.put_int_as_u32be w name.Adu.index;
    Cursor.put_u64be w (Int64.of_int name.Adu.dest_off);
    Cursor.put_int_as_u32be w name.Adu.dest_len;
    Cursor.put_u64be w name.Adu.timestamp_us;
    Cursor.put_int_as_u32be w plen;
    Cursor.put_u32be w 0l;
    Cursor.put_bytes w payload;
    patch_be32 buf 32
      (Int32.to_int (Checksum.Crc32.digest buf) land 0xFFFFFFFF);
    buf

  let fragments ~mtu ~stream ~index encoded =
    let total_len = Bytebuf.length encoded in
    let chunk = mtu - 19 in
    let nfrags = max 1 ((total_len + chunk - 1) / chunk) in
    List.init nfrags (fun frag_idx ->
        let frag_off = frag_idx * chunk in
        let len = min chunk (total_len - frag_off) in
        let buf = Bytebuf.create (19 + len) in
        let w = Cursor.writer buf in
        Cursor.put_u8 w 0xAD;
        Cursor.put_u16be w stream;
        Cursor.put_int_as_u32be w index;
        Cursor.put_u16be w frag_idx;
        Cursor.put_u16be w nfrags;
        Cursor.put_int_as_u32be w total_len;
        Cursor.put_int_as_u32be w frag_off;
        Cursor.put_bytes w (Bytebuf.sub encoded ~pos:frag_off ~len);
        buf)

  let seal integrity buf =
    match integrity with
    | None -> buf
    | Some kind ->
        let n = Bytebuf.length buf in
        let out = Bytebuf.create (n + 4) in
        Bytebuf.blit ~src:buf ~src_pos:0 ~dst:out ~dst_pos:0 ~len:n;
        patch_be32 out n (Checksum.Kind.digest kind buf land 0xFFFFFFFF);
        out

  (* One sealed single-fragment datagram, as Loadgen and Hostile send. *)
  let single integrity name payload =
    match
      fragments ~mtu:max_int ~stream:name.Adu.stream ~index:name.Adu.index
        (adu_encode name payload)
    with
    | [ f ] -> Bytebuf.to_string (seal integrity f)
    | _ -> assert false
end

(* The bytes a transport endpoint sends: every datagram handed to [io],
   in order, and the handler it binds (to feed it NACKs). *)
let capture_io () =
  let sent = ref [] and handler = ref None in
  let io =
    {
      Dgram.send =
        (fun ~dst:_ ~dst_port:_ ~src_port:_ b ->
          sent := Bytebuf.to_string b :: !sent;
          true);
      bind = (fun ~port:_ h -> handler := Some h);
      max_payload = 65507;
    }
  in
  (io, sent, handler)

(* Data datagrams only: fragments (0xAD) and FEC blocks (0xFE). *)
let data_only l =
  List.filter
    (fun d -> d <> "" && (Char.code d.[0] = 0xAD || Char.code d.[0] = 0xFE))
    (List.rev l)

type writer_case = {
  size : int;  (* payload bytes, 0-6000 *)
  via_value : bool;  (* send_value, else send_adu *)
  integrity : Checksum.Kind.t option;
  secure : bool;
  fec : bool;
  pool : int;  (* 0 none, 1 roomy, 2 too small, 3 capped at one buffer *)
  policy : int;  (* 0 none, 1 transport buffer, 2 app recompute *)
}

let print_writer_case c =
  Printf.sprintf
    "size=%d value=%b integrity=%s secure=%b fec=%b pool=%d policy=%d" c.size
    c.via_value
    (match c.integrity with
    | None -> "none"
    | Some k -> Checksum.Kind.to_string k)
    c.secure c.fec c.pool c.policy

let writer_case_gen =
  let open QCheck.Gen in
  let* size =
    frequency
      [ (1, return 0); (3, 0 -- 6000); (2, map (fun k -> (1449 * k) - 40 + (k mod 3)) (1 -- 4)) ]
  in
  let* via_value = bool in
  let* integrity =
    oneofl [ None; Some Checksum.Kind.Crc32; Some Checksum.Kind.Internet ]
  in
  let* secure = bool in
  let* fec = bool in
  let* pool = 0 -- 3 in
  let* policy = 0 -- 2 in
  return { size; via_value; integrity; secure; fec; pool; policy }

(* [send_value], [send_adu] and NACK retransmission emit, byte for byte,
   what the oracle writes for the same ADUs: two ADUs of the case's size
   sent, drained, then both NACKed (repaired under a retaining policy,
   declared gone otherwise). With [fec], the sender is switched to FEC
   by an early NACK before the first send. *)
let prop_writer_matches_oracle =
  QCheck.Test.make ~count:150 ~name:"datagram writer = layered oracle"
    (QCheck.make ~print:print_writer_case writer_case_gen)
    (fun c ->
      let key = 0x5EC0DEL in
      let io, sent, handler = capture_io () in
      let engine = Engine.create () in
      let value i = Value.Octets (String.make c.size (Char.chr (65 + i))) in
      let plain i =
        if c.via_value then Ber.encode (value i)
        else Bytebuf.of_string (String.make c.size (Char.chr (97 + i)))
      in
      let name i = Adu.name ~dest_off:(i * 7) ~dest_len:c.size ~stream:3 ~index:i () in
      let oracle_rc = Secure.Record.of_int64 key in
      let encoded i =
        let p = plain i in
        let p =
          if c.secure then
            (Secure.Record.seal_adu oracle_rc (Adu.make (name i) p)).Adu.payload
          else p
        in
        Oracle.adu_encode (name i) p
      in
      let policy =
        match c.policy with
        | 0 -> Recovery.No_recovery
        | 1 -> Recovery.Transport_buffer
        | _ ->
            Recovery.App_recompute
              (fun i -> if i <= 1 then Some (encoded i) else None)
      in
      let tx_pool =
        match c.pool with
        | 0 -> None
        | 1 -> Some (Pool.create ~buf_size:2048 ())
        | 2 -> Some (Pool.create ~buf_size:200 ())
        | _ -> Some (Pool.create ~max_outstanding:1 ~buf_size:2048 ())
      in
      let config =
        {
          Alf_transport.default_sender_config with
          integrity = c.integrity;
          fec_loss_threshold = (if c.fec then 0.1 else 2.0);
        }
      in
      let sender =
        Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io ~peer:2
          ~peer_port:7000 ~port:7001 ~stream:3 ~policy
          ?secure:(if c.secure then Some (Secure.Record.of_int64 key) else None)
          ?tx_pool ~config ()
      in
      let nack indices =
        match !handler with
        | Some h ->
            h ~src:2 ~src_port:7000
              (Ctl.seal c.integrity
                 (Ctl.build (fun b -> Ctl.write_nack b ~stream:3 ~have_below:0 indices)))
        | None -> assert false
      in
      let drain () = Engine.run ~until:(Engine.now engine +. 1.0) engine in
      if c.fec then nack [ 99 ];
      assert (Alf_transport.fec_active sender = c.fec);
      for i = 0 to 1 do
        if c.via_value then
          Alf_transport.send_value sender ~name:(name i) (Ilp.Marshal_ber (value i))
        else Alf_transport.send_adu sender (Adu.make (name i) (plain i))
      done;
      drain ();
      let first = data_only !sent in
      sent := [];
      nack [ 0; 1 ];
      drain ();
      let repaired = data_only !sent in
      let mtu =
        config.Alf_transport.mtu
        - (match c.integrity with Some _ -> 4 | None -> 0)
        - if c.fec then 1 + Fec.header_size + 2 else 0
      in
      let group = ref 0 in
      let oracle i =
        let frags = Oracle.fragments ~mtu ~stream:3 ~index:i (encoded i) in
        let dgs =
          if not c.fec then frags
          else begin
            let blocks = Fec.protect ~first_group:!group ~k:4 frags in
            group := (!group + Fec.group_count ~k:4 (List.length frags)) land 0xffff;
            List.map
              (fun b -> Bytebuf.concat [ Bytebuf.of_string "\xfe"; b ])
              blocks
          end
        in
        List.map (fun d -> Bytebuf.to_string (Oracle.seal c.integrity d)) dgs
      in
      (* In send order: FEC group numbers run on across ADUs. *)
      let both () =
        let a = oracle 0 in
        a @ oracle 1
      in
      let expect_first = both () in
      let expect_repaired = if c.policy = 0 then [] else both () in
      let drained =
        match tx_pool with
        | Some p -> (Pool.stats p).Pool.outstanding = 0
        | None -> true
      in
      if first <> expect_first then
        QCheck.Test.fail_reportf "first pass: %d datagrams, oracle %d"
          (List.length first) (List.length expect_first)
      else if repaired <> expect_repaired then
        QCheck.Test.fail_reportf "repair: %d datagrams, oracle %d"
          (List.length repaired) (List.length expect_repaired)
      else drained)

let test_loadgen_hostile_match_oracle () =
  (* Loadgen and Hostile lay their datagrams down with the same writer:
     every honest datagram, and every valid one Hostile sends, equals
     the oracle's encoding of the ADU its headers name. *)
  let io, sent, _ = capture_io () in
  List.iter
    (fun (secure, integrity) ->
      sent := [];
      let cfg =
        {
          Alf_serve.Loadgen.default_config with
          sessions = 3;
          adus_per_session = 2;
          payload_len = 48;
          integrity;
          secure =
            (if secure then Some (Secure.Record.of_int64 0x10AD6E4L) else None);
        }
      in
      let lg = Alf_serve.Loadgen.create ~io cfg in
      ignore (Alf_serve.Loadgen.step lg ~budget:6);
      let oracle_rc = Secure.Record.of_int64 0x10AD6E4L in
      List.iteri
        (fun cursor d ->
          let k = cursor mod 3 and index = cursor / 3 in
          let name =
            Adu.name ~dest_off:(index * 48) ~dest_len:48
              ~stream:(Alf_serve.Loadgen.session_stream lg k)
              ~index ()
          in
          let plain =
            Bytebuf.init 48 (fun j ->
                Char.chr (((k * 131) + (index * 31) + (j * 7) + 5) land 0xff))
          in
          let payload =
            if secure then
              (Secure.Record.seal_adu oracle_rc (Adu.make name plain)).Adu.payload
            else plain
          in
          Alcotest.(check string)
            (Printf.sprintf "loadgen secure=%b session %d ADU %d" secure k index)
            (Oracle.single integrity name payload)
            d)
        (List.rev !sent))
    [
      (false, Some Checksum.Kind.Crc32);
      (true, Some Checksum.Kind.Crc32);
      (false, None);
    ];
  sent := [];
  let h =
    Alf_chaos.Hostile.create ~io
      {
        Alf_chaos.Hostile.default_config with
        payload_len = 40;
        mix = Alf_chaos.Hostile.[ (Replay, 1); (Churn, 1); (Drip, 1); (Forged, 1) ];
      }
  in
  ignore (Alf_chaos.Hostile.step h ~budget:64);
  Alcotest.(check int) "hostile datagrams" 64 (List.length !sent);
  List.iter
    (fun d ->
      let b = Bytebuf.of_string d in
      let stream = (Bytebuf.get_uint8 b 1 lsl 8) lor Bytebuf.get_uint8 b 2 in
      let index =
        Int32.to_int (Cursor.u32be (Cursor.reader (Bytebuf.sub b ~pos:3 ~len:4)))
      in
      let payload =
        Bytebuf.init 40 (fun j ->
            Char.chr (((stream * 197) + (index * 31) + (j * 11) + 3) land 0xff))
      in
      let name = Adu.name ~dest_off:(index * 40) ~dest_len:40 ~stream ~index () in
      Alcotest.(check string)
        (Printf.sprintf "hostile stream %d ADU %d" stream index)
        (Oracle.single (Some Checksum.Kind.Crc32) name payload)
        d)
    (List.rev !sent)

(* --- The block seam: one 64-byte block ABI under every runner --- *)

let seam_plan =
  [
    Ilp.Checksum Checksum.Kind.Internet;
    Ilp.Checksum Checksum.Kind.Crc32;
    Ilp.Deliver_copy;
  ]

(* The smallest octet-string padding that makes [sizeof (mk k)] exactly
   [size]. *)
let value_of_size size sizeof mk =
  let rec go k =
    if k > 4 * size then Alcotest.failf "no value encodes to %d bytes" size
    else if sizeof (mk k) = size then mk k
    else go (k + 1)
  in
  go 0

(* A value with every kind of write: a scalar, a hyper, an int-array run
   and a counted string that moves the end across the block boundary. *)
let seam_value k =
  Value.Record
    [
      ("a", Value.Int (-7));
      ("b", Value.Int64 0x123456789AL);
      ("c", Value.int_array [| 1; -2; 3; 0x7FFFFFFF |]);
      ("d", Value.Octets (String.init k (fun i -> Char.chr (i land 0xff))));
    ]

let test_block_seam () =
  (* Encodings just short of, on, and just past one and two blocks. XDR
     encodes in whole 4-byte units, so its values take the nearest sizes
     either side of each boundary. *)
  let check label source encoding =
    let got = Ilp.run_marshal source seam_plan in
    let want = Ilp.run_layered seam_plan encoding in
    Alcotest.(check string) (label ^ " bytes")
      (Bytebuf.to_string want.Ilp.output) (Bytebuf.to_string got.Ilp.output);
    Alcotest.(check (list (pair string int))) (label ^ " checksums")
      (List.map (fun (k, c) -> (Checksum.Kind.to_string k, c)) want.Ilp.checksums)
      (List.map (fun (k, c) -> (Checksum.Kind.to_string k, c)) got.Ilp.checksums)
  in
  List.iter
    (fun size ->
      let v = value_of_size size Ber.sizeof seam_value in
      check (Printf.sprintf "ber %d" size) (Ilp.Marshal_ber v) (Ber.encode v))
    [ 63; 64; 65; 127; 128; 129 ];
  List.iter
    (fun size ->
      let sizeof v = Xdr.sizeof (Xdr.schema_of_value v) v in
      let v = value_of_size size sizeof seam_value in
      let schema = Xdr.schema_of_value v in
      let encoding = Xdr.encode schema v in
      check (Printf.sprintf "xdr compiled %d" size)
        (Ilp.Marshal_prog (Schema.prog_of_xdr schema, v)) encoding;
      check (Printf.sprintf "xdr interpretive %d" size)
        (Ilp.Marshal_xdr_interp (schema, v)) encoding)
    [ 60; 64; 68; 124; 128; 132 ]

let test_undersized_dst () =
  (* The sink refuses the write that would leave the slice, so the byte
     just past it — another datagram's, in a shared pool backing — is
     never touched. *)
  let v = value_of_size 129 Ber.sizeof seam_value in
  let schema = Xdr.schema_of_value v in
  List.iter
    (fun (label, source) ->
      let n = Ilp.marshal_size source in
      let backing = Bytebuf.create (n + 8) in
      Bytebuf.fill backing '\xA5';
      let dst = Bytebuf.sub backing ~pos:0 ~len:(n - 1) in
      (match Ilp.run_marshal ~dst source seam_plan with
      | _ -> Alcotest.failf "%s: undersized dst accepted" label
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) (label ^ ": byte past the slice") 0xA5
        (Bytebuf.get_uint8 backing (n - 1)))
    [
      ("ber", Ilp.Marshal_ber v);
      ("xdr compiled", Ilp.Marshal_prog (Schema.prog_of_xdr schema, v));
      ("xdr interpretive", Ilp.Marshal_xdr_interp (schema, v));
    ]

(* GC words of one call, after two warm-up calls: whatever a first run
   sets up is paid there, not measured. *)
let words f =
  f ();
  f ();
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let aead_params =
  {
    Ilp.aead_key = Cipher.Chacha20.key_of_int64 0x5EA1L;
    aead_n0 = 1;
    aead_n1 = 2;
    aead_n2 = 3;
    aead_aad = Bytebuf.of_string "stream:1 index:2";
  }

(* An int array that encodes to exactly [bytes] in XDR (count + lanes). *)
let ints_of_bytes bytes =
  Value.int_array (Array.init ((bytes - 4) / 4) (fun i -> (i * 7919) - 5000))

let test_runner_words_flat () =
  (* Every runner's GC words are a per-run constant: the same at 64 B
     as at 4 KB, so nothing is allocated per block or per element. *)
  let flat label run =
    Alcotest.(check int)
      (label ^ ": words at 64 B = at 4 KB")
      (words (run 64)) (words (run 4096))
  in
  let crc_copy = [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ] in
  let inet_copy = [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ] in
  flat "run_fused [crc32; copy]" (fun n ->
      let src = Bytebuf.of_string (String.init n (fun i -> Char.chr (i land 255))) in
      let dst = Bytebuf.create n in
      fun () -> ignore (Ilp.run_fused ~dst crc_copy src));
  let marshal plan n =
    let v = ints_of_bytes n in
    let source = Ilp.Marshal_prog (Schema.prog_of_xdr (Xdr.schema_of_value v), v) in
    let dst = Bytebuf.create n in
    fun () -> ignore (Ilp.run_marshal ~dst source plan)
  in
  flat "run_marshal [aead-seal; crc32; copy]"
    (marshal
       [
         Ilp.Aead_seal aead_params;
         Ilp.Checksum Checksum.Kind.Crc32;
         Ilp.Deliver_copy;
       ]);
  flat "run_marshal [internet; copy]" (marshal inet_copy);
  flat "run_view [internet; copy]" (fun n ->
      let v = ints_of_bytes n in
      let schema = Xdr.schema_of_value v in
      let prog = Schema.prog_of_xdr schema in
      let src = Xdr.encode schema v in
      let dst = Bytebuf.create n in
      fun () -> ignore (Ilp.run_view ~dst inet_copy prog src))

(* A view of bytes already opened, as a transport's stage 2 takes it: in
   place under the empty plan there is no plan to look up and no pass to
   run, only the validation and the view. *)
let test_view_in_place_words () =
  let v = ints_of_bytes 4096 in
  let schema = Xdr.schema_of_value v in
  let prog = Schema.prog_of_xdr schema in
  let payload = Xdr.encode schema v in
  let w = words (fun () -> ignore (Ilp.run_view ~dst:payload [] prog payload)) in
  Alcotest.(check bool)
    (Printf.sprintf "run_view in place: at most 24 GC words (read %d)" w)
    true (w <= 24)

let test_block_ops_allocate_nothing () =
  (* Through run_view with a separate destination every stage goes
     through the block driver (no whole-plan kernel), and a static
     content-free schema makes validation one bounds check: a run over
     1,001 blocks may cost no more words than a run over one. *)
  let prog = Schema.prog_of_xdr Xdr.S_hyper in
  List.iter
    (fun stage ->
      let run blocks =
        let n = 64 * blocks in
        let src = Bytebuf.of_string (String.init n (fun i -> Char.chr (i land 0xff))) in
        let dst = Bytebuf.create (64 * blocks) in
        fun () -> ignore (Ilp.run_view ~dst [ stage ] prog src)
      in
      Alcotest.(check int)
        (Ilp.stage_name stage ^ ": words over 1,000 more blocks")
        (words (run 1)) (words (run 1001)))
    [
      Ilp.Checksum Checksum.Kind.Internet;
      Ilp.Checksum Checksum.Kind.Crc32;
      Ilp.Aead_seal aead_params;
      Ilp.Aead_open aead_params;
      Ilp.Xor_pad { key = 7L; pos = 3L };
      Ilp.Deliver_copy;
    ]

let () =
  Alcotest.run "marshal"
    [
      ( "fused marshal",
        [
          Alcotest.test_case "into dst" `Quick test_marshal_into_dst;
          Alcotest.test_case "byteswap rejected" `Quick test_byteswap_rejected;
          Alcotest.test_case "cache counters" `Quick test_marshal_cache_counters;
          qcheck prop_marshal_equals_fused_ber;
          qcheck prop_marshal_equals_fused_xdr;
        ] );
      ( "block driver",
        [
          Alcotest.test_case "seam at 63..129 bytes" `Quick test_block_seam;
          Alcotest.test_case "undersized dst" `Quick test_undersized_dst;
          Alcotest.test_case "runner words flat in length" `Quick
            test_runner_words_flat;
          Alcotest.test_case "view in place words" `Quick
            test_view_in_place_words;
          Alcotest.test_case "block ops allocate nothing" `Quick
            test_block_ops_allocate_nothing;
        ] );
      ( "fused unmarshal",
        [
          Alcotest.test_case "in place" `Quick test_unmarshal_in_place;
          qcheck prop_unmarshal_round_trip;
          qcheck prop_unmarshal_round_trip_xdr;
          qcheck prop_unmarshal_trailing_garbage;
        ] );
      ( "transport",
        [
          Alcotest.test_case "send_value end to end" `Quick
            test_send_value_end_to_end;
          Alcotest.test_case "wire parity with send_adu" `Quick
            test_send_value_matches_send_adu_wire;
          Alcotest.test_case "zero-alloc transmit" `Quick
            test_send_value_zero_alloc;
          Alcotest.test_case "sealed transmit words" `Quick
            test_sealed_send_value_words;
          qcheck prop_writer_matches_oracle;
          Alcotest.test_case "loadgen and hostile = oracle" `Quick
            test_loadgen_hostile_match_oracle;
        ] );
    ]
