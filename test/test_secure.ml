(* The AEAD record layer: ChaCha20/Poly1305 sealing as it rides the
   transport. The contract under test is threefold: sealing is invisible
   to an honest peer (round-trip identity, in and out of order, across
   rekeys), every forged or tampered bit is a counted auth failure and
   never a panic, and the fused plan stages agree bit-for-bit with the
   serial oracle — including across Ilp_par worker domains. *)

open Bufkit
open Netsim
open Alf_core

let qcheck t = QCheck_alcotest.to_alcotest t

let record ?dir () = Secure.Record.of_int64 ?dir 0x5EC7E57L

let name ~index ~len =
  Adu.name ~dest_off:(index * len) ~dest_len:len ~stream:9 ~index ()

let payload_of ~index ~len =
  Bytebuf.of_string (String.init len (fun j -> Char.chr ((index + j) land 0xff)))

let adu_of ~index ~len = Adu.make (name ~index ~len) (payload_of ~index ~len)

(* --- Record seal/open --- *)

(* Boundary lengths around the 64-byte ChaCha20 block: empty payloads,
   one byte, one under/at/over a block — the same edge family the
   Crc32.combine len2=0 fix guards. *)
let test_record_boundary_lengths () =
  let rc = record () in
  List.iter
    (fun len ->
      let adu = adu_of ~index:3 ~len in
      let sealed = Secure.Record.seal_adu rc adu in
      Alcotest.(check int)
        (Printf.sprintf "sealed length (%d)" len)
        (len + Secure.Record.overhead)
        (Bytebuf.length sealed.Adu.payload);
      match Secure.Record.open_adu rc sealed with
      | Ok opened ->
          Alcotest.(check string)
            (Printf.sprintf "round trip (%d)" len)
            (Bytebuf.to_string adu.Adu.payload)
            (Bytebuf.to_string opened.Adu.payload)
      | Error e -> Alcotest.fail (Printf.sprintf "open (%d): %s" len e))
    [ 0; 1; 63; 64; 65 ]

let test_record_out_of_order_open () =
  let tx = record () and rx = record () in
  let sealed =
    List.map (fun i -> Secure.Record.seal_adu tx (adu_of ~index:i ~len:100))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  (* Open in scrambled order: per-ADU nonces chain no state. *)
  List.iter
    (fun i ->
      match Secure.Record.open_adu rx (List.nth sealed i) with
      | Ok opened ->
          Alcotest.(check string) "content"
            (Bytebuf.to_string (payload_of ~index:i ~len:100))
            (Bytebuf.to_string opened.Adu.payload)
      | Error e -> Alcotest.fail e)
    [ 4; 0; 5; 2; 1; 3 ]

let test_record_wrong_key_fails () =
  let tx = record () and rx = Secure.Record.of_int64 0xBADL in
  let sealed = Secure.Record.seal_adu tx (adu_of ~index:0 ~len:40) in
  match Secure.Record.open_adu rx sealed with
  | Ok _ -> Alcotest.fail "foreign key accepted"
  | Error _ -> ()

let test_record_runt_payload_fails () =
  let rx = record () in
  (* Shorter than the trailer: must be a counted refusal, not a raise. *)
  match
    Secure.Record.open_payload rx (name ~index:0 ~len:8)
      (Bytebuf.of_string "too-short")
  with
  | Ok _ -> Alcotest.fail "runt accepted"
  | Error _ -> ()

(* Epoch rekeying: the receiver's two-epoch window accepts cur-1..cur+1
   and rolls forward on a verified newer epoch. *)
let test_record_epoch_window () =
  let tx = record () and rx = record () in
  let old = Secure.Record.seal_adu tx (adu_of ~index:0 ~len:50) in
  Secure.Record.rekey tx;
  Alcotest.(check int) "sender epoch" 1 (Secure.Record.epoch tx);
  let fresh = Secure.Record.seal_adu tx (adu_of ~index:1 ~len:50) in
  (* cur+1 verifies and rolls the receiver window forward... *)
  (match Secure.Record.open_adu rx fresh with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("epoch cur+1 refused: " ^ e));
  Alcotest.(check int) "window rolled" 1 (Secure.Record.epoch rx);
  (* ...and a retransmission sealed before the rekey still opens. *)
  (match Secure.Record.open_adu rx old with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("epoch cur-1 refused: " ^ e));
  (* Two rekeys ahead is outside the window: refused even with the key. *)
  Secure.Record.rekey tx;
  Secure.Record.rekey tx;
  let far = Secure.Record.seal_adu tx (adu_of ~index:2 ~len:50) in
  match Secure.Record.open_adu rx far with
  | Ok _ -> Alcotest.fail "epoch cur+2 accepted"
  | Error _ -> ()

let test_record_dir_separates_keys () =
  let a = record ~dir:0 () and b = record ~dir:1 () in
  let sealed = Secure.Record.seal_adu a (adu_of ~index:0 ~len:32) in
  match Secure.Record.open_adu b sealed with
  | Ok _ -> Alcotest.fail "cross-direction record accepted"
  | Error _ -> ()

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record: seal/open round-trips any payload"
    ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (int_bound 10_000))
    (fun (s, index) ->
      let rc = record () in
      let adu =
        Adu.make
          (Adu.name ~dest_off:(index * 7) ~dest_len:(String.length s)
             ~stream:2 ~index ())
          (Bytebuf.of_string s)
      in
      match Secure.Record.open_adu rc (Secure.Record.seal_adu rc adu) with
      | Ok opened -> Bytebuf.to_string opened.Adu.payload = s
      | Error _ -> false)

(* Every single-bit flip anywhere in the sealed payload — ciphertext,
   epoch word or tag — must fail authentication, quietly. *)
let prop_record_tamper_any_bit =
  let len = 45 in
  QCheck.Test.make ~name:"record: any flipped bit fails auth" ~count:400
    QCheck.(int_bound (((len + Secure.Record.overhead) * 8) - 1))
    (fun bit ->
      let rc = record () in
      let sealed = Secure.Record.seal_adu rc (adu_of ~index:7 ~len) in
      let p = Bytebuf.copy sealed.Adu.payload in
      Bytebuf.set_uint8 p (bit / 8)
        (Bytebuf.get_uint8 p (bit / 8) lxor (1 lsl (bit mod 8)));
      match Secure.Record.open_adu rc (Adu.make sealed.Adu.name p) with
      | Ok _ -> false
      | Error _ -> true)

(* Flipping any AAD-covered header field — stream, index, placement —
   must also fail auth: a unit cannot be replayed under another name. *)
let prop_record_tamper_name =
  QCheck.Test.make ~name:"record: renamed unit fails auth" ~count:200
    QCheck.(pair (int_range 0 3) (int_range 1 1000))
    (fun (field, delta) ->
      let rc = record () in
      let sealed = Secure.Record.seal_adu rc (adu_of ~index:5 ~len:64) in
      let n = sealed.Adu.name in
      let forged =
        match field with
        | 0 -> Adu.name ~dest_off:n.Adu.dest_off ~dest_len:n.Adu.dest_len
                 ~stream:((n.Adu.stream + delta) land 0xffff)
                 ~index:n.Adu.index ()
        | 1 -> Adu.name ~dest_off:n.Adu.dest_off ~dest_len:n.Adu.dest_len
                 ~stream:n.Adu.stream ~index:(n.Adu.index + delta) ()
        | 2 -> Adu.name ~dest_off:(n.Adu.dest_off + delta)
                 ~dest_len:n.Adu.dest_len ~stream:n.Adu.stream
                 ~index:n.Adu.index ()
        | _ -> Adu.name ~dest_off:n.Adu.dest_off
                 ~dest_len:(n.Adu.dest_len + delta) ~stream:n.Adu.stream
                 ~index:n.Adu.index ()
      in
      match
        Secure.Record.open_adu rc (Adu.make forged sealed.Adu.payload)
      with
      | Ok _ -> false
      | Error _ -> true)

(* --- One record context, reset in place per record --- *)

(* A random run of rekeys, seals and opens through one record context
   gives the bytes, tags and verdicts that a fresh context per call gives.
   The fresh contexts are clones of a twin endpoint that sees the same
   rekeys and opens, so both epochs move alike. Opens take sealed records
   back, some with a tag or ciphertext bit flipped, through the
   whole-payload open or the in-place open of the encoded ADU; a failed
   open must leave the next one correct, and no nonce is reused: two
   records sealed through one context equal two fresh seals. *)
let gen_record_op =
  QCheck.Gen.(
    frequency
      [
        (1, return `Rekey);
        ( 4,
          map3
            (fun (stream, index) (dest_off, dest_len, ts) len ->
              `Seal
                ( Adu.name ~dest_off ~dest_len ~timestamp_us:ts ~stream ~index (),
                  len ))
            (pair (int_bound 0xFFFF) (int_bound 0x3FFF_FFFF))
            (triple (int_bound 0x3FFF_FFFF) (int_bound 0xFFFF) ui64)
            (oneof [ int_bound 6000; oneofl [ 0; 1; 63; 64; 65; 128 ] ]) );
        (4, map3 (fun k flip encoded -> `Open (k, flip, encoded)) nat (int_bound 2) bool);
      ])

let open_encoded rc (name : Adu.name) payload =
  let plen = Bytebuf.length payload in
  let enc = Bytebuf.create (Adu.header_size + plen) in
  Bytebuf.blit ~src:payload ~src_pos:0 ~dst:enc ~dst_pos:Adu.header_size ~len:plen;
  Adu.write_header enc ~pos:0 name ~plen
    ~payload_crc:(Checksum.Crc32.digest_sub payload ~pos:0 ~len:plen);
  let h = Adu.header () in
  assert (Adu.read_header h enc ~pos:0 ~len:(Bytebuf.length enc));
  if Secure.Record.open_encoded rc h enc ~pos:0 then
    Ok (Bytebuf.sub enc ~pos:Adu.header_size ~len:(plen - Secure.Record.overhead))
  else Error "refused"

let prop_record_context_reuse =
  QCheck.Test.make ~name:"record: one context = a fresh context per call"
    ~count:200
    QCheck.(pair int64 (make Gen.(list_size (1 -- 16) gen_record_op)))
    (fun (seed, ops) ->
      let ctx = Secure.Record.of_int64 ~dir:1 seed in
      let twin = Secure.Record.of_int64 ~dir:1 seed in
      let sealed = ref [||] in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | `Rekey ->
                Secure.Record.rekey ctx;
                Secure.Record.rekey twin;
                true
            | `Seal ((name : Adu.name), len) ->
                let plain =
                  String.init len (fun j -> Char.chr (((j * 13) + name.Adu.index) land 0xff))
                in
                let room () =
                  let b = Bytebuf.create (len + Secure.Record.overhead) in
                  Bytebuf.blit_from_string plain ~src_pos:0 ~dst:b ~dst_pos:0 ~len;
                  b
                in
                let mine = room () and fresh = room () in
                Secure.Record.seal_payload ctx name mine;
                Secure.Record.seal_payload (Secure.Record.clone twin) name fresh;
                sealed := Array.append !sealed [| (name, plain, mine) |];
                Bytebuf.equal mine fresh
            | `Open (_, _, _) when Array.length !sealed = 0 -> true
            | `Open (k, flip, encoded) ->
                let name, plain, record = !sealed.(k mod Array.length !sealed) in
                let n = Bytebuf.length record - Secure.Record.overhead in
                let copy () =
                  let c = Bytebuf.copy record in
                  let bit =
                    match flip with
                    | 1 -> Some (((n + 4) * 8) + (k mod 128))
                    | 2 when n > 0 -> Some (k mod (n * 8))
                    | _ -> None
                  in
                  Option.iter
                    (fun bit ->
                      Bytebuf.set_uint8 c (bit / 8)
                        (Bytebuf.get_uint8 c (bit / 8) lxor (1 lsl (bit mod 8))))
                    bit;
                  (c, bit <> None)
                in
                let mine, flipped = copy () and fresh, _ = copy () in
                let got =
                  if encoded then open_encoded ctx name mine
                  else Secure.Record.open_payload ctx name mine
                in
                let want =
                  Secure.Record.open_payload (Secure.Record.clone twin) name fresh
                in
                (match (got, want) with
                | Ok a, Ok b ->
                    (not flipped)
                    && Bytebuf.to_string a = Bytebuf.to_string b
                    && Bytebuf.to_string a = plain
                | Error _, Error _ -> true
                | _ -> false)
          in
          ok && Secure.Record.epoch ctx = Secure.Record.epoch twin)
        ops)

(* The context's seal and in-place open allocate nothing, at one block
   and at 64. *)
let test_record_context_words () =
  let rc = record () in
  List.iter
    (fun len ->
      let name = name ~index:3 ~len in
      let payload = Bytebuf.create (len + Secure.Record.overhead) in
      let words f =
        f ();
        let before = Gc.minor_words () in
        for _ = 1 to 10 do
          f ()
        done;
        int_of_float (Gc.minor_words () -. before)
      in
      Alcotest.(check int)
        (Printf.sprintf "seal words over ten %d-byte records" len)
        0
        (words (fun () -> Secure.Record.seal_payload rc name payload));
      let plen = Bytebuf.length payload in
      let enc = Bytebuf.create (Adu.header_size + plen) in
      Bytebuf.blit ~src:payload ~src_pos:0 ~dst:enc ~dst_pos:Adu.header_size
        ~len:plen;
      Adu.write_header enc ~pos:0 name ~plen
        ~payload_crc:(Checksum.Crc32.digest_sub payload ~pos:0 ~len:plen);
      let h = Adu.header () in
      assert (Adu.read_header h enc ~pos:0 ~len:(Bytebuf.length enc));
      let sealed = Bytebuf.copy enc in
      let opened = ref 0 in
      Alcotest.(check int)
        (Printf.sprintf "open words over ten %d-byte records" len)
        0
        (words (fun () ->
             if Secure.Record.open_encoded rc h enc ~pos:0 then incr opened;
             Bytebuf.blit ~src:sealed ~src_pos:0 ~dst:enc ~dst_pos:0
               ~len:(Bytebuf.length enc)));
      Alcotest.(check int) "every open authenticated" 11 !opened)
    [ 64; 4096 ]

(* --- Ilp_par: AEAD across worker domains --- *)

(* The pooled and serial executions of the same Aead_seal batch must
   produce identical ciphertext and identical tags — the deterministic
   sharding claim — and, unlike Rc4_stream, must not trip the
   needs_in_order serial fallback. *)
let test_ilp_par_aead_tag_agreement () =
  let key = Cipher.Chacha20.key_of_int64 0x9A9L in
  let aad = Bytebuf.of_string "batch-aad" in
  let adus =
    Array.init 16 (fun i -> adu_of ~index:i ~len:(200 + (17 * i)))
  in
  let plan adu =
    [
      Ilp.Aead_seal
        {
          Ilp.aead_key = key;
          aead_n0 = 0;
          aead_n1 = adu.Adu.name.Adu.stream;
          aead_n2 = adu.Adu.name.Adu.index;
          aead_aad = aad;
        };
      Ilp.Checksum Checksum.Kind.Crc32;
    ]
  in
  let serial = Ilp_par.run ~plan adus in
  let pool = Par.Pool.create ~domains:3 () in
  let parallel = Ilp_par.run ~pool ~plan adus in
  Par.Pool.shutdown pool;
  Alcotest.(check int) "no serial fallback" 0 parallel.Ilp_par.serial_fallback;
  Alcotest.(check bool) "ran on workers" true
    (parallel.Ilp_par.parallel_adus > 0);
  Array.iteri
    (fun i rs ->
      let rp = parallel.Ilp_par.results.(i) in
      Alcotest.(check string)
        (Printf.sprintf "ciphertext %d" i)
        (Bytebuf.to_string rs.Ilp.output)
        (Bytebuf.to_string rp.Ilp.output);
      Alcotest.(check bool)
        (Printf.sprintf "tag %d" i)
        true
        (rs.Ilp.tags = rp.Ilp.tags && List.length rs.Ilp.tags = 1))
    serial.Ilp_par.results

let test_ilp_par_rc4_still_serializes () =
  let adus = Array.init 8 (fun i -> adu_of ~index:i ~len:64) in
  let plan _ = [ Ilp.Rc4_stream { key = "ablate" } ] in
  let pool = Par.Pool.create ~domains:2 () in
  let o = Ilp_par.run ~pool ~plan adus in
  Par.Pool.shutdown pool;
  Alcotest.(check int) "all serial" 8 o.Ilp_par.serial_fallback;
  Alcotest.(check int) "none parallel" 0 o.Ilp_par.parallel_adus

(* --- Transport end-to-end under the record layer --- *)

let secure_world ~loss =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:42L in
  let net =
    Topology.point_to_point ~engine ~rng
      ~impair:(Impair.make ~loss ~reorder:0.3 ())
      ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
  let delivered = ref [] in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub)
      ~port:7000 ~stream:1 ~secure:(record ())
      ~deliver:(fun adu ->
        delivered :=
          (adu.Adu.name.Adu.index, Bytebuf.to_string adu.Adu.payload)
          :: !delivered)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2
      ~peer_port:7000 ~port:7001 ~stream:1 ~policy:Recovery.Transport_buffer
      ~secure:(record ()) ()
  in
  (engine, sender, receiver, delivered)

let test_transport_secure_clean () =
  let engine, sender, receiver, delivered =
    secure_world ~loss:0.0
  in
  for i = 0 to 19 do
    Alf_transport.send_adu sender (adu_of ~index:i ~len:600)
  done;
  Alf_transport.close sender;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  Alcotest.(check int) "all delivered" 20 (List.length !delivered);
  List.iter
    (fun (i, s) ->
      Alcotest.(check string) "plaintext restored"
        (Bytebuf.to_string (payload_of ~index:i ~len:600))
        s)
    !delivered;
  let st = Alf_transport.receiver_stats receiver in
  Alcotest.(check int) "no auth drops" 0 st.Alf_transport.adus_auth_dropped

(* Loss + reorder: fragments arrive out of order, ADUs complete out of
   order, and every one still opens — the reorder-safe nonce claim on
   the live transport, not just the Record unit. *)
let test_transport_secure_lossy_reordered () =
  let engine, sender, receiver, delivered =
    secure_world ~loss:0.08
  in
  for i = 0 to 49 do
    Alf_transport.send_adu sender (adu_of ~index:i ~len:2600)
  done;
  Alf_transport.close sender;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  Alcotest.(check int) "all delivered" 50 (List.length !delivered);
  let st = Alf_transport.receiver_stats receiver in
  Alcotest.(check bool) "deliveries out of order" true
    (st.Alf_transport.out_of_order > 0);
  Alcotest.(check int) "no auth drops" 0 st.Alf_transport.adus_auth_dropped;
  List.iter
    (fun (i, s) ->
      Alcotest.(check string) "plaintext restored"
        (Bytebuf.to_string (payload_of ~index:i ~len:2600))
        s)
    !delivered

(* send_value: the fused marshal+seal+CRC single pass against the
   receiver's open-at-deliver seam. The delivered payload must be the
   plaintext XDR encoding, byte for byte. *)
let test_transport_secure_send_value () =
  let engine, sender, receiver, delivered =
    secure_world ~loss:0.0
  in
  ignore receiver;
  let schema = Wire.Xdr.S_struct [ Wire.Xdr.S_int; Wire.Xdr.S_string ] in
  let value i =
    Wire.Value.Record
      [ ("k", Wire.Value.Int i); ("s", Wire.Value.Utf8 (String.make 37 'x')) ]
  in
  let expect = Array.init 8 (fun i -> Wire.Xdr.encode schema (value i)) in
  let prog = Wire.Schema.prog_of_xdr schema in
  let off = ref 0 in
  for i = 0 to 7 do
    let len = Bytebuf.length expect.(i) in
    Alf_transport.send_value sender
      ~name:(Adu.name ~dest_off:!off ~dest_len:len ~stream:1 ~index:i ())
      (Ilp.Marshal_prog (prog, value i));
    off := !off + len
  done;
  Alf_transport.close sender;
  Engine.run ~until:60.0 engine;
  Alcotest.(check int) "all delivered" 8 (List.length !delivered);
  List.iter
    (fun (i, s) ->
      Alcotest.(check string) "fused-sealed encoding restored"
        (Bytebuf.to_string expect.(i))
        s)
    !delivered

(* Stage 1 of the transport's receiver on sealed multi-fragment records:
   read, reassemble into a pooled buffer, open the record in place, then
   build the one ADU it delivers. The words per record are a fixed few —
   the delivered ADU and the clock reading of each datagram — whatever
   the record's length. *)
let test_receiver_stage1_words () =
  let engine = Engine.create () in
  let sched = Netsim.Engine.sched engine in
  let wire = Queue.create () in
  let io ~keep =
    {
      Dgram.send =
        (fun ~dst:_ ~dst_port:_ ~src_port:_ dg ->
          if keep then Queue.push (Bytebuf.copy dg) wire;
          true);
      bind = (fun ~port:_ _ -> ());
      max_payload = 65507;
    }
  in
  let handler = ref (fun ~src:_ ~src_port:_ (_ : Bytebuf.t) -> ()) in
  let rx_io = { (io ~keep:false) with Dgram.bind = (fun ~port:_ h -> handler := h) } in
  let delivered = ref 0 in
  let receiver =
    Alf_transport.receiver_io ~sched ~io:rx_io ~port:7000 ~stream:1
      ~secure:(record ()) ~reasm_pool:(Pool.create ~buf_size:8192 ())
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched ~io:(io ~keep:true) ~peer:2 ~peer_port:7000
      ~port:7001 ~stream:1 ~policy:Recovery.No_recovery ~secure:(record ()) ()
  in
  let records = 60 and warm = 10 in
  let prog = Wire.Schema.prog_of_xdr Wire.Xdr.S_opaque in
  for i = 0 to records - 1 do
    Alf_transport.send_value sender
      ~name:(Adu.name ~stream:1 ~index:i ())
      (Ilp.Marshal_prog (prog, Wire.Value.Octets (String.make 4000 (Char.chr i))))
  done;
  Engine.run ~until:0.001 engine;
  let per_record = Queue.length wire / records in
  Alcotest.(check int) "every datagram on the wire" (records * per_record)
    (Queue.length wire);
  let feed n =
    for _ = 1 to n * per_record do
      !handler ~src:2 ~src_port:7001 (Queue.pop wire)
    done
  in
  feed warm;
  let before = Gc.minor_words () in
  feed (records - warm);
  let words = (Gc.minor_words () -. before) /. float_of_int (records - warm) in
  Alcotest.(check int) "every record delivered" records !delivered;
  Alcotest.(check int) "no auth drops" 0
    (Alf_transport.receiver_stats receiver).Alf_transport.adus_auth_dropped;
  Alcotest.(check bool)
    (Printf.sprintf "at most 64 GC words per %d-fragment record (read %.1f)"
       per_record words)
    true (words <= 64.)

let () =
  Alcotest.run "secure"
    [
      ( "record",
        [
          Alcotest.test_case "boundary lengths" `Quick
            test_record_boundary_lengths;
          Alcotest.test_case "out-of-order open" `Quick
            test_record_out_of_order_open;
          Alcotest.test_case "wrong key fails" `Quick
            test_record_wrong_key_fails;
          Alcotest.test_case "runt payload fails" `Quick
            test_record_runt_payload_fails;
          Alcotest.test_case "epoch window" `Quick test_record_epoch_window;
          Alcotest.test_case "direction separation" `Quick
            test_record_dir_separates_keys;
          qcheck prop_record_roundtrip;
          qcheck prop_record_tamper_any_bit;
          qcheck prop_record_tamper_name;
          qcheck prop_record_context_reuse;
          Alcotest.test_case "context seal and open allocate nothing" `Quick
            test_record_context_words;
        ] );
      ( "ilp-par",
        [
          Alcotest.test_case "pooled tags agree with serial" `Quick
            test_ilp_par_aead_tag_agreement;
          Alcotest.test_case "rc4 ablation still serializes" `Quick
            test_ilp_par_rc4_still_serializes;
        ] );
      ( "transport",
        [
          Alcotest.test_case "clean secure transfer" `Quick
            test_transport_secure_clean;
          Alcotest.test_case "lossy reordered secure transfer" `Quick
            test_transport_secure_lossy_reordered;
          Alcotest.test_case "fused send_value" `Quick
            test_transport_secure_send_value;
          Alcotest.test_case "receiver stage-1 words per sealed record" `Quick
            test_receiver_stage1_words;
        ] );
    ]
