(* Decoder robustness: arbitrary bytes into every wire parser in the
   repository. A parser may reject input only through its documented
   channel (its own exception or result type); anything else — internal
   assertion failures, Invalid_argument from bounds arithmetic, stack
   overflow — is a bug this suite exists to catch. *)

open Bufkit

let qcheck t = QCheck_alcotest.to_alcotest t

let arb_bytes =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Hexdump.pp_string s)
    QCheck.Gen.(string_size (0 -- 300))

(* Mutated-valid inputs reach deeper branches than pure noise. *)
let arb_mutated_of make =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Hexdump.pp_string s)
    QCheck.Gen.(
      let* seed = int_bound 1000 in
      let base = Bytebuf.to_string (make seed) in
      let* n_mutations = int_range 1 8 in
      let* mutations =
        list_size (return n_mutations) (pair (int_bound 10000) (int_bound 255))
      in
      let b = Bytes.of_string base in
      List.iter
        (fun (pos, v) ->
          if Bytes.length b > 0 then
            Bytes.set b (pos mod Bytes.length b) (Char.chr v))
        mutations;
      return (Bytes.to_string b))

let never_crashes name decode arb =
  QCheck.Test.make ~name ~count:1000 arb (fun s ->
      match decode (Bytebuf.of_string s) with
      | _ -> true
      | exception Wire.Ber.Decode_error _ -> true
      | exception Wire.Xdr.Error _ -> true
      | exception Wire.Lwts.Error _ -> true
      | exception Atmsim.Cell.Header_error _ -> true
      (* Anything else (Invalid_argument, Assert_failure, Bounds...)
         fails the property. *))

(* Valid-instance generators for the mutation corpus. *)
let valid_adu seed =
  Alf_core.Adu.encode
    (Alf_core.Adu.make
       (Alf_core.Adu.name ~dest_off:(seed * 13) ~dest_len:(seed mod 50)
          ~stream:(seed mod 100) ~index:seed ())
       (Bytebuf.init (seed mod 80) (fun i -> Char.chr ((i + seed) land 0xff))))

let valid_fragment seed =
  List.nth
    (Alf_core.Framing.fragment ~mtu:64
       (Alf_core.Adu.make
          (Alf_core.Adu.name ~stream:1 ~index:seed ())
          (Bytebuf.create (40 + (seed mod 100)))))
    0

let valid_segment seed =
  Transport.Segment.encode
    {
      Transport.Segment.seq = Transport.Seq32.of_int (seed * 7);
      ack = Transport.Seq32.of_int seed;
      flags = Transport.Segment.no_flags;
      wnd = seed;
      payload = Bytebuf.create (seed mod 60);
    }

let valid_ber seed =
  Wire.Ber.encode
    (Wire.Value.List
       [ Wire.Value.Int seed; Wire.Value.Utf8 "x"; Wire.Value.Octets "yz" ])

let valid_cell seed =
  Atmsim.Cell.encode
    (Atmsim.Cell.make ~vci:(seed land 0xFFFF)
       (Bytebuf.init 48 (fun i -> Char.chr ((i * seed) land 0xff))))

let segment_decode buf =
  match Transport.Segment.decode buf with Ok _ | Error _ -> ()

let aal34_push buf =
  if Bytebuf.length buf = 48 then begin
    let r = Atmsim.Aal34.reassembler ~deliver:(fun ~mid:_ _ -> ()) in
    Atmsim.Aal34.push r buf
  end

let aal5_push buf =
  if Bytebuf.length buf = 48 then begin
    let r = Atmsim.Aal5.reassembler ~deliver:(fun _ -> ()) () in
    Atmsim.Aal5.push r buf ~eof:true
  end

let fec_push buf =
  let d = Alf_core.Fec.decoder ~deliver:(fun _ -> ()) () in
  Alf_core.Fec.push d buf;
  Alf_core.Fec.flush d

let text_decode buf = ignore (Wire.Text.of_network buf)

let ber_decode buf = ignore (Wire.Ber.decode buf)
let ber_int_array buf = ignore (Wire.Ber.decode_int_array buf)

let xdr_decode buf =
  ignore (Wire.Xdr.decode (Wire.Xdr.S_array Wire.Xdr.S_string) buf)

let lwts_decode buf =
  ignore (Wire.Lwts.decode (Wire.Xdr.S_struct [ Wire.Xdr.S_int; Wire.Xdr.S_opaque ]) buf)

(* The ADU and fragment targets go through the datagram reader: a
   verdict for every input, never an exception. *)
let adu_header = Alf_core.Adu.header ()

let adu_decode buf =
  ignore
    (Alf_core.Adu.read_header adu_header buf ~pos:0 ~len:(Bytebuf.length buf))

let reader = Alf_core.Framing.view ()

(* Unsealed, then as if sealed; a lone fragment's ADU is read too. *)
let frag_parse buf =
  let module F = Alf_core.Framing in
  (match F.read reader None buf with
  | F.Valid when reader.F.kind = F.Data && reader.F.nfrags = 1 ->
      adu_decode (Bytebuf.sub buf ~pos:reader.F.chunk_off ~len:reader.F.chunk_len)
  | _ -> ());
  ignore (F.read reader (Some Checksum.Kind.Crc32) buf)

let cell_decode buf = if Bytebuf.length buf = 53 then ignore (Atmsim.Cell.decode buf)

(* --- the serve engine's full shard dispatch under a byte-level
   datagram storm ---

   >= 10^6 seeded cases through ingest -> stage-0 validation -> demux ->
   shard dispatch: random bytes, bit-flipped valid datagrams (CRC-32
   detects every single-bit error, so each must land in a malformed
   reason), truncations at every boundary of every corpus datagram, and
   duplicated/reordered valid control. Invariants: nothing raises, an
   honest session interleaved with the storm still completes exactly,
   arrivals = accepted + drops, and the malformed-shape drop total
   equals the injected-malformed count to the datagram (the driver pumps
   often enough that backpressure never intercepts one). *)
let test_serve_dispatch_storm () =
  let module Server = Alf_serve.Server in
  let module Ingress = Alf_serve.Ingress in
  let open Alf_core in
  let integrity = Some Checksum.Kind.Crc32 in
  let engine = Netsim.Engine.create () in
  let registry = Obs.Registry.create () in
  let rx_buf_size = 512 in
  let server =
    Server.create ~sched:(Netsim.Engine.sched engine) ~registry
      ~config:
        {
          Server.default_config with
          Server.shards = 4;
          rx_buf_size;
          harvest_interval = 0.;
          (* Policing has its own tests; unlimited buckets here keep the
             wellformed corpus out of the policy counters so malformed
             accounting stays exact. *)
          admit_burst = 1e9;
          ctl_burst = 1e9;
        }
      ()
  in
  let seal = Ctl.seal integrity in
  let rng = Netsim.Rng.create ~seed:0xF0CC1AL in
  (* Corpus: sealed valid datagrams of every kind the engine serves. *)
  let corpus =
    Array.of_list
      (List.concat_map
         (fun stream ->
           let payload =
             Bytebuf.init (32 + (stream * 7 mod 64)) (fun i ->
                 Char.chr ((i + stream) land 0xff))
           in
           let single =
             Framing.fragment ~mtu:400
               (Adu.make (Adu.name ~stream ~index:0 ()) payload)
           in
           let multi =
             Framing.fragment ~mtu:77
               (Adu.make (Adu.name ~stream ~index:1 ()) payload)
           in
           List.map seal
             (single @ multi
             @ [
                 Ctl.build (Ctl.write_close ~stream ~total:(stream mod 5));
                 Ctl.build (Ctl.write_done ~stream);
                 Ctl.build (fun b -> Ctl.write_nack b ~stream ~have_below:0 [ 1; 2 ]);
                 Ctl.build (fun b -> Ctl.write_gone b ~stream [ 0; 3 ]);
               ]))
         [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  let pick () = corpus.(Netsim.Rng.int rng ~bound:(Array.length corpus)) in
  let malformed = ref 0 and injected = ref 0 and since_pump = ref 0 in
  let shoot buf =
    incr injected;
    incr since_pump;
    Server.ingest server ~src:5
      ~src_port:(3100 + Netsim.Rng.int rng ~bound:4)
      buf;
    if !since_pump >= 256 then begin
      since_pump := 0;
      Server.pump server
    end
  in
  (* The honest session the storm must not displace. *)
  let honest_stream = 900 and honest_port = 3001 in
  let honest_payload = Bytebuf.of_string (String.make 48 'h') in
  List.iter
    (fun index ->
      List.iter
        (fun f -> Server.ingest server ~src:5 ~src_port:honest_port (seal f))
        (Framing.fragment ~mtu:77
           (Adu.make (Adu.name ~stream:honest_stream ~index ()) honest_payload)))
    [ 0; 1 ];
  Server.pump server;
  (* Truncations at every boundary of every corpus datagram. *)
  Array.iter
    (fun base ->
      for l = 1 to Bytebuf.length base - 1 do
        incr malformed;
        shoot (Bytebuf.take (Bytebuf.copy base) l)
      done)
    corpus;
  (* The seeded storm up to the case target. *)
  let target = 1_000_000 in
  let scratch = Bytebuf.create rx_buf_size in
  while !injected < target do
    match Netsim.Rng.int rng ~bound:8 with
    | 0 | 1 ->
        (* Random bytes, random length. *)
        let len = 1 + Netsim.Rng.int rng ~bound:rx_buf_size in
        let b = Bytebuf.take scratch len in
        Netsim.Rng.fill_bytes rng b;
        incr malformed;
        shoot b
    | 2 | 3 | 4 ->
        (* One flipped bit in a valid datagram. *)
        let b = Bytebuf.copy (pick ()) in
        let pos = Netsim.Rng.int rng ~bound:(Bytebuf.length b) in
        let bit = 1 lsl Netsim.Rng.int rng ~bound:8 in
        Bytebuf.set_uint8 b pos (Bytebuf.get_uint8 b pos lxor bit);
        incr malformed;
        shoot b
    | 5 ->
        (* A random truncation. *)
        let base = pick () in
        let l = 1 + Netsim.Rng.int rng ~bound:(Bytebuf.length base - 1) in
        incr malformed;
        shoot (Bytebuf.take (Bytebuf.copy base) l)
    | _ ->
        (* Valid datagrams replayed out of order and duplicated. *)
        shoot (Bytebuf.copy (pick ()))
  done;
  Server.pump server;
  (* Close the honest session after the storm: still there, completes. *)
  Server.ingest server ~src:5 ~src_port:honest_port
    (seal (Ctl.build (Ctl.write_close ~stream:honest_stream ~total:2)));
  Server.pump server;
  (match
     Server.session_view server ~peer:5 ~peer_port:honest_port
       ~stream:honest_stream
   with
  | Some v ->
      Alcotest.(check bool) "honest session completed" true v.Server.v_completed;
      Alcotest.(check int) "honest ADUs delivered" 2 v.Server.v_delivered
  | None -> Alcotest.fail "honest session displaced by the storm");
  let totals = Server.totals server in
  Alcotest.(check bool)
    (Printf.sprintf "case target reached (%d)" !injected)
    true
    (!injected >= target);
  Alcotest.(check int) "every arrival classified exactly once"
    totals.Server.arrivals
    (totals.Server.accepted + totals.Server.dropped);
  Alcotest.(check int) "no backpressure intercepted the accounting" 0
    totals.Server.drops.(Ingress.reason_index Ingress.Backpressure);
  Alcotest.(check int) "zero dispatch errors" 0
    totals.Server.drops.(Ingress.reason_index Ingress.Dispatch_error);
  Alcotest.(check int) "malformed drops = injected malformed" !malformed
    (Server.malformed_drops totals);
  Server.stop server

(* Live endpoints fed raw garbage datagrams from a hostile peer. *)
let prop_endpoints_survive_garbage =
  QCheck.Test.make ~name:"live ALF/RPC endpoints survive garbage" ~count:200
    QCheck.(pair (small_list (string_of_size Gen.(0 -- 120))) int64)
    (fun (datagrams, seed) ->
      let open Netsim in
      let engine = Engine.create () in
      let rng = Rng.create ~seed in
      let net =
        Topology.point_to_point ~engine ~rng ~bandwidth_bps:10e6 ~delay:0.001
          ~a:1 ~b:2 ()
      in
      let attacker = Transport.Udp.create ~engine ~node:net.Topology.a () in
      let victim = Transport.Udp.create ~engine ~node:net.Topology.b () in
      let _receiver =
        Alf_core.Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Alf_core.Dgram.of_udp victim) ~port:700 ~stream:1
          ~deliver:(fun _ -> ()) ()
      in
      let _sender =
        Alf_core.Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Alf_core.Dgram.of_udp victim) ~peer:1 ~peer_port:9
          ~port:701 ~stream:1 ~policy:Alf_core.Recovery.No_recovery ()
      in
      let server = Rpcsim.Rpc.server ~engine ~udp:victim ~port:702 in
      Rpcsim.Rpc.register server ~proc:1 ~args:[] (fun _ -> Wire.Value.Null);
      let _responder =
        Alf_core.Session.listen ~engine ~io:(Alf_core.Dgram.of_udp victim)
          ~port:703 ~supported:[ "ber" ]
          ~on_session:(fun ~peer:_ _ -> ())
          ()
      in
      List.iteri
        (fun i payload ->
          let port = 700 + (i mod 4) in
          ignore
            (Transport.Udp.send attacker ~dst:2 ~dst_port:port
               ~src_port:60000 (Bytebuf.of_string payload)))
        datagrams;
      Engine.run ~until:5.0 engine;
      true)

let () =
  Alcotest.run "fuzz"
    [
      ( "random-bytes",
        [
          qcheck (never_crashes "ber decode" ber_decode arb_bytes);
          qcheck (never_crashes "ber int-array decode" ber_int_array arb_bytes);
          qcheck (never_crashes "xdr decode" xdr_decode arb_bytes);
          qcheck (never_crashes "lwts decode" lwts_decode arb_bytes);
          qcheck (never_crashes "adu decode" adu_decode arb_bytes);
          qcheck (never_crashes "fragment parse" frag_parse arb_bytes);
          qcheck (never_crashes "segment decode" segment_decode arb_bytes);
          qcheck (never_crashes "text decode" text_decode arb_bytes);
          qcheck (never_crashes "fec push" fec_push arb_bytes);
        ] );
      ( "live-endpoints",
        [ qcheck prop_endpoints_survive_garbage ] );
      ( "serve-dispatch",
        [
          Alcotest.test_case "10^6 datagrams through shard dispatch" `Slow
            test_serve_dispatch_storm;
        ] );
      ( "mutated-valid",
        [
          qcheck (never_crashes "mutated adu" adu_decode (arb_mutated_of valid_adu));
          qcheck
            (never_crashes "mutated fragment" frag_parse (arb_mutated_of valid_fragment));
          qcheck
            (never_crashes "mutated segment" segment_decode (arb_mutated_of valid_segment));
          qcheck (never_crashes "mutated ber" ber_decode (arb_mutated_of valid_ber));
          qcheck (never_crashes "mutated cell" cell_decode (arb_mutated_of valid_cell));
          qcheck
            (never_crashes "mutated cell as aal34 pdu" aal34_push
               (arb_mutated_of (fun s -> Bytebuf.take (valid_cell s) 48)));
          qcheck
            (never_crashes "mutated cell as aal5 payload" aal5_push
               (arb_mutated_of (fun s -> Bytebuf.take (valid_cell s) 48)));
        ] );
    ]
