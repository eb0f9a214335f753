open Bufkit
open Netsim
open Alf_core
open Repro

let qcheck t = QCheck_alcotest.to_alcotest t
let buf = Bytebuf.of_string

(* --- Kernels --- *)

let prop_kernel_checksum_matches =
  QCheck.Test.make ~name:"kernels: word checksum = reference" ~count:500
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      Kernels.checksum (buf s) = Checksum.Internet.digest (buf s)
      && Kernels.checksum_bytes (buf s) = Checksum.Internet.digest (buf s))

let prop_kernel_copy =
  QCheck.Test.make ~name:"kernels: copies preserve bytes" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let d1 = Bytebuf.create (String.length s) in
      let d2 = Bytebuf.create (String.length s) in
      let d3 = Bytebuf.create (String.length s) in
      Kernels.copy ~src:(buf s) ~dst:d1;
      Kernels.copy_bytes ~src:(buf s) ~dst:d2;
      Kernels.copy_words ~src:(buf s) ~dst:d3;
      Bytebuf.to_string d1 = s && Bytebuf.to_string d2 = s
      && Bytebuf.to_string d3 = s)

let prop_kernel_fused_copy_checksum =
  QCheck.Test.make ~name:"kernels: fused copy+checksum = serial" ~count:500
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      let src = buf s in
      let d1 = Bytebuf.create (String.length s) in
      let d2 = Bytebuf.create (String.length s) in
      let fused = Kernels.copy_checksum ~src ~dst:d1 in
      let serial = Kernels.serial_copy_then_checksum ~src ~dst:d2 in
      fused = serial && Bytebuf.equal d1 d2 && Bytebuf.to_string d1 = s)

let prop_kernel_fused_xor =
  QCheck.Test.make ~name:"kernels: fused xor+copy+checksum = serial" ~count:300
    QCheck.(triple int64 (int_bound 1000) (string_of_size Gen.(0 -- 200)))
    (fun (key, posk, s) ->
      (* Cover both the 8-aligned fast path and odd positions. *)
      let stream_pos = Int64.of_int posk in
      let src = buf s in
      let d1 = Bytebuf.create (String.length s) in
      let d2 = Bytebuf.create (String.length s) in
      let fused = Kernels.copy_checksum_xor ~src ~dst:d1 ~key ~stream_pos in
      let serial = Kernels.serial_xor_copy_checksum ~src ~dst:d2 ~key ~stream_pos in
      fused = serial && Bytebuf.equal d1 d2)

let test_kernel_length_mismatch () =
  match Kernels.copy ~src:(buf "ab") ~dst:(Bytebuf.create 3) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- Machine model --- *)

let within pct a b = Float.abs (a -. b) <= pct /. 100.0 *. b

let test_model_table1 () =
  let m = Machine_model.mbps in
  Alcotest.(check bool) "uVax copy ~42" true
    (within 2.0 (m Machine_model.uvax3 Machine_model.copy_kernel) 42.0);
  Alcotest.(check bool) "uVax checksum ~60" true
    (within 2.0 (m Machine_model.uvax3 Machine_model.checksum_kernel) 60.0);
  Alcotest.(check bool) "R2000 copy ~130" true
    (within 2.0 (m Machine_model.r2000 Machine_model.copy_kernel) 130.0);
  Alcotest.(check bool) "R2000 checksum ~115" true
    (within 2.0 (m Machine_model.r2000 Machine_model.checksum_kernel) 115.0)

let test_model_ilp_fusion_prediction () =
  let fused =
    Machine_model.fuse [ Machine_model.copy_kernel; Machine_model.checksum_kernel ]
  in
  let fused_mbps = Machine_model.mbps Machine_model.r2000 fused in
  let serial =
    Machine_model.serial_mbps Machine_model.r2000
      [ Machine_model.copy_kernel; Machine_model.checksum_kernel ]
  in
  (* The paper: serial ≈ 60, fused ≈ 90 Mb/s on the R2000. *)
  Alcotest.(check bool) "serial ~60" true (within 5.0 serial 61.0);
  Alcotest.(check bool) "fused ~90" true (within 3.0 fused_mbps 90.0);
  Alcotest.(check bool) "fusion wins" true (fused_mbps > serial *. 1.2)

let test_model_presentation_prediction () =
  let conv = Machine_model.mbps Machine_model.r2000 Machine_model.ber_encode_int_kernel in
  (* The paper: hand-coded ASN.1 integer conversion ran at 28 Mb/s. *)
  Alcotest.(check bool) "ber-encode ~28" true (within 5.0 conv 28.0);
  let copy = Machine_model.mbps Machine_model.r2000 Machine_model.copy_kernel in
  let ratio = copy /. conv in
  Alcotest.(check bool) "4-5x slower than copy" true (ratio > 4.0 && ratio < 5.5)

let test_model_fused_convert_checksum () =
  let fused =
    Machine_model.fuse
      [ Machine_model.ber_encode_int_kernel; Machine_model.checksum_kernel ]
  in
  let v = Machine_model.mbps Machine_model.r2000 fused in
  (* The paper: adding the checksum to the conversion loop cost 28 -> 24. *)
  Alcotest.(check bool) "fused convert+checksum ~24-26" true (v >= 23.0 && v <= 27.0)

let test_model_fuse_algebra () =
  let f = Machine_model.fuse [ Machine_model.copy_kernel; Machine_model.checksum_kernel ] in
  Alcotest.(check string) "name" "copy+checksum" f.Machine_model.kernel_name;
  Alcotest.(check (float 1e-9)) "loads shared" 1.0 f.Machine_model.loads;
  Alcotest.(check (float 1e-9)) "stores shared" 1.0 f.Machine_model.stores;
  Alcotest.(check (float 1e-9)) "alu summed" 2.0 f.Machine_model.alu

let test_model_fused_never_slower () =
  let kernels =
    [ Machine_model.copy_kernel; Machine_model.checksum_kernel;
      Machine_model.ber_encode_int_kernel ]
  in
  List.iter
    (fun m ->
      let fused = Machine_model.mbps m (Machine_model.fuse kernels) in
      let serial = Machine_model.serial_mbps m kernels in
      Alcotest.(check bool) "fused >= serial" true (fused >= serial))
    [ Machine_model.uvax3; Machine_model.r2000 ]

let prop_model_fusion_always_wins =
  (* Structural truth of the cost model: sharing loads/stores and paying
     the loop once can never lose to separate passes. *)
  let arb_kernels =
    QCheck.make
      ~print:(fun ks ->
        String.concat "+" (List.map (fun k -> k.Machine_model.kernel_name) ks))
      QCheck.Gen.(
        list_size (1 -- 5)
          (map2
             (fun l (s, a) ->
               {
                 Machine_model.kernel_name = "k";
                 loads = float_of_int l /. 2.0;
                 stores = float_of_int s /. 2.0;
                 alu = float_of_int a /. 2.0;
               })
             (int_bound 8)
             (pair (int_bound 8) (int_bound 16))))
  in
  QCheck.Test.make ~name:"model: fused >= serial for any kernels" ~count:300
    arb_kernels (fun kernels ->
      List.for_all
        (fun m ->
          Machine_model.mbps m (Machine_model.fuse kernels)
          >= Machine_model.serial_mbps m kernels -. 1e-9)
        [ Machine_model.uvax3; Machine_model.r2000 ])

(* --- ILP engine --- *)

let arb_plan =
  let open QCheck.Gen in
  let stage =
    oneof
      [
        map (fun k -> Ilp.Checksum k) (oneofl Checksum.Kind.all);
        map2
          (fun key pos -> Ilp.Xor_pad { key; pos = Int64.of_int pos })
          int64 (int_bound 10000);
        return Ilp.Deliver_copy;
        return (Ilp.Rc4_stream { key = "test-key" });
      ]
  in
  QCheck.make
    ~print:(fun plan -> String.concat ";" (List.map Ilp.stage_name plan))
    (list_size (0 -- 5) stage)

let valid_plan plan = match Ilp.validate plan with Ok () -> true | Error _ -> false

let prop_ilp_fused_equals_layered =
  QCheck.Test.make ~name:"ilp: fused = interpreted = layered" ~count:500
    QCheck.(pair arb_plan (string_of_size Gen.(0 -- 100)))
    (fun (plan, s) ->
      QCheck.assume (valid_plan plan);
      let layered = Ilp.run_layered plan (buf s) in
      let fused = Ilp.run_fused plan (buf s) in
      let interp = Ilp.run_fused_interpreted plan (buf s) in
      Bytebuf.equal layered.Ilp.output fused.Ilp.output
      && Bytebuf.equal interp.Ilp.output fused.Ilp.output
      && layered.Ilp.checksums = fused.Ilp.checksums
      && interp.Ilp.checksums = fused.Ilp.checksums
      && fused.Ilp.passes = 1
      && not interp.Ilp.compiled)

let prop_ilp_byteswap_first_ok =
  QCheck.Test.make ~name:"ilp: leading byteswap fuses correctly" ~count:300
    QCheck.(pair (int_bound 25) (string_of_size Gen.(0 -- 0)))
    (fun (nwords, _) ->
      let s = String.init (nwords * 4) (fun i -> Char.chr ((i * 17) land 0xff)) in
      let plan = [ Ilp.Byteswap32; Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ] in
      let layered = Ilp.run_layered plan (buf s) in
      let fused = Ilp.run_fused plan (buf s) in
      Bytebuf.equal layered.Ilp.output fused.Ilp.output
      && layered.Ilp.checksums = fused.Ilp.checksums)

(* --- compiled instances: one instance, reused across runs of different
   lengths, in place and out of place, on slices at non-zero offsets,
   gives each run what a fresh [run_fused] gives. The plans cover every
   lowering: the four [Kernels] short-circuits and the general driver
   with and without a leading Byteswap32, with pad and AEAD stages. The
   AEAD params are rewritten before each run, as a record context does
   per record, and every plan a marshal source can feed also runs as a
   marshal instance against a fresh [run_marshal]. --- *)

let instance_plans key pos =
  let pad = Ilp.Xor_pad { key; pos } in
  let aead =
    {
      Ilp.aead_key = Cipher.Chacha20.key_of_int64 key;
      aead_n0 = 1;
      aead_n1 = Int64.to_int pos land 0xFFFF;
      aead_n2 = 3;
      aead_aad = Bytebuf.of_string "aad";
    }
  in
  let inet = Ilp.Checksum Checksum.Kind.Internet
  and crc = Ilp.Checksum Checksum.Kind.Crc32 in
  ( [|
      [];
      [ Ilp.Deliver_copy ];
      [ inet ];
      [ inet; Ilp.Deliver_copy ];
      [ Ilp.Deliver_copy; inet ];
      [ pad; inet; Ilp.Deliver_copy ];
      [ inet; pad; Ilp.Deliver_copy ];
      [ crc; Ilp.Deliver_copy ];
      [ Ilp.Byteswap32; crc; Ilp.Deliver_copy ];
      [ Ilp.Byteswap32; inet; pad; Ilp.Deliver_copy ];
      [ Ilp.Aead_seal aead; crc; Ilp.Deliver_copy ];
      [ crc; Ilp.Aead_open aead; inet; Ilp.Deliver_copy ];
      [ Ilp.Checksum Checksum.Kind.Fletcher16; pad; crc ];
      [ Ilp.Rc4_stream { key = "k" }; crc; Ilp.Deliver_copy ];
    |],
    aead )

(* (length, in place, source offset, destination offset, spare bytes). *)
let arb_instance_runs =
  QCheck.(
    triple (int_bound 13) (pair int64 (int_bound 100_000))
      (list_of_size Gen.(1 -- 4)
         (pair (int_bound 5000)
            (quad bool (int_bound 70) (int_bound 70) (int_bound 9)))))

let prop_ilp_instance_reuse =
  QCheck.Test.make ~name:"ilp: a reused instance = run_fused, every lowering"
    ~count:300 arb_instance_runs
    (fun (which, (key, pos), runs) ->
      let plans, aead = instance_plans key (Int64.of_int pos) in
      let plan = plans.(which) in
      let swap = match plan with Ilp.Byteswap32 :: _ -> true | _ -> false in
      let inst = Ilp.compile plan in
      (* A marshal source per run, XDR or BER by the run's parity. *)
      let opaque = Wire.Schema.prog_of_xdr Wire.Xdr.S_opaque in
      let source s spare =
        if spare land 1 = 0 then Ilp.Marshal_prog (opaque, Wire.Value.Octets s)
        else Ilp.Marshal_ber (Wire.Value.Octets s)
      in
      let minst =
        if swap then None else Some (Ilp.compile_marshal plan)
      in
      List.for_all
        (fun (len, (in_place, src_off, dst_off, spare)) ->
          (* A new record for this run: key, nonce and AAD length all move. *)
          aead.Ilp.aead_key <-
            Cipher.Chacha20.key_of_int64 (Int64.add key (Int64.of_int len));
          aead.Ilp.aead_n0 <- spare;
          aead.Ilp.aead_n2 <- src_off;
          let len = if swap then len land lnot 3 else len in
          let s = String.init len (fun i -> Char.chr ((i * 31 + len) land 0xff)) in
          let expect = Ilp.run_fused plan (buf s) in
          let backing = Bytes.make (src_off + len + 8) '\x5a' in
          Bytes.blit_string s 0 backing src_off len;
          let input = Bytebuf.sub (Bytebuf.of_bytes backing) ~pos:src_off ~len in
          let in_place = in_place && not swap in
          let dst =
            if in_place then input
            else
              Bytebuf.sub
                (Bytebuf.of_bytes (Bytes.make (dst_off + len + spare) '\x77'))
                ~pos:dst_off ~len:(len + spare)
          in
          Ilp.exec inst ~dst input;
          let spare_kept =
            in_place
            || String.equal
                 (Bytebuf.to_string (Bytebuf.sub dst ~pos:len ~len:spare))
                 (String.make spare '\x77')
          in
          let marshal_same =
            match minst with
            | None -> true
            | Some minst ->
                let src = source s spare in
                let want = Ilp.run_marshal src plan in
                let n = Ilp.marshal_size src in
                let mdst =
                  Bytebuf.sub
                    (Bytebuf.of_bytes (Bytes.make (dst_off + n) '\x33'))
                    ~pos:dst_off ~len:n
                in
                Ilp.exec_marshal minst ~dst:mdst src;
                Bytebuf.equal mdst want.Ilp.output
                && Ilp.checksums minst = want.Ilp.checksums
                && Ilp.tags minst = want.Ilp.tags
          in
          Bytebuf.equal (Bytebuf.take dst len) expect.Ilp.output
          && spare_kept && marshal_same
          && Ilp.checksums inst = expect.Ilp.checksums
          && Ilp.tags inst = expect.Ilp.tags
          && List.for_all2
               (fun i (_, v) -> Ilp.checksum inst i = v)
               (List.init (List.length expect.Ilp.checksums) Fun.id)
               expect.Ilp.checksums)
        runs)

(* The serve engine's stage-2 plan, run through its instance, allocates
   nothing: no lookup, clock, histogram or result. Nor does a sender's
   marshal instance over a held program, with or without a seal: the
   encoder, the stages and the tag slot all live in the instance. *)
let test_ilp_instance_words () =
  let crc_copy = [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ] in
  let zero label run =
    run ();
    run ();
    let before = Gc.minor_words () in
    for _ = 1 to 10 do
      run ()
    done;
    Alcotest.(check int)
      (label ^ ": words over ten runs")
      0
      (int_of_float (Gc.minor_words () -. before))
  in
  let inst = Ilp.compile crc_copy in
  let dst = Bytebuf.create 8192 in
  List.iter
    (fun n ->
      let input = Bytebuf.of_string (String.make n 'q') in
      zero (Printf.sprintf "exec %d B" n) (fun () -> Ilp.exec inst ~dst input))
    [ 64; 4096 ];
  let aead =
    {
      Ilp.aead_key = Cipher.Chacha20.key_of_int64 0x5EA1L;
      aead_n0 = 1;
      aead_n1 = 2;
      aead_n2 = 3;
      aead_aad = Bytebuf.of_string "stream:1 index:2";
    }
  in
  let prog = Wire.Schema.prog_of_xdr Wire.Xdr.S_opaque in
  List.iter
    (fun (label, plan) ->
      let inst = Ilp.compile_marshal plan in
      List.iter
        (fun n ->
          (* An opaque of [n - 4] bytes encodes to exactly [n]. *)
          let source =
            Ilp.Marshal_prog (prog, Wire.Value.Octets (String.make (n - 4) 'q'))
          in
          let dst = Bytebuf.create n in
          zero
            (Printf.sprintf "exec_marshal %s %d B" label n)
            (fun () -> Ilp.exec_marshal inst ~dst source))
        [ 64; 4096 ])
    [
      ("[crc32; copy]", crc_copy);
      ("[aead-seal; crc32; copy]", Ilp.Aead_seal aead :: crc_copy);
    ]

let test_ilp_validate_rules () =
  (match Ilp.validate [ Ilp.Deliver_copy; Ilp.Byteswap32 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "late byteswap accepted");
  (match Ilp.validate [ Ilp.Rc4_stream { key = "a" }; Ilp.Rc4_stream { key = "b" } ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double rc4 accepted");
  match Ilp.validate [ Ilp.Byteswap32; Ilp.Rc4_stream { key = "a" } ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_ilp_run_fused_rejects_invalid () =
  match Ilp.run_fused [ Ilp.Deliver_copy; Ilp.Byteswap32 ] (buf "abcd") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_ilp_byteswap_length_check () =
  match Ilp.run_fused [ Ilp.Byteswap32 ] (buf "abcde") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_ilp_needs_in_order () =
  Alcotest.(check bool) "rc4 forces order" true
    (Ilp.needs_in_order [ Ilp.Deliver_copy; Ilp.Rc4_stream { key = "x" } ]);
  Alcotest.(check bool) "pad does not" false
    (Ilp.needs_in_order
       [ Ilp.Xor_pad { key = 1L; pos = 0L }; Ilp.Checksum Checksum.Kind.Internet ])

let test_ilp_byteswap_involution () =
  let s = "abcdefgh" in
  let once = Ilp.run_layered [ Ilp.Byteswap32 ] (buf s) in
  let twice = Ilp.run_layered [ Ilp.Byteswap32 ] once.Ilp.output in
  Alcotest.(check string) "involution" s (Bytebuf.to_string twice.Ilp.output);
  Alcotest.(check string) "swapped" "dcbahgfe" (Bytebuf.to_string once.Ilp.output)

let test_ilp_passes_accounting () =
  let plan = [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ] in
  let layered = Ilp.run_layered plan (buf "0123456789") in
  Alcotest.(check int) "layered passes" 2 layered.Ilp.passes;
  Alcotest.(check bool) "layered touches more" true
    (layered.Ilp.bytes_touched > (Ilp.run_fused plan (buf "0123456789")).Ilp.bytes_touched)

let test_ilp_compilation_dispatch () =
  (* Every valid plan compiles now: the known shapes hit the hand-fused
     kernels, everything else lowers to the general word-combinator loop.
     The per-byte interpreter is only the oracle. *)
  let input = buf "0123456789abcdef" in
  let compiled_plans =
    [
      [];
      [ Ilp.Deliver_copy ];
      [ Ilp.Checksum Checksum.Kind.Internet ];
      [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ];
      [ Ilp.Xor_pad { key = 5L; pos = 16L }; Ilp.Deliver_copy ];
      [ Ilp.Xor_pad { key = 5L; pos = 0L }; Ilp.Checksum Checksum.Kind.Internet;
        Ilp.Deliver_copy ];
      [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Xor_pad { key = 5L; pos = 8L };
        Ilp.Deliver_copy ];
      (* Shapes the old compiler punted to the interpreter: *)
      [ Ilp.Checksum Checksum.Kind.Crc32 ];
      [ Ilp.Byteswap32; Ilp.Deliver_copy ];
      [ Ilp.Byteswap32; Ilp.Checksum Checksum.Kind.Fletcher32;
        Ilp.Xor_pad { key = 77L; pos = 3L }; Ilp.Checksum Checksum.Kind.Adler32;
        Ilp.Deliver_copy ];
      [ Ilp.Rc4_stream { key = "k" }; Ilp.Checksum Checksum.Kind.Internet;
        Ilp.Deliver_copy ];
      [ Ilp.Xor_pad { key = 5L; pos = 13L }; Ilp.Checksum Checksum.Kind.Internet;
        Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ];
    ]
  in
  List.iter
    (fun plan ->
      let r = Ilp.run_fused plan input in
      Alcotest.(check bool) "compiled" true r.Ilp.compiled;
      let i = Ilp.run_fused_interpreted plan input in
      Alcotest.(check bool) "same output" true (Bytebuf.equal r.Ilp.output i.Ilp.output);
      Alcotest.(check bool) "same checksums" true (r.Ilp.checksums = i.Ilp.checksums))
    compiled_plans

let test_ilp_checksum_sees_transformed_data () =
  (* A checksum after the cipher must cover ciphertext, not plaintext. *)
  let plan_after = [ Ilp.Xor_pad { key = 9L; pos = 0L }; Ilp.Checksum Checksum.Kind.Internet ] in
  let plan_before = [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Xor_pad { key = 9L; pos = 0L } ] in
  let input = buf "sensitive plaintext data" in
  let after = Ilp.run_fused plan_after input in
  let before = Ilp.run_fused plan_before input in
  Alcotest.(check bool) "orders differ" false (after.Ilp.checksums = before.Ilp.checksums);
  Alcotest.(check (list (pair (of_pp Checksum.Kind.pp) int)))
    "before = plaintext checksum"
    [ (Checksum.Kind.Internet, Checksum.Internet.digest input) ]
    before.Ilp.checksums

(* --- The plan compiler --- *)

let arb_general_plan =
  (* Full stage alphabet. Byteswap32 is only valid as the first stage, so
     it is generated there (sometimes), keeping the share of valid plans
     high without biasing the rest of the shape space. *)
  let open QCheck.Gen in
  let stage =
    frequency
      [
        (3, map (fun k -> Ilp.Checksum k) (oneofl Checksum.Kind.all));
        ( 3,
          map2
            (fun key pos -> Ilp.Xor_pad { key; pos = Int64.of_int pos })
            int64 (int_bound 10000) );
        (2, return Ilp.Deliver_copy);
        (1, return (Ilp.Rc4_stream { key = "general-key" }));
      ]
  in
  QCheck.make
    ~print:(fun plan -> String.concat ";" (List.map Ilp.stage_name plan))
    (map2
       (fun lead rest -> if lead then Ilp.Byteswap32 :: rest else rest)
       bool
       (list_size (0 -- 4) stage))

let prop_ilp_compiler_general =
  (* The tentpole property: every valid plan compiles, and the compiled
     word-at-a-time loop agrees with both oracles on outputs and checksum
     values — over lengths that include ragged (non-multiple-of-8)
     tails, so the word/byte seam is exercised. *)
  QCheck.Test.make ~name:"ilp: compiled = interpreted = layered, any plan/len"
    ~count:600
    QCheck.(pair arb_general_plan (int_bound 131))
    (fun (plan, len) ->
      QCheck.assume (valid_plan plan);
      let len = if List.mem Ilp.Byteswap32 plan then len - (len mod 4) else len in
      let s = String.init len (fun i -> Char.chr ((i * 131 + 17) land 0xff)) in
      let fused = Ilp.run_fused plan (buf s) in
      let interp = Ilp.run_fused_interpreted plan (buf s) in
      let layered = Ilp.run_layered plan (buf s) in
      fused.Ilp.compiled && fused.Ilp.passes = 1
      && Bytebuf.equal fused.Ilp.output interp.Ilp.output
      && Bytebuf.equal fused.Ilp.output layered.Ilp.output
      && fused.Ilp.checksums = interp.Ilp.checksums
      && fused.Ilp.checksums = layered.Ilp.checksums)

let prop_ilp_validate_shape_determined =
  (* validate and needs_in_order are functions of the plan's shape alone:
     keys and stream positions never change them. *)
  QCheck.Test.make ~name:"ilp: validate/needs_in_order are shape properties"
    ~count:400 arb_general_plan
    (fun plan ->
      let reparam =
        List.map
          (function
            | Ilp.Xor_pad _ -> Ilp.Xor_pad { key = 42L; pos = 98765L }
            | Ilp.Rc4_stream _ -> Ilp.Rc4_stream { key = "other-key" }
            | s -> s)
          plan
      in
      (match (Ilp.validate plan, Ilp.validate reparam) with
      | Ok (), Ok () | Error _, Error _ -> true
      | _ -> false)
      && Ilp.needs_in_order plan = Ilp.needs_in_order reparam
      && Ilp.needs_in_order plan
         = List.exists (function Ilp.Rc4_stream _ -> true | _ -> false) plan)

let prop_ilp_fused_agrees_with_validate =
  QCheck.Test.make ~name:"ilp: run_fused raises iff validate rejects" ~count:400
    arb_general_plan
    (fun plan ->
      let input = buf (String.make 20 'x') in
      match Ilp.run_fused plan input with
      | _ -> valid_plan plan
      | exception Invalid_argument _ -> not (valid_plan plan))

let test_ilp_run_fused_dst () =
  let plan =
    [
      Ilp.Xor_pad { key = 7L; pos = 3L };
      Ilp.Checksum Checksum.Kind.Internet;
      Ilp.Deliver_copy;
    ]
  in
  let input = buf "hello fused destination!" in
  let dst = Bytebuf.create (Bytebuf.length input) in
  let r = Ilp.run_fused ~dst plan input in
  Alcotest.(check bool) "output is dst itself" true (r.Ilp.output == dst);
  let r2 = Ilp.run_fused plan input in
  Alcotest.(check bool) "same bytes" true (Bytebuf.equal dst r2.Ilp.output);
  Alcotest.(check bool) "same checksums" true (r.Ilp.checksums = r2.Ilp.checksums);
  (match Ilp.run_fused ~dst:(Bytebuf.create 5) plan input with
  | _ -> Alcotest.fail "length mismatch accepted"
  | exception Invalid_argument _ -> ());
  (* General-loop plan with a short dst too. *)
  let gen_plan = [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ] in
  (match Ilp.run_fused ~dst:(Bytebuf.create 5) gen_plan input with
  | _ -> Alcotest.fail "length mismatch accepted (general)"
  | exception Invalid_argument _ -> ());
  (* In-place transform: dst = input is allowed without a leading
     Byteswap32 (word and byte steps read position i before writing it). *)
  let inplace = Bytebuf.copy input in
  let r3 = Ilp.run_fused ~dst:inplace plan inplace in
  Alcotest.(check bool) "in-place = out-of-place" true
    (Bytebuf.equal r3.Ilp.output r2.Ilp.output)

(* --- ADU --- *)

let arb_adu =
  let open QCheck.Gen in
  let gen =
    map2
      (fun (stream, index, dest_off) payload ->
        let name =
          Adu.name ~dest_off ~dest_len:(String.length payload)
            ~timestamp_us:(Int64.of_int (index * 1000))
            ~stream ~index ()
        in
        Adu.make name (Bytebuf.of_string payload))
      (triple (int_bound 0xFFFF) (int_bound 100000) (int_bound 1000000))
      (string_size (0 -- 200))
  in
  QCheck.make ~print:(Format.asprintf "%a" Adu.pp) gen

(* An encoded ADU read in place: [Some] the ADU, its payload a view of
   [wire], or [None] when the header does not check. *)
let read_adu wire =
  let h = Adu.header () in
  if Adu.read_header h wire ~pos:0 ~len:(Bytebuf.length wire) then
    Some (Adu.of_header h wire ~pos:0)
  else None

let prop_adu_round_trip =
  QCheck.Test.make ~name:"adu: decode(encode) round trip" ~count:300 arb_adu
    (fun adu ->
      match read_adu (Adu.encode adu) with
      | Some back ->
          back.Adu.name = adu.Adu.name
          && Bytebuf.equal back.Adu.payload adu.Adu.payload
      | None -> false)

let prop_adu_corruption_detected =
  QCheck.Test.make ~name:"adu: any byte flip detected" ~count:300
    QCheck.(pair arb_adu (pair small_nat (int_range 1 255)))
    (fun (adu, (pos, flip)) ->
      let wire = Adu.encode adu in
      let i = pos mod Bytebuf.length wire in
      Bytebuf.set_uint8 wire i (Bytebuf.get_uint8 wire i lxor flip);
      read_adu wire = None)

let test_adu_name_validation () =
  (match Adu.name ~stream:(-1) ~index:0 () with
  | _ -> Alcotest.fail "negative stream"
  | exception Invalid_argument _ -> ());
  match Adu.name ~stream:0 ~index:(-1) () with
  | _ -> Alcotest.fail "negative index"
  | exception Invalid_argument _ -> ()

let test_adu_read_aliases () =
  let adu = Adu.make (Adu.name ~stream:1 ~index:2 ()) (buf "view payload") in
  (* At an offset, as inside a datagram. *)
  let enc = Adu.encode adu in
  let len = Bytebuf.length enc in
  let wire = Bytebuf.create (7 + len + 5) in
  Bytebuf.blit ~src:enc ~src_pos:0 ~dst:wire ~dst_pos:7 ~len;
  let h = Adu.header () in
  Alcotest.(check bool) "short length fails" false
    (Adu.read_header h wire ~pos:7 ~len:(len - 1));
  Alcotest.(check bool) "reads" true (Adu.read_header h wire ~pos:7 ~len);
  let v = Adu.of_header h wire ~pos:7 in
  Alcotest.(check bool) "payload equal" true
    (Bytebuf.equal v.Adu.payload adu.Adu.payload);
  Alcotest.(check bool) "name equal" true (v.Adu.name = adu.Adu.name);
  (* The view aliases the wire buffer — no copy was made. *)
  let at = 7 + Adu.header_size in
  Bytebuf.set_uint8 wire at (Bytebuf.get_uint8 wire at lxor 0xff);
  Alcotest.(check bool) "aliases wire" false
    (Bytebuf.equal v.Adu.payload adu.Adu.payload)

(* --- Framing --- *)

(* Push one unsealed fragment datagram, read in place as a receiver
   reads it. *)
let push_dg r dg =
  let v = Framing.view () in
  match Framing.read v None dg with
  | Framing.Valid -> Framing.push r v
  | _ -> Alcotest.fail "fragment does not read"

let test_framing_buffer_partition () =
  let data = Bytebuf.of_string (String.init 1000 (fun i -> Char.chr (i land 0xff))) in
  let adus = Framing.frames_of_buffer ~stream:1 ~adu_size:256 data in
  Alcotest.(check int) "count" 4 (List.length adus);
  let reassembled =
    Bytebuf.concat (List.map (fun a -> a.Adu.payload) adus)
  in
  Alcotest.(check bool) "partition" true (Bytebuf.equal reassembled data);
  List.iteri
    (fun i adu ->
      Alcotest.(check int) "index" i adu.Adu.name.Adu.index;
      Alcotest.(check int) "dest_off" (i * 256) adu.Adu.name.Adu.dest_off)
    adus

let test_framing_values_placement () =
  let values = [ Wire.Value.int_array [| 1; 2 |]; Wire.Value.int_array [| 3 |] ] in
  let adus = Framing.frames_of_values ~stream:2 ~syntax:Wire.Syntax.Ber values in
  match adus with
  | [ a; b ] ->
      Alcotest.(check int) "a at 0" 0 a.Adu.name.Adu.dest_off;
      Alcotest.(check int) "a len = its encoding" (Bytebuf.length a.Adu.payload)
        a.Adu.name.Adu.dest_len;
      Alcotest.(check int) "b follows a" a.Adu.name.Adu.dest_len b.Adu.name.Adu.dest_off;
      (* The payload really is the BER encoding. *)
      Alcotest.(check bool) "decodes" true
        (Wire.Value.equal (Wire.Ber.decode a.Adu.payload) (List.nth values 0))
  | _ -> Alcotest.fail "shape"

let prop_framing_fragment_round_trip =
  QCheck.Test.make ~name:"framing: fragment/reassemble out of order" ~count:200
    QCheck.(triple arb_adu (int_range 64 512) int64)
    (fun (adu, mtu, seed) ->
      let frags = Framing.fragment ~mtu adu in
      (* Shuffle fragment arrival. *)
      let arr = Array.of_list frags in
      Rng.shuffle (Rng.create ~seed) arr;
      let got = ref [] in
      let r = Framing.reassembler ~deliver:(fun a -> got := a :: !got) () in
      Array.iter (push_dg r) arr;
      match !got with
      | [ back ] ->
          back.Adu.name = adu.Adu.name
          && Bytebuf.equal back.Adu.payload adu.Adu.payload
          && (Framing.stats r).Framing.completed = 1
          && Framing.pending_adus r = 0
      | _ -> false)

let test_framing_fragment_sizes () =
  let adu =
    Adu.make (Adu.name ~stream:0 ~index:0 ()) (Bytebuf.create 1000)
  in
  let frags = Framing.fragment ~mtu:256 adu in
  List.iter
    (fun f -> Alcotest.(check bool) "within mtu" true (Bytebuf.length f <= 256))
    frags;
  let total =
    List.fold_left
      (fun acc f -> acc + Bytebuf.length f - Framing.fragment_header_size)
      0 frags
  in
  Alcotest.(check int) "covers encoded adu" (1000 + Adu.header_size) total

let test_framing_duplicate_fragments () =
  let adu = Adu.make (Adu.name ~stream:0 ~index:5 ()) (Bytebuf.create 600) in
  let frags = Framing.fragment ~mtu:256 adu in
  let got = ref 0 in
  let r = Framing.reassembler ~deliver:(fun _ -> incr got) () in
  (* Feed everything except the last fragment, twice: duplicates are
     absorbed and counted, nothing delivered. (De-duplication of whole
     completed ADUs is the transport's job, not the reassembler's.) *)
  let all_but_last = List.filteri (fun i _ -> i < List.length frags - 1) frags in
  List.iter (push_dg r) all_but_last;
  List.iter (push_dg r) all_but_last;
  Alcotest.(check int) "nothing delivered yet" 0 !got;
  Alcotest.(check int) "duplicates counted"
    (List.length all_but_last)
    (Framing.stats r).Framing.duplicate_frags;
  List.iter (push_dg r) frags;
  Alcotest.(check int) "delivered once" 1 !got

let test_framing_interleaved_adus () =
  let mk i = Adu.make (Adu.name ~stream:0 ~index:i ()) (Bytebuf.create 500) in
  let f0 = Framing.fragment ~mtu:200 (mk 0) in
  let f1 = Framing.fragment ~mtu:200 (mk 1) in
  let rec interleave xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: interleave xs ys
  in
  let order = ref [] in
  let r = Framing.reassembler ~deliver:(fun a -> order := a.Adu.name.Adu.index :: !order) () in
  (* Interleave but give ADU 1 its last fragment first: it completes first. *)
  List.iter (push_dg r) (interleave (List.rev f1) f0);
  Alcotest.(check int) "both complete" 2 (List.length !order)

let test_framing_forget () =
  let adu = Adu.make (Adu.name ~stream:0 ~index:9 ()) (Bytebuf.create 600) in
  let frags = Framing.fragment ~mtu:256 adu in
  let r = Framing.reassembler ~deliver:(fun _ -> Alcotest.fail "must not deliver") () in
  (match frags with f :: _ -> push_dg r f | [] -> ());
  Alcotest.(check int) "pending" 1 (Framing.pending_adus r);
  Framing.forget r ~index:9;
  Alcotest.(check int) "forgotten" 0 (Framing.pending_adus r)

let test_framing_pooled_zero_alloc () =
  (* Stage-1 steady state with a pool: after the first ADU has warmed the
     pool, reassembling further ADUs allocates no buffers at all. *)
  let pool = Pool.create ~buf_size:2048 () in
  let delivered = ref 0 in
  let r =
    Framing.reassembler ~pool
      ~deliver:(fun a -> delivered := !delivered + Bytebuf.length a.Adu.payload)
      ()
  in
  let payload = Bytebuf.of_string (String.init 700 (fun i -> Char.chr (i land 0xff))) in
  let frags i =
    Framing.fragment ~mtu:256 (Adu.make (Adu.name ~stream:3 ~index:i ()) payload)
  in
  let batches = List.init 12 frags in
  (match batches with b :: _ -> List.iter (push_dg r) b | [] -> ());
  let snap = Bytebuf.created_total () in
  List.iteri (fun i b -> if i > 0 then List.iter (push_dg r) b) batches;
  Alcotest.(check int) "zero creates per ADU after warmup" snap
    (Bytebuf.created_total ());
  Alcotest.(check int) "all adus delivered" (12 * 700) !delivered;
  Alcotest.(check int) "one pool buffer suffices" 1 (Pool.stats pool).Pool.allocated

let test_framing_pooled_oversize_falls_back () =
  (* ADUs beyond the pool's buf_size still reassemble (fresh buffer). *)
  let pool = Pool.create ~buf_size:64 () in
  let got = ref 0 in
  let r = Framing.reassembler ~pool ~deliver:(fun _ -> incr got) () in
  let adu = Adu.make (Adu.name ~stream:0 ~index:0 ()) (Bytebuf.create 500) in
  List.iter (push_dg r)
    (Framing.fragment ~mtu:200 adu);
  Alcotest.(check int) "delivered" 1 !got;
  Alcotest.(check int) "pool untouched" 0 (Pool.stats pool).Pool.allocated

(* --- Recovery --- *)

let test_recovery_transport_buffer () =
  let st = Recovery.store Recovery.Transport_buffer in
  Recovery.remember st ~index:0 (buf "aaaa");
  Recovery.remember st ~index:1 (buf "bbbb");
  Alcotest.(check int) "footprint" 8 (Recovery.footprint st);
  (match Recovery.recall st ~index:0 with
  | Recovery.Data d -> Alcotest.(check string) "data" "aaaa" (Bytebuf.to_string d)
  | Recovery.Gone -> Alcotest.fail "should recall");
  Recovery.release st ~index:0;
  Alcotest.(check int) "released" 4 (Recovery.footprint st);
  match Recovery.recall st ~index:0 with
  | Recovery.Gone -> ()
  | Recovery.Data _ -> Alcotest.fail "released data recalled"

let test_recovery_app_recompute () =
  let calls = ref 0 in
  let st =
    Recovery.store
      (Recovery.App_recompute
         (fun i ->
           incr calls;
           if i < 5 then Some (buf (string_of_int i)) else None))
  in
  Recovery.remember st ~index:3 (buf "ignored");
  Alcotest.(check int) "stores nothing" 0 (Recovery.footprint st);
  (match Recovery.recall st ~index:3 with
  | Recovery.Data d -> Alcotest.(check string) "recomputed" "3" (Bytebuf.to_string d)
  | Recovery.Gone -> Alcotest.fail "recompute failed");
  (match Recovery.recall st ~index:7 with
  | Recovery.Gone -> ()
  | Recovery.Data _ -> Alcotest.fail "regenerated past limit");
  Alcotest.(check int) "callback used" 2 !calls

let test_recovery_none () =
  let st = Recovery.store Recovery.No_recovery in
  Recovery.remember st ~index:0 (buf "x");
  Alcotest.(check int) "no footprint" 0 (Recovery.footprint st);
  match Recovery.recall st ~index:0 with
  | Recovery.Gone -> ()
  | Recovery.Data _ -> Alcotest.fail "no-recovery recalled data"

let test_recovery_release_below () =
  let st = Recovery.store Recovery.Transport_buffer in
  for i = 0 to 9 do
    Recovery.remember st ~index:i (buf "abcd")
  done;
  Recovery.release_below st 7;
  Alcotest.(check int) "kept 3" 3 (Recovery.held st);
  Alcotest.(check int) "bytes" 12 (Recovery.footprint st)

(* --- ALF transport end-to-end --- *)

type alf_world = {
  engine : Engine.t;
  sender : Alf_transport.sender;
  receiver : Alf_transport.receiver;
  delivered : (int * string) list ref;
  series : (float * float) list ref;
      (* (virtual time, cumulative delivered bytes), newest first *)
}

let make_alf_world ?(loss = 0.0) ?(policy = Recovery.Transport_buffer)
    ?(adu_payload = 3000) ?(count = 20) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:77L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let delivered = ref [] and series = ref [] and bytes = ref 0 in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:7000 ~stream:1
      ~deliver:(fun adu ->
        delivered :=
          (adu.Adu.name.Adu.index, Bytebuf.to_string adu.Adu.payload) :: !delivered;
        bytes := !bytes + Bytebuf.length adu.Adu.payload;
        series := (Engine.now engine, float_of_int !bytes) :: !series)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:7000 ~port:7001
      ~stream:1 ~policy ()
  in
  let payload i = String.init adu_payload (fun j -> Char.chr ((i + j) land 0xff)) in
  for i = 0 to count - 1 do
    Alf_transport.send_adu sender
      (Adu.make
         (Adu.name ~dest_off:(i * adu_payload) ~dest_len:adu_payload ~stream:1
            ~index:i ())
         (Bytebuf.of_string (payload i)))
  done;
  Alf_transport.close sender;
  { engine; sender; receiver; delivered; series }

let test_alf_clean_delivery () =
  let w = make_alf_world () in
  Engine.run ~until:60.0 w.engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete w.receiver);
  Alcotest.(check bool) "sender finished" true (Alf_transport.finished w.sender);
  Alcotest.(check int) "all delivered" 20 (List.length !(w.delivered));
  let stats = Alf_transport.receiver_stats w.receiver in
  Alcotest.(check int) "no losses" 0 stats.Alf_transport.adus_lost

let test_alf_lossy_transport_buffer () =
  let w = make_alf_world ~loss:0.05 ~count:50 () in
  Engine.run ~until:120.0 w.engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete w.receiver);
  Alcotest.(check int) "all 50 delivered" 50 (List.length !(w.delivered));
  let s = Alf_transport.sender_stats w.sender in
  Alcotest.(check bool) "retransmissions happened" true
    (s.Alf_transport.adus_retransmitted > 0);
  (* Payload integrity per ADU. *)
  List.iter
    (fun (i, payload) ->
      Alcotest.(check int) "payload size" 3000 (String.length payload);
      Alcotest.(check char) "payload content" (Char.chr (i land 0xff)) payload.[0])
    !(w.delivered)

let test_alf_out_of_order_delivery_under_loss () =
  let w = make_alf_world ~loss:0.1 ~count:50 () in
  Engine.run ~until:120.0 w.engine;
  let stats = Alf_transport.receiver_stats w.receiver in
  Alcotest.(check bool) "deliveries happened out of order" true
    (stats.Alf_transport.out_of_order > 0)

let test_alf_no_recovery_policy () =
  let w = make_alf_world ~loss:0.15 ~policy:Recovery.No_recovery ~count:50 () in
  Engine.run ~until:120.0 w.engine;
  Alcotest.(check bool) "still completes" true (Alf_transport.complete w.receiver);
  let stats = Alf_transport.receiver_stats w.receiver in
  Alcotest.(check bool) "losses reported in ADU terms" true
    (stats.Alf_transport.adus_lost > 0);
  Alcotest.(check int) "delivered + lost = sent" 50
    (stats.Alf_transport.adus_delivered + stats.Alf_transport.adus_lost);
  Alcotest.(check int) "sender stored nothing" 0
    (Alf_transport.sender_stats w.sender).Alf_transport.store_peak

let test_alf_app_recompute_policy () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:99L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.1)
      ~queue_limit:1024 ~bandwidth_bps:10e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let payload i = String.init 2000 (fun j -> Char.chr ((i * 3 + j) land 0xff)) in
  let regenerate i =
    (* The sending application recomputes the ADU instead of buffering it. *)
    let adu =
      Adu.make (Adu.name ~dest_off:(i * 2000) ~dest_len:2000 ~stream:1 ~index:i ())
        (Bytebuf.of_string (payload i))
    in
    Some (Adu.encode adu)
  in
  let delivered = ref 0 in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:7000 ~stream:1
      ~deliver:(fun _ -> incr delivered) ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:7000 ~port:7001
      ~stream:1 ~policy:(Recovery.App_recompute regenerate) ()
  in
  for i = 0 to 29 do
    Alf_transport.send_adu sender
      (Adu.make (Adu.name ~dest_off:(i * 2000) ~dest_len:2000 ~stream:1 ~index:i ())
         (Bytebuf.of_string (payload i)))
  done;
  Alf_transport.close sender;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  Alcotest.(check int) "all delivered" 30 !delivered;
  Alcotest.(check int) "zero retransmission memory" 0
    (Alf_transport.sender_stats sender).Alf_transport.store_peak

let test_alf_store_released_by_acks () =
  let w = make_alf_world ~loss:0.02 ~count:30 () in
  Engine.run ~until:120.0 w.engine;
  Alcotest.(check int) "store drains after completion" 0
    (Alf_transport.store_footprint w.sender)

let test_alf_delivery_series_monotone () =
  let w = make_alf_world ~loss:0.05 ~count:30 () in
  Engine.run ~until:120.0 w.engine;
  let pts = List.rev !(w.series) in
  Alcotest.(check bool) "nonempty" true (List.length pts > 0);
  let rec monotone = function
    | (t1, v1) :: ((t2, v2) :: _ as rest) ->
        t1 <= t2 && v1 <= v2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone progress" true (monotone pts)

(* A receiver driven by hand: [feed] hands it one sealed datagram, and
   every DONE it sends is counted. *)
let hand_receiver () =
  let engine = Engine.create () in
  let handler = ref None and dones = ref 0 and delivered = ref [] in
  let integrity = Some Checksum.Kind.Crc32 in
  let view = Framing.view () in
  let io =
    {
      Dgram.send =
        (fun ~dst:_ ~dst_port:_ ~src_port:_ buf ->
          (match Framing.read view integrity buf with
          | Framing.Valid when view.Framing.kind = Framing.Done -> incr dones
          | _ -> ());
          true);
      bind = (fun ~port:_ h -> handler := Some h);
      max_payload = 65507;
    }
  in
  let receiver =
    Alf_transport.receiver_io ~sched:(Engine.sched engine) ~io ~port:7000
      ~stream:1
      ~deliver:(fun adu -> delivered := adu.Adu.name.Adu.index :: !delivered)
      ()
  in
  let feed dgram =
    match !handler with
    | Some h -> h ~src:2 ~src_port:7001 (Ctl.seal integrity dgram)
    | None -> Alcotest.fail "receiver never bound"
  in
  let feed_adu i =
    List.iter feed
      (Framing.fragment ~mtu:1400
         (Adu.make (Adu.name ~stream:1 ~index:i ()) (buf "payload")))
  in
  (receiver, feed, feed_adu, dones, delivered)

let test_alf_one_done_per_close () =
  let receiver, feed, feed_adu, dones, _ = hand_receiver () in
  for i = 0 to 9 do
    feed_adu i
  done;
  Alcotest.(check int) "no DONE before CLOSE" 0 !dones;
  feed (Ctl.build (Ctl.write_close ~stream:1 ~total:10));
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  Alcotest.(check int) "one DONE for the completing CLOSE" 1 !dones;
  feed (Ctl.build (Ctl.write_close ~stream:1 ~total:10));
  feed (Ctl.build (Ctl.write_close ~stream:1 ~total:10));
  Alcotest.(check int) "one more per re-CLOSE" 3 !dones

let test_alf_nothing_beyond_total () =
  let receiver, feed, feed_adu, _, delivered = hand_receiver () in
  feed (Ctl.build (Ctl.write_close ~stream:1 ~total:4));
  feed_adu 0;
  feed_adu 10;
  feed (Ctl.build (fun b -> Ctl.write_gone b ~stream:1 [ 11 ]));
  for i = 1 to 3 do
    feed_adu i
  done;
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  feed_adu 10;
  Alcotest.(check (list int)) "only indices below the total" [ 0; 1; 2; 3 ]
    (List.sort compare !delivered);
  Alcotest.(check int) "no GONE beyond the total" 0
    (Alf_transport.receiver_stats receiver).Alf_transport.adus_lost;
  Alcotest.(check bool) "index 10 never settled" false
    (Alf_transport.settled receiver 10);
  Alcotest.(check (pair int int)) "tables empty" (0, 0)
    (Alf_transport.receiver_table_sizes receiver)

(* Damage above the integrity trailer: the datagram verifies, the ADU
   CRC does not. Stage 1 must count it whether or not the ADU needed
   the reassembler, and a clean copy must still be delivered. *)
let test_alf_corrupt_adu_counted () =
  let receiver, feed, feed_adu, _, delivered = hand_receiver () in
  let corrupt () =
    (Alf_transport.reassembly_stats receiver).Framing.corrupt_adus
  in
  let damaged i payload =
    List.map
      (fun d ->
        let d = Bytebuf.copy d in
        let last = Bytebuf.length d - 1 in
        Bytebuf.set_uint8 d last (Bytebuf.get_uint8 d last lxor 0x40);
        d)
      (Framing.fragment ~mtu:1400
         (Adu.make (Adu.name ~stream:1 ~index:i ()) payload))
  in
  let single = damaged 0 (buf "payload") in
  Alcotest.(check int) "one fragment" 1 (List.length single);
  List.iter feed single;
  Alcotest.(check int) "single-fragment ADU counted" 1 (corrupt ());
  let big = buf (String.make 3000 'x') in
  let multi = damaged 1 big in
  Alcotest.(check bool) "several fragments" true (List.length multi > 1);
  List.iter feed multi;
  Alcotest.(check int) "multi-fragment ADU counted" 2 (corrupt ());
  Alcotest.(check (list int)) "neither delivered" [] !delivered;
  feed_adu 0;
  List.iter feed
    (Framing.fragment ~mtu:1400 (Adu.make (Adu.name ~stream:1 ~index:1 ()) big));
  Alcotest.(check (list int)) "clean copies delivered" [ 0; 1 ]
    (List.sort compare !delivered);
  Alcotest.(check int) "clean copies not counted" 2 (corrupt ())

(* --- Rx against a reference model ---

   One stream of [n] ADUs (1-3 fragments each, optionally sealed) plus
   four indices beyond the CLOSE total, driven by random interleavings:
   reordered and duplicated fragments, bit-flipped and tag-tampered
   copies, clean retransmissions, repeated CLOSEs, GONE subsets, local
   give-ups, and [clear] followed by a fresh session. The model is three
   facts — delivered set, gone set, total — and every step is checked
   against it. *)

type rx_ev =
  | Frag of int * int  (* one clean fragment, by index and position *)
  | Flip of int * int * int  (* that fragment with one chunk bit flipped *)
  | Tamper of int  (* every fragment of a copy with a forged tag *)
  | Clean of int  (* every clean fragment, sent twice *)
  | Close
  | Gone of int list
  | Give_up  (* the lowest index [Rx.missing] reports *)
  | Clear

let pp_rx_ev = function
  | Frag (i, j) -> Printf.sprintf "Frag(%d,%d)" i j
  | Flip (i, j, b) -> Printf.sprintf "Flip(%d,%d,%d)" i j b
  | Tamper i -> Printf.sprintf "Tamper %d" i
  | Clean i -> Printf.sprintf "Clean %d" i
  | Close -> "Close"
  | Gone l -> "Gone[" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  | Give_up -> "Give_up"
  | Clear -> "Clear"

let rx_case =
  let open QCheck.Gen in
  let gen =
    int_range 1 12 >>= fun n ->
    array_size (return (n + 4)) (int_range 1 3) >>= fun nfs ->
    bool >>= fun secure ->
    let idx = int_range 0 (n + 3) in
    let ev =
      frequency
        [
          (6, map2 (fun i j -> Frag (i, j)) idx (int_range 0 2));
          (1, map3 (fun i j b -> Flip (i, j, b)) idx (int_range 0 2) nat);
          (1, map (fun i -> Tamper i) idx);
          (2, map (fun i -> Clean i) idx);
          (1, return Close);
          (1, map (fun l -> Gone l) (list_size (int_range 1 3) idx));
          (1, return Give_up);
          (1, return Clear);
        ]
    in
    list_size (int_range 1 60) ev >|= fun evs -> (n, nfs, secure, evs)
  in
  QCheck.make gen ~print:(fun (n, nfs, secure, evs) ->
      Printf.sprintf "n=%d nfs=[%s] secure=%b [%s]" n
        (String.concat ";" (Array.to_list (Array.map string_of_int nfs)))
        secure
        (String.concat " " (List.map pp_rx_ev evs)))

(* The reference model. *)
type rx_model = {
  delivered : bool array;
  gone : bool array;
  mutable total : int;  (* -1 before CLOSE *)
}

let m_settled m i = m.delivered.(i) || m.gone.(i)

let m_frontier m =
  let rec go i =
    if i < Array.length m.delivered && m_settled m i then go (i + 1) else i
  in
  go 0

let m_complete m = m.total >= 0 && m_frontier m >= m.total

let m_reset m =
  Array.fill m.delivered 0 (Array.length m.delivered) false;
  Array.fill m.gone 0 (Array.length m.gone) false;
  m.total <- -1

let model_fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

(* Every ADU encodes to 90 bytes plus 100 per extra fragment, so a
   119-byte MTU (19-byte fragment header) cuts it into [nfs.(i)] pieces. *)
let rx_fixture ~nfs ~secure =
  let key = 0x5EC0DEL in
  let plain i =
    String.init
      (90 - Adu.header_size
      - (if secure then Secure.Record.overhead else 0)
      + (100 * (nfs.(i) - 1)))
      (fun j -> Char.chr (((i * 31) + j) land 0xff))
  in
  let sealed i =
    let adu = Adu.make (Adu.name ~stream:1 ~index:i ()) (buf (plain i)) in
    if secure then Secure.Record.seal_adu (Secure.Record.of_int64 key) adu
    else adu
  in
  let forged i =
    (* A valid ADU CRC over a payload whose record tag is wrong. *)
    let a = sealed i in
    let p = Bytebuf.copy a.Adu.payload in
    let last = Bytebuf.length p - 1 in
    Bytebuf.set_uint8 p last (Bytebuf.get_uint8 p last lxor 1);
    Adu.make a.Adu.name p
  in
  let frags adu = Array.of_list (Framing.fragment ~mtu:119 adu) in
  let n = Array.length nfs in
  let opener = if secure then Some (Secure.Record.of_int64 key) else None in
  ( plain,
    Array.init n (fun i -> frags (sealed i)),
    Array.init n (fun i -> frags (forged i)),
    opener )

let rx_matches_model =
  QCheck.Test.make ~name:"rx: random interleavings match the reference model"
    ~count:1000 rx_case (fun (n, nfs, secure, evs) ->
      let plain, clean, forged, secure_rx = rx_fixture ~nfs ~secure in
      let pool = Pool.create ~buf_size:512 () in
      let m =
        {
          delivered = Array.make (n + 4) false;
          gone = Array.make (n + 4) false;
          total = -1;
        }
      in
      let env =
        Rx.env ~window:max_int ~pool ?secure:secure_rx
          ~deliver:(fun () adu ->
            let i = adu.Adu.name.Adu.index in
            if m_settled m i then model_fail "%d delivered twice or after gone" i;
            if m.total >= 0 && i >= m.total then
              model_fail "%d delivered at or above the total %d" i m.total;
            if m_complete m then model_fail "%d delivered after completion" i;
            if Bytebuf.to_string adu.Adu.payload <> plain i then
              model_fail "%d: payload differs" i;
            m.delivered.(i) <- true)
          ()
      in
      let rx = ref (Rx.create ()) and completions = ref 0 in
      let note v = if v = Rx.Completed then incr completions in
      let view = Framing.view () in
      (* Each arrival is a fresh datagram: the record opens in place. *)
      let feed b =
        note
          (Rx.fragment env !rx
             (let b = Bytebuf.copy b in
              if Framing.read view None b <> Framing.Valid then
                model_fail "a fragment does not read";
              view))
      in
      let settle_gone i v =
        note v;
        if m_settled m i then (
          if v <> Rx.Duplicate then model_fail "GONE %d: not a duplicate" i)
        else if m.total >= 0 && i >= m.total then (
          if v <> Rx.Window then model_fail "GONE %d beyond the total" i)
        else begin
          m.gone.(i) <- true;
          if v <> if m_complete m then Rx.Completed else Rx.Settled then
            model_fail "GONE %d verdict" i
        end
      in
      let apply = function
        | Frag (i, j) -> feed clean.(i).(j mod nfs.(i))
        | Flip (i, j, b) ->
            let f = Bytebuf.copy clean.(i).(j mod nfs.(i)) in
            let pos = 19 + (b mod (Bytebuf.length f - 19)) in
            Bytebuf.set_uint8 f pos (Bytebuf.get_uint8 f pos lxor (1 lsl (b mod 8)));
            feed f
        | Tamper i ->
            (* Only the pieces that differ from the clean copy: the header
               with the forged CRC and the chunk with the forged tag. *)
            if secure then
              Array.iteri
                (fun j f ->
                  if Bytebuf.to_string f <> Bytebuf.to_string clean.(i).(j)
                  then feed f)
                forged.(i)
        | Clean i ->
            let open_before = (not (m_settled m i)) && (m.total < 0 || i < m.total) in
            (* Twice: the first burst may only flush a stale partial. *)
            Array.iter feed clean.(i);
            Array.iter feed clean.(i);
            if open_before && not m.delivered.(i) then
              model_fail "clean copy of %d not delivered" i
        | Close ->
            let v = Rx.close !rx n in
            note v;
            let expect =
              if m.total >= 0 then
                if m_complete m then Rx.Already_complete else Rx.Pending
              else begin
                m.total <- n;
                if m_complete m then Rx.Completed else Rx.Pending
              end
            in
            if v <> expect then model_fail "CLOSE verdict"
        | Gone l -> List.iter (fun i -> settle_gone i (Rx.gone env !rx i)) l
        | Give_up -> (
            match Rx.missing env !rx ~cap:1 with
            | [] -> ()
            | i :: _ ->
                settle_gone i (Rx.give_up !rx i);
                if Rx.give_up !rx i <> Rx.Duplicate then
                  model_fail "second give-up of %d" i)
        | Clear ->
            Rx.clear !rx;
            if (Pool.stats pool).Pool.outstanding <> 0 then
              model_fail "clear left pooled buffers";
            rx := Rx.create ();
            m_reset m
      in
      let step ev =
        let before = Array.copy m.delivered
        and was_complete = m_complete m
        and f0 = Rx.frontier !rx in
        completions := 0;
        apply ev;
        (match ev with
        | (Flip _ | Tamper _) when before <> m.delivered ->
            model_fail "a corrupt or forged copy was delivered"
        | _ -> ());
        let complete = m_complete m in
        if !completions <> if complete && not was_complete then 1 else 0 then
          model_fail "Completed reported %d times" !completions;
        if Rx.frontier !rx <> m_frontier m then
          model_fail "frontier %d, model %d" (Rx.frontier !rx) (m_frontier m);
        if ev <> Clear && Rx.frontier !rx < f0 then model_fail "frontier went back";
        if Rx.complete !rx <> complete then model_fail "complete disagrees";
        for i = 0 to n + 3 do
          if Rx.settled !rx i <> m_settled m i then model_fail "settled %d disagrees" i
        done;
        if m.total >= 0 then
          let expect =
            List.filter (fun i -> not (m_settled m i)) (List.init m.total Fun.id)
          in
          if Rx.missing env !rx ~cap:max_int <> expect then
            model_fail "missing disagrees"
      in
      List.iter step evs;
      true)

(* --- Session (out-of-band setup) --- *)

let session_world ?(loss = 0.0) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:515L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~impair_back:(Impair.lossy loss) ~queue_limit:1024 ~bandwidth_bps:10e6
      ~delay:0.003 ~a:1 ~b:2 ()
  in
  let io_a = Dgram.of_udp (Netsim.Udp.create ~engine ~node:net.Topology.a ()) in
  let io_b = Dgram.of_udp (Netsim.Udp.create ~engine ~node:net.Topology.b ()) in
  (engine, io_a, io_b)

(* One offer, negotiated over the simulator and over real sockets, and
   what a responder supporting [ber; xdr] under a 5 Mb/s cap grants. *)
let rate_offer =
  { Session.stream = 7; syntaxes = [ "lwts"; "xdr"; "ber" ]; rate_bps = 8e6;
    policy = "buffer"; ciphers = [] }

let listen_for_rate_offer ~io =
  let got = ref None in
  let responder =
    Session.listen ~io ~port:900 ~supported:[ "ber"; "xdr" ] ~max_rate_bps:5e6
      ~on_session:(fun ~peer g -> got := Some (peer, g))
      ()
  in
  (responder, got)

let check_rate_grant = function
  | Some (Some g) ->
      (* First initiator preference the responder supports: xdr. *)
      Alcotest.(check string) "syntax" "xdr" g.Session.g_syntax;
      Alcotest.(check (float 1.0)) "rate clamped" 5e6 g.Session.g_rate_bps;
      Alcotest.(check string) "policy echoed" "buffer" g.Session.g_policy;
      (* An empty cipher offer means the modern default, not plaintext. *)
      Alcotest.(check string) "cipher default" "chacha20" g.Session.g_cipher
  | Some None -> Alcotest.fail "session rejected"
  | None -> Alcotest.fail "no result"

let test_session_negotiates_syntax_and_rate () =
  let engine, io_a, io_b = session_world ~loss:0.2 () in
  let responder, responder_got = listen_for_rate_offer ~io:io_b in
  let result = ref None in
  Session.initiate ~sched:(Engine.sched engine) ~io:io_a ~port:901 ~peer:2 ~peer_port:900
    ~offer:rate_offer
    ~on_result:(fun r -> result := Some r)
    ();
  Engine.run ~until:30.0 engine;
  check_rate_grant !result;
  (match !responder_got with
  | Some (1, g) -> Alcotest.(check int) "stream" 7 g.Session.g_stream
  | _ -> Alcotest.fail "responder callback");
  Alcotest.(check int) "one session despite retries" 1
    (Session.sessions_accepted responder)

let test_session_over_loopback () =
  (* The same exchange on kernel sockets: both ends share one link, and
     the initiator's retry timer runs on the poll loop. *)
  let loop = Rt.Loop.create () in
  let link = Rt.Udp_link.create ~loop () in
  let io = Dgram.of_rt link in
  let responder, responder_got = listen_for_rate_offer ~io in
  let result = ref None in
  Session.initiate ~sched:(Rt.Loop.sched loop) ~io ~port:901
    ~peer:(Rt.Udp_link.local_addr link ~port:900) ~peer_port:900
    ~offer:rate_offer
    ~on_result:(fun r -> result := Some r)
    ();
  Alcotest.(check bool) "settled" true
    (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !result <> None));
  check_rate_grant !result;
  (match !responder_got with
  | Some (_, g) -> Alcotest.(check int) "stream" 7 g.Session.g_stream
  | None -> Alcotest.fail "responder callback");
  Alcotest.(check int) "one session" 1 (Session.sessions_accepted responder);
  Rt.Udp_link.close link

let test_session_no_common_syntax () =
  let engine, io_a, io_b = session_world () in
  let responder =
    Session.listen ~io:io_b ~port:900 ~supported:[ "raw" ]
      ~on_session:(fun ~peer:_ _ -> Alcotest.fail "must not accept")
      ()
  in
  let result = ref `Pending in
  Session.initiate ~sched:(Engine.sched engine) ~io:io_a ~port:901 ~peer:2 ~peer_port:900
    ~offer:
      {
        Session.stream = 1;
        syntaxes = [ "ber" ];
        rate_bps = 0.0;
        policy = "none";
        ciphers = [];
      }
    ~on_result:(fun r -> result := `Got r)
    ();
  Engine.run ~until:30.0 engine;
  (match !result with
  | `Got None -> ()
  | `Got (Some _) -> Alcotest.fail "accepted without common syntax"
  | `Pending -> Alcotest.fail "no result");
  Alcotest.(check int) "rejection counted" 1 (Session.sessions_rejected responder)

let test_session_unreachable_times_out () =
  let engine, io_a, _ = session_world ~loss:1.0 () in
  let result = ref `Pending in
  Session.initiate ~sched:(Engine.sched engine) ~io:io_a ~port:901 ~peer:2 ~peer_port:900
    ~offer:
      {
        Session.stream = 1;
        syntaxes = [ "ber" ];
        rate_bps = 0.0;
        policy = "none";
        ciphers = [];
      }
    ~retry_interval:0.05 ~max_retries:4
    ~on_result:(fun r -> result := `Got r)
    ();
  Engine.run ~until:30.0 engine;
  match !result with
  | `Got None -> ()
  | `Got (Some _) -> Alcotest.fail "phantom accept"
  | `Pending -> Alcotest.fail "never gave up"

let test_session_then_negotiated_transfer () =
  (* The full story: negotiate out of band, then run the data phase with
     the granted contract - syntax, pacing rate, recovery policy. *)
  let engine, io_a, io_b = session_world ~loss:0.03 () in
  let values = List.init 30 (fun i -> Wire.Value.int_array (Array.init 40 (fun j -> (i * 40) + j))) in
  let received = Hashtbl.create 32 in
  let complete = ref false in
  Hashtbl.reset received;
  let _responder =
    Session.listen ~io:io_b ~port:900 ~supported:[ "ber"; "lwts" ]
      ~max_rate_bps:8e6
      ~on_session:(fun ~peer:_ g ->
        (* The receiver decodes with the negotiated syntax. *)
        let syntax =
          match g.Session.g_syntax with
          | "ber" -> Wire.Syntax.Ber
          | _ -> Alcotest.fail "unexpected syntax"
        in
        let r =
          Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:io_b ~port:910
            ~stream:g.Session.g_stream
            ~deliver:(fun adu ->
              Hashtbl.replace received adu.Adu.name.Adu.index
                (Wire.Syntax.decode syntax adu.Adu.payload))
            ()
        in
        Alf_transport.on_complete r (fun () -> complete := true))
      ()
  in
  Session.initiate ~sched:(Engine.sched engine) ~io:io_a ~port:901 ~peer:2 ~peer_port:900
    ~offer:
      { Session.stream = 3; syntaxes = [ "ber" ]; rate_bps = 20e6;
        policy = "buffer"; ciphers = [ "chacha20"; "none" ] }
    ~on_result:(fun result ->
      match result with
      | None -> Alcotest.fail "session failed"
      | Some g ->
          let syntax = Wire.Syntax.Ber in
          let sender =
            Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:io_a ~peer:2 ~peer_port:910
              ~port:911 ~stream:g.Session.g_stream
              ~policy:Recovery.Transport_buffer
              ~config:
                { Alf_transport.default_sender_config with
                  Alf_transport.pace_bps =
                    (if g.Session.g_rate_bps > 0.0 then Some g.Session.g_rate_bps
                     else None) }
              ()
          in
          List.iter (Alf_transport.send_adu sender)
            (Framing.frames_of_values ~stream:g.Session.g_stream ~syntax values);
          Alf_transport.close sender)
    ();
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "data phase complete" true !complete;
  List.iteri
    (fun i v ->
      match Hashtbl.find_opt received i with
      | Some got -> Alcotest.(check bool) "value intact" true (Wire.Value.equal got v)
      | None -> Alcotest.fail "missing value")
    values

(* --- Stage2 --- *)

let test_stage2_decrypt_verify_pipeline () =
  (* Sealed ADUs through the whole receive path: transport (lossy) ->
     stage 2 fused decrypt+checksum+copy -> application sink. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:404L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.06)
      ~queue_limit:1024 ~bandwidth_bps:20e6 ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let key = 0xFACEL in
  let size = 40_000 in
  let file = Bytebuf.create size in
  Rng.fill_bytes (Rng.create ~seed:12L) file;
  let sink = Sink.create ~size in
  let stage2 =
    Stage2.create
      ~plan:(Stage2.decrypt_verify_at ~key)
      ~deliver:(fun r ->
        (* The fused checksum covers the decrypted plaintext. *)
        (match r.Stage2.checksums with
        | [ (Checksum.Kind.Internet, c) ] ->
            Alcotest.(check int) "plaintext checksum"
              (Checksum.Internet.digest r.Stage2.adu.Adu.payload) c
        | _ -> Alcotest.fail "missing checksum");
        match Sink.write_adu sink r.Stage2.adu with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      ()
  in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:3 ~stream:1
      ~deliver:(Stage2.deliver_fn stage2) ()
  in
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:3 ~port:4 ~stream:1
      ~policy:Recovery.Transport_buffer ()
  in
  List.iter
    (fun adu -> Alf_transport.send_adu sender (Secure.seal ~key adu))
    (Framing.frames_of_buffer ~stream:1 ~adu_size:2000 file);
  Alf_transport.close sender;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "complete" true (Alf_transport.complete receiver);
  Alcotest.(check bool) "decrypted file intact" true
    (Bytebuf.equal (Sink.contents sink) file);
  Alcotest.(check int) "all processed" 20 (Stage2.stats stage2).Stage2.processed

let test_stage2_rejects_sequential_cipher () =
  let delivered = ref 0 in
  let stage2 =
    Stage2.create
      ~plan:(fun _ -> [ Ilp.Rc4_stream { key = "k" }; Ilp.Deliver_copy ])
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  Stage2.deliver_fn stage2 (Adu.make (Adu.name ~stream:0 ~index:0 ()) (buf "x"));
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "rejection counted" 1 (Stage2.stats stage2).Stage2.rejected_order

let test_stage2_rejects_invalid_plan () =
  let stage2 =
    Stage2.create
      ~plan:(fun _ -> [ Ilp.Deliver_copy; Ilp.Byteswap32 ])
      ~deliver:(fun _ -> Alcotest.fail "must not deliver")
      ()
  in
  Stage2.deliver_fn stage2 (Adu.make (Adu.name ~stream:0 ~index:0 ()) (buf "abcd"));
  Alcotest.(check int) "rejection counted" 1 (Stage2.stats stage2).Stage2.rejected_invalid

let test_stage2_out_pool_inline () =
  (* Inline stage 2 writing into pooled output slices: the delivered
     payload is borrowed, and steady state allocates nothing. *)
  let key = 99L in
  let out_pool = Pool.create ~buf_size:1024 () in
  let plain = buf "stage two pooled payload bytes!" in
  let n = Bytebuf.length plain in
  let ok = ref 0 in
  let stage =
    Stage2.create ~out_pool
      ~plan:(Stage2.decrypt_verify_at ~key)
      ~deliver:(fun (r : Stage2.result) ->
        (* Borrowed: consume inside the callback. *)
        if Bytebuf.equal r.Stage2.adu.Adu.payload plain then incr ok)
      ()
  in
  let pad = Cipher.Pad.create ~key in
  let adu i =
    let sealed = Bytebuf.copy plain in
    let off = i * 64 in
    Cipher.Pad.transform_at pad ~pos:(Int64.of_int off) sealed;
    Adu.make
      (Adu.name ~stream:0 ~index:i ~dest_off:off ~dest_len:n ())
      sealed
  in
  let adus = List.init 21 adu in
  (match adus with a :: _ -> Stage2.deliver_fn stage a | [] -> ());
  let snap = Bytebuf.created_total () in
  List.iteri (fun i a -> if i > 0 then Stage2.deliver_fn stage a) adus;
  Alcotest.(check int) "zero creates per ADU after warmup" snap
    (Bytebuf.created_total ());
  Alcotest.(check int) "every payload decrypted in place of delivery" 21 !ok;
  Alcotest.(check int) "one output buffer recycled" 1
    (Pool.stats out_pool).Pool.allocated

let stage2_batched_round_trip ~staging () =
  (* Batched stage 2 fed borrowed inputs (every receiver hands these
     out): inputs are staged, into [in_pool] or a private copy, outputs
     are pooled, results are byte-correct and in arrival order. *)
  let key = 5L in
  let pool = Par.Pool.create ~domains:2 () in
  let in_pool = if staging then Some (Pool.create ~buf_size:256 ()) else None in
  let out_pool = Pool.create ~buf_size:256 () in
  let pad = Cipher.Pad.create ~key in
  let mk i =
    let plain = Bytebuf.of_string (Printf.sprintf "adu %02d payload" i) in
    let off = i * 32 in
    let sealed = Bytebuf.copy plain in
    Cipher.Pad.transform_at pad ~pos:(Int64.of_int off) sealed;
    ( plain,
      Adu.make
        (Adu.name ~stream:0 ~index:i ~dest_off:off
           ~dest_len:(Bytebuf.length plain) ())
        sealed )
  in
  let expected = Array.init 10 (fun i -> fst (mk i)) in
  let order = ref [] in
  let stage =
    Stage2.create ~pool ~batch:4 ?in_pool ~out_pool
      ~plan:(Stage2.decrypt_verify_at ~key)
      ~deliver:(fun (r : Stage2.result) ->
        let i = r.Stage2.adu.Adu.name.Adu.index in
        Alcotest.(check bool)
          (Printf.sprintf "adu %d decrypts" i)
          true
          (Bytebuf.equal r.Stage2.adu.Adu.payload expected.(i));
        order := i :: !order)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      (* Hand each ADU over in a borrowed buffer that is scribbled on as
         soon as deliver_fn returns — only staging keeps this safe. *)
      let borrowed = Bytebuf.create 64 in
      for i = 0 to 9 do
        let _, adu = mk i in
        let len = Bytebuf.length adu.Adu.payload in
        let view = Bytebuf.take borrowed len in
        Bytebuf.blit ~src:adu.Adu.payload ~src_pos:0 ~dst:view ~dst_pos:0 ~len;
        Stage2.deliver_fn stage (Adu.make adu.Adu.name view);
        Bytebuf.fill borrowed '\xee'
      done;
      Stage2.flush stage);
  Alcotest.(check (list int)) "arrival order" (List.init 10 Fun.id)
    (List.rev !order);
  Alcotest.(check int) "all processed" 10 (Stage2.stats stage).Stage2.processed

(* --- Mux: many streams, one port --- *)

let test_mux_two_streams_one_port () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:606L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.05)
      ~queue_limit:1024 ~bandwidth_bps:20e6 ~delay:0.004 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let mux_a = Mux.create ~io:(Dgram.of_udp ua) ~port:6000 in
  let mux_b = Mux.create ~io:(Dgram.of_udp ub) ~port:6000 in
  let got = Hashtbl.create 8 in
  let mk_receiver stream =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine)
      ~io:(Mux.stream_io mux_b ~stream) ~port:(Mux.port mux_b) ~stream
      ~deliver:(fun adu ->
        let key = (stream, adu.Adu.name.Adu.index) in
        if Hashtbl.mem got key then Alcotest.fail "cross-stream duplicate";
        Hashtbl.replace got key (Bytebuf.to_string adu.Adu.payload))
      ()
  in
  let r1 = mk_receiver 1 and r2 = mk_receiver 2 in
  let mk_sender stream =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine)
      ~io:(Mux.stream_io mux_a ~stream) ~peer:2 ~peer_port:6000
      ~port:(Mux.port mux_a) ~stream ~policy:Recovery.Transport_buffer ()
  in
  let s1 = mk_sender 1 and s2 = mk_sender 2 in
  let payload stream i = Printf.sprintf "s%d-adu%d-%s" stream i (String.make 500 'x') in
  for i = 0 to 19 do
    Alf_transport.send_adu s1
      (Adu.make (Adu.name ~stream:1 ~index:i ()) (buf (payload 1 i)));
    Alf_transport.send_adu s2
      (Adu.make (Adu.name ~stream:2 ~index:i ()) (buf (payload 2 i)))
  done;
  Alf_transport.close s1;
  Alf_transport.close s2;
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "stream 1 complete" true (Alf_transport.complete r1);
  Alcotest.(check bool) "stream 2 complete" true (Alf_transport.complete r2);
  for i = 0 to 19 do
    Alcotest.(check string) "stream 1 payload" (payload 1 i) (Hashtbl.find got (1, i));
    Alcotest.(check string) "stream 2 payload" (payload 2 i) (Hashtbl.find got (2, i))
  done;
  Alcotest.(check int) "nothing unrouted at the receiver" 0 (Mux.unrouted mux_b)

let test_mux_unrouted_counted () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:607L in
  let net =
    Topology.point_to_point ~engine ~rng ~bandwidth_bps:1e6 ~delay:0.001 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let mux_b = Mux.create ~io:(Dgram.of_udp ub) ~port:6000 in
  (* A sender for stream 9, but no receiver attached for it. *)
  let s =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:6000 ~port:6001
      ~stream:9 ~policy:Recovery.No_recovery ()
  in
  Alf_transport.send_adu s (Adu.make (Adu.name ~stream:9 ~index:0 ()) (buf "x"));
  Engine.run ~until:1.0 engine;
  Alcotest.(check bool) "unrouted counted" true (Mux.unrouted mux_b > 0)

(* --- Pipeline --- *)

let test_pipeline_throughput_accounting () =
  let engine = Engine.create () in
  let app = Pipeline.create ~engine ~rate_bps:8000.0 () in
  (* 1000 bytes at 8000 b/s = 1 second of conversion. *)
  ignore (Engine.schedule_at engine 1.0 (fun () -> Pipeline.feed app ~bytes:500));
  ignore (Engine.schedule_at engine 1.1 (fun () -> Pipeline.feed app ~bytes:500));
  Engine.run_until_idle engine;
  Alcotest.(check int) "all processed" 1000 (Pipeline.processed_bytes app);
  Alcotest.(check int) "no backlog" 0 (Pipeline.backlog_bytes app);
  (* First chunk finishes at 1.5, second (queued) at 2.0. *)
  Alcotest.(check (float 1e-9)) "finish time" 2.0 (Pipeline.finish_time app);
  (* Idle: converter starved during [0, 1.0). *)
  Alcotest.(check (float 1e-6)) "idle before first arrival" 1.0 (Pipeline.idle_time app)

let test_pipeline_starvation_idle () =
  let engine = Engine.create () in
  let app = Pipeline.create ~engine ~rate_bps:80000.0 () in
  ignore (Engine.schedule_at engine 0.0 (fun () -> Pipeline.feed app ~bytes:1000));
  (* 0.1 s of work, then a 0.9 s starvation gap. *)
  ignore (Engine.schedule_at engine 1.0 (fun () -> Pipeline.feed app ~bytes:1000));
  Engine.run_until_idle engine;
  Alcotest.(check (float 1e-6)) "starved gap counted" 0.9 (Pipeline.idle_time app)

let test_pipeline_per_unit_cost () =
  let engine = Engine.create () in
  let app = Pipeline.create ~engine ~rate_bps:8e6 ~per_unit_cost:0.01 () in
  for _ = 1 to 10 do
    Pipeline.feed app ~bytes:100
  done;
  Engine.run_until_idle engine;
  (* 10 * (100*8/8e6 + 0.01) = 10 * 0.0101 = 0.101 *)
  Alcotest.(check (float 1e-6)) "dispatch overhead" 0.101 (Pipeline.finish_time app)

let test_pipeline_progress_series () =
  let engine = Engine.create () in
  let app = Pipeline.create ~engine ~rate_bps:8000.0 () in
  Pipeline.feed app ~bytes:100;
  Pipeline.feed app ~bytes:100;
  Engine.run_until_idle engine;
  Alcotest.(check int) "two points" 2 (List.length (Stats.points (Pipeline.progress app)))

(* --- Ordered (in-order view above ADUs) --- *)

let mk_indexed i =
  Adu.make (Adu.name ~stream:0 ~index:i ()) (buf (Printf.sprintf "adu-%d" i))

let test_ordered_releases_contiguous () =
  let got = ref [] in
  let o = Ordered.create ~deliver:(fun a -> got := a.Adu.name.Adu.index :: !got) () in
  Ordered.offer o (mk_indexed 2);
  Ordered.offer o (mk_indexed 1);
  Alcotest.(check (list int)) "held back" [] !got;
  Alcotest.(check int) "parked" 2 (Ordered.held o);
  Ordered.offer o (mk_indexed 0);
  Alcotest.(check (list int)) "released in order" [ 0; 1; 2 ] (List.rev !got);
  Alcotest.(check int) "drained" 0 (Ordered.held o);
  Alcotest.(check int) "next" 3 (Ordered.next_index o)

let test_ordered_skip () =
  let got = ref [] in
  let o = Ordered.create ~deliver:(fun a -> got := a.Adu.name.Adu.index :: !got) () in
  Ordered.offer o (mk_indexed 1);
  Ordered.offer o (mk_indexed 3);
  Ordered.skip o ~index:0;
  Alcotest.(check (list int)) "past the skip" [ 1 ] (List.rev !got);
  Ordered.skip o ~index:2;
  Alcotest.(check (list int)) "all out" [ 1; 3 ] (List.rev !got)

let test_ordered_duplicates_and_stale () =
  let got = ref 0 in
  let o = Ordered.create ~deliver:(fun _ -> incr got) () in
  Ordered.offer o (mk_indexed 0);
  Ordered.offer o (mk_indexed 0);
  (* stale *)
  Ordered.offer o (mk_indexed 1);
  Ordered.offer o (mk_indexed 1);
  Alcotest.(check int) "each once" 2 !got

let prop_ordered_permutation =
  QCheck.Test.make ~name:"ordered: any arrival order releases 0..n-1" ~count:300
    QCheck.(pair (int_range 1 30) int64)
    (fun (n, seed) ->
      let arr = Array.init n mk_indexed in
      Rng.shuffle (Rng.create ~seed) arr;
      let got = ref [] in
      let o = Ordered.create ~deliver:(fun a -> got := a.Adu.name.Adu.index :: !got) () in
      Array.iter (Ordered.offer o) arr;
      List.rev !got = List.init n (fun i -> i) && Ordered.held o = 0)

(* --- Secure (per-ADU encryption) --- *)

let mk_secure_adu ~dest_off payload =
  Adu.make
    (Adu.name ~dest_off ~dest_len:(String.length payload) ~stream:1 ~index:0 ())
    (buf payload)

let test_secure_round_trip () =
  let adu = mk_secure_adu ~dest_off:4096 "attack at dawn, per ADU" in
  let sealed = Secure.seal ~key:0xABCDL adu in
  Alcotest.(check bool) "ciphertext differs" false
    (Bytebuf.equal sealed.Adu.payload adu.Adu.payload);
  let opened, cksum = Secure.open_adu ~key:0xABCDL sealed in
  Alcotest.(check bool) "plaintext restored" true
    (Bytebuf.equal opened.Adu.payload adu.Adu.payload);
  Alcotest.(check int) "fused checksum = plaintext checksum"
    (Checksum.Internet.digest adu.Adu.payload) cksum

let test_secure_out_of_order_independent () =
  (* Each ADU decrypts alone: the position-keyed pad restarts the cipher
     name-space at every ADU boundary. *)
  let adus =
    List.map
      (fun (off, s) -> mk_secure_adu ~dest_off:off s)
      [ (2000, "second part!!"); (0, "first part!!!"); (4000, "third part!!!") ]
  in
  List.iter
    (fun adu ->
      let opened, _ = Secure.open_adu ~key:9L (Secure.seal ~key:9L adu) in
      Alcotest.(check bool) "independent" true
        (Bytebuf.equal opened.Adu.payload adu.Adu.payload))
    adus

let test_secure_wrong_key_garbles () =
  let adu = mk_secure_adu ~dest_off:0 "plaintext" in
  let opened, _ = Secure.open_adu ~key:2L (Secure.seal ~key:1L adu) in
  Alcotest.(check bool) "garbled" false
    (Bytebuf.equal opened.Adu.payload adu.Adu.payload)

let prop_secure_seal_summed =
  QCheck.Test.make ~name:"secure: seal_summed = seal + plaintext checksum"
    ~count:300
    QCheck.(pair (int_bound 100000) (string_of_size Gen.(0 -- 150)))
    (fun (dest_off, payload) ->
      let adu = mk_secure_adu ~dest_off payload in
      let sealed_a = Secure.seal ~key:77L adu in
      let sealed_b, cksum = Secure.seal_summed ~key:77L adu in
      Bytebuf.equal sealed_a.Adu.payload sealed_b.Adu.payload
      && cksum = Checksum.Internet.digest (buf payload))

let prop_secure_kernel_duals =
  QCheck.Test.make ~name:"secure: open(seal) at any offset" ~count:300
    QCheck.(pair (int_bound 1_000_000) (string_of_size Gen.(0 -- 200)))
    (fun (dest_off, payload) ->
      let adu = mk_secure_adu ~dest_off payload in
      let sealed = Secure.seal ~key:123L adu in
      let opened, cksum = Secure.open_adu ~key:123L sealed in
      Bytebuf.to_string opened.Adu.payload = payload
      && cksum = Checksum.Internet.digest (buf payload))

(* --- Sink --- *)

let test_sink_out_of_order_completion () =
  let t = Sink.create ~size:10 in
  Alcotest.(check bool) "empty not complete" false (Sink.complete t);
  (match Sink.write t ~off:6 (buf "ghij") with Ok () -> () | Error e -> Alcotest.fail e);
  (match Sink.write t ~off:0 (buf "abc") with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (list (pair int int))) "missing" [ (3, 3) ] (Sink.missing_ranges t);
  (match Sink.write t ~off:3 (buf "def") with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "complete" true (Sink.complete t);
  Alcotest.(check string) "contents" "abcdefghij" (Bytebuf.to_string (Sink.contents t))

let test_sink_bounds () =
  let t = Sink.create ~size:4 in
  (match Sink.write t ~off:2 (buf "xyz") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overrun accepted");
  Alcotest.(check int) "nothing covered" 0 (Sink.covered_bytes t)

let test_sink_overlap_idempotent () =
  let t = Sink.create ~size:6 in
  ignore (Sink.write t ~off:0 (buf "abcd"));
  ignore (Sink.write t ~off:2 (buf "cdef"));
  ignore (Sink.write t ~off:0 (buf "abcd"));
  Alcotest.(check int) "covered once" 6 (Sink.covered_bytes t);
  Alcotest.(check string) "contents" "abcdef" (Bytebuf.to_string (Sink.contents t));
  Alcotest.(check (list (pair int int))) "one run" [ (0, 6) ] (Sink.covered_ranges t)

let test_sink_adu_len_check () =
  let t = Sink.create ~size:10 in
  let adu = Adu.make (Adu.name ~dest_off:0 ~dest_len:5 ~stream:0 ~index:0 ()) (buf "ab") in
  match Sink.write_adu t adu with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dest_len mismatch accepted"

let prop_sink_matches_bitmap_model =
  QCheck.Test.make ~name:"sink: coverage matches bitmap model" ~count:300
    QCheck.(small_list (pair (int_bound 40) (int_bound 12)))
    (fun writes ->
      let size = 48 in
      let t = Sink.create ~size in
      let model = Array.make size false in
      List.iter
        (fun (off, len) ->
          let len = min len (size - off) in
          if len > 0 then begin
            (match Sink.write t ~off (Bytebuf.create len) with
            | Ok () -> ()
            | Error _ -> ());
            for i = off to off + len - 1 do
              model.(i) <- true
            done
          end)
        writes;
      let model_covered = Array.fold_left (fun n b -> if b then n + 1 else n) 0 model in
      let runs_disjoint_sorted =
        let rec ok = function
          | (o1, l1) :: ((o2, _) :: _ as rest) -> o1 + l1 < o2 && l1 > 0 && ok rest
          | [ (_, l) ] -> l > 0
          | [] -> true
        in
        ok (Sink.covered_ranges t)
      in
      Sink.covered_bytes t = model_covered
      && runs_disjoint_sorted
      && List.fold_left (fun n (_, l) -> n + l) 0 (Sink.missing_ranges t)
         = size - model_covered)

let prop_sink_partition_completes =
  QCheck.Test.make ~name:"sink: shuffled ADU partition completes" ~count:200
    QCheck.(pair (int_range 1 50) int64)
    (fun (adu_size, seed) ->
      let data = Bytebuf.init 200 (fun i -> Char.chr (i land 0xff)) in
      let adus = Array.of_list (Framing.frames_of_buffer ~stream:0 ~adu_size data) in
      Rng.shuffle (Rng.create ~seed) adus;
      let t = Sink.create ~size:200 in
      Array.iter (fun adu ->
          match Sink.write_adu t adu with
          | Ok () -> ()
          | Error e -> failwith e)
        adus;
      Sink.complete t && Bytebuf.equal (Sink.contents t) data)

(* --- FEC --- *)

let test_fec_parity_recover () =
  let blocks = List.map buf [ "hello"; "world"; "!!" ] in
  let prefixed = List.map (fun b ->
      let n = Bytebuf.length b in
      let out = Bytebuf.create (2 + n) in
      Bytebuf.set_uint8 out 0 (n lsr 8);
      Bytebuf.set_uint8 out 1 (n land 0xff);
      Bytebuf.blit ~src:b ~src_pos:0 ~dst:out ~dst_pos:2 ~len:n;
      out) blocks
  in
  let p = Fec.parity prefixed in
  (* Lose block 1 and recover it. *)
  let have = [ (0, List.nth prefixed 0); (2, List.nth prefixed 2) ] in
  let rec_b = Fec.recover ~have ~parity:p ~k:3 ~missing:1 in
  Alcotest.(check string) "recovered (with prefix)" "world"
    (Bytebuf.to_string (Bytebuf.sub rec_b ~pos:2 ~len:5))

let fec_stream n = List.init n (fun i ->
    buf (String.init (10 + (i mod 7)) (fun j -> Char.chr (33 + ((i + j) mod 90)))))

let test_fec_clean_stream () =
  let blocks = fec_stream 20 in
  let protected = Fec.protect ~k:4 blocks in
  Alcotest.(check int) "adds one parity per group" 25 (List.length protected);
  let got = ref [] in
  let d = Fec.decoder ~deliver:(fun b -> got := Bytebuf.to_string b :: !got) () in
  List.iter (Fec.push d) protected;
  Fec.flush d;
  Alcotest.(check (list string)) "all delivered in order"
    (List.map Bytebuf.to_string blocks)
    (List.rev !got);
  Alcotest.(check int) "nothing recovered" 0 (Fec.stats d).Fec.recovered;
  Alcotest.(check int) "nothing unrecoverable" 0 (Fec.stats d).Fec.unrecoverable

let test_fec_single_loss_per_group_recovers () =
  let blocks = fec_stream 12 in
  let protected = Fec.protect ~k:4 blocks in
  (* Drop exactly one source block in each of the 3 groups (positions
     1, 6, 11 in the protected stream = sources 1, 2, 3 of each group). *)
  let survivors = List.filteri (fun i _ -> i <> 1 && i <> 7 && i <> 13) protected in
  let got = ref [] in
  let d = Fec.decoder ~deliver:(fun b -> got := Bytebuf.to_string b :: !got) () in
  List.iter (Fec.push d) survivors;
  Fec.flush d;
  let expected = List.map Bytebuf.to_string blocks in
  Alcotest.(check int) "all blocks delivered" (List.length expected) (List.length !got);
  Alcotest.(check bool) "same multiset" true
    (List.sort compare expected = List.sort compare !got);
  Alcotest.(check int) "three recoveries" 3 (Fec.stats d).Fec.recovered

let test_fec_double_loss_unrecoverable () =
  let blocks = fec_stream 4 in
  let protected = Fec.protect ~k:4 blocks in
  (* Drop two sources of the single group. *)
  let survivors = List.filteri (fun i _ -> i <> 0 && i <> 1) protected in
  let got = ref 0 in
  let d = Fec.decoder ~deliver:(fun _ -> incr got) () in
  List.iter (Fec.push d) survivors;
  Fec.flush d;
  Alcotest.(check int) "only direct blocks" 2 !got;
  Alcotest.(check int) "group unrecoverable" 1 (Fec.stats d).Fec.unrecoverable

let test_fec_lost_parity_harmless () =
  let blocks = fec_stream 4 in
  let protected = Fec.protect ~k:4 blocks in
  let survivors = List.filteri (fun i _ -> i <> 4) protected in
  (* parity is last *)
  let got = ref 0 in
  let d = Fec.decoder ~deliver:(fun _ -> incr got) () in
  List.iter (Fec.push d) survivors;
  Fec.flush d;
  Alcotest.(check int) "all sources delivered" 4 !got;
  Alcotest.(check int) "no unrecoverable" 0 (Fec.stats d).Fec.unrecoverable

let test_fec_duplicates_ignored () =
  let blocks = fec_stream 4 in
  let protected = Fec.protect ~k:4 blocks in
  let got = ref 0 in
  let d = Fec.decoder ~deliver:(fun _ -> incr got) () in
  List.iter (Fec.push d) protected;
  List.iter (Fec.push d) protected;
  Fec.flush d;
  Alcotest.(check int) "each source once" 4 !got

let test_fec_k1_duplicate_parity () =
  (* Regression: with k=1, a parity arriving after the source completed
     the group must not re-deliver the block. *)
  let blocks = fec_stream 1 in
  let protected = Fec.protect ~k:1 blocks in
  let got = ref 0 in
  let d = Fec.decoder ~deliver:(fun _ -> incr got) () in
  List.iter (Fec.push d) protected;
  List.iter (Fec.push d) protected;
  Fec.flush d;
  Alcotest.(check int) "delivered once" 1 !got

let prop_fec_any_single_loss =
  QCheck.Test.make ~name:"fec: any single loss per group recovers" ~count:200
    QCheck.(pair (int_range 1 8) (int_range 0 30))
    (fun (k, drop_seed) ->
      let blocks = fec_stream (3 * k) in
      let protected = Fec.protect ~k blocks in
      let per_group = k + 1 in
      (* Drop one block (source or parity) per group, position derived
         from the seed. *)
      let survivors =
        List.filteri
          (fun i _ ->
            let group = i / per_group and pos = i mod per_group in
            pos <> (drop_seed + group) mod per_group)
          protected
      in
      let got = ref [] in
      let d = Fec.decoder ~deliver:(fun b -> got := Bytebuf.to_string b :: !got) () in
      List.iter (Fec.push d) survivors;
      Fec.flush d;
      List.sort compare (List.map Bytebuf.to_string blocks)
      = List.sort compare !got
      && (Fec.stats d).Fec.unrecoverable = 0)

(* --- Playout --- *)

let us f = Int64.of_float (f *. 1e6)

let test_playout_in_time () =
  let engine = Engine.create () in
  let played = ref [] in
  let p =
    Playout.create ~sched:(Engine.sched engine) ~playout_delay:0.1
      ~play:(fun adu -> played := (adu.Adu.name.Adu.index, Engine.now engine) :: !played)
      ()
  in
  (* Three frames captured at 0, 40, 80 ms; all arrive early but out of
     order; each must play exactly at capture + 100 ms. *)
  let mk i ts = Adu.make (Adu.name ~timestamp_us:(us ts) ~stream:0 ~index:i ()) (Bytebuf.create 10) in
  List.iter (fun ts -> Playout.expect p ~timestamp_us:(us ts)) [ 0.0; 0.04; 0.08 ];
  ignore (Engine.schedule_at engine 0.01 (fun () -> Playout.insert p (mk 2 0.08)));
  ignore (Engine.schedule_at engine 0.02 (fun () -> Playout.insert p (mk 0 0.0)));
  ignore (Engine.schedule_at engine 0.03 (fun () -> Playout.insert p (mk 1 0.04)));
  Engine.run_until_idle engine;
  (match List.rev !played with
  | [ (0, t0); (1, t1); (2, t2) ] ->
      Alcotest.(check (float 1e-9)) "frame 0 at 100ms" 0.1 t0;
      Alcotest.(check (float 1e-9)) "frame 1 at 140ms" 0.14 t1;
      Alcotest.(check (float 1e-9)) "frame 2 at 180ms" 0.18 t2
  | _ -> Alcotest.fail "wrong playout order");
  let st = Playout.stats p in
  Alcotest.(check int) "all played" 3 st.Playout.played;
  Alcotest.(check int) "none missing" 0 st.Playout.missing;
  Alcotest.(check int) "none late" 0 st.Playout.late

let test_playout_late_and_missing () =
  let engine = Engine.create () in
  let p = Playout.create ~sched:(Engine.sched engine) ~playout_delay:0.05 ~play:(fun _ -> ()) () in
  let mk i ts = Adu.make (Adu.name ~timestamp_us:(us ts) ~stream:0 ~index:i ()) (Bytebuf.create 1) in
  Playout.expect p ~timestamp_us:(us 0.0);
  Playout.expect p ~timestamp_us:(us 0.04);
  (* Frame 0 arrives after its 50 ms deadline; frame at 40ms never comes. *)
  ignore (Engine.schedule_at engine 0.06 (fun () -> Playout.insert p (mk 0 0.0)));
  Engine.run_until_idle engine;
  let st = Playout.stats p in
  Alcotest.(check int) "late" 1 st.Playout.late;
  Alcotest.(check int) "missing counts both" 2 st.Playout.missing;
  Alcotest.(check int) "nothing played" 0 st.Playout.played

let test_playout_multiple_per_instant () =
  let engine = Engine.create () in
  let played = ref 0 in
  let p = Playout.create ~sched:(Engine.sched engine) ~playout_delay:0.02 ~play:(fun _ -> incr played) () in
  let mk i = Adu.make (Adu.name ~timestamp_us:(us 0.01) ~stream:0 ~index:i ()) (Bytebuf.create 1) in
  for _ = 1 to 4 do
    Playout.expect p ~timestamp_us:(us 0.01)
  done;
  (* Only three of the four expected tiles arrive. *)
  Playout.insert p (mk 0);
  Playout.insert p (mk 1);
  Playout.insert p (mk 2);
  Alcotest.(check int) "buffered before deadline" 3 (Playout.buffered p);
  Engine.run_until_idle engine;
  Alcotest.(check int) "played" 3 !played;
  Alcotest.(check int) "one missing" 1 (Playout.stats p).Playout.missing

let test_playout_jitter_margin () =
  let engine = Engine.create () in
  let p = Playout.create ~sched:(Engine.sched engine) ~playout_delay:0.1 ~play:(fun _ -> ()) () in
  let mk ts = Adu.make (Adu.name ~timestamp_us:(us ts) ~stream:0 ~index:0 ()) (Bytebuf.create 1) in
  (* Captured at 0, arrives at 30 ms: margin to the 100 ms deadline is 70 ms. *)
  ignore (Engine.schedule_at engine 0.03 (fun () -> Playout.insert p (mk 0.0)));
  Engine.run_until_idle engine;
  Alcotest.(check (float 1e-6)) "margin" 0.07
    (Stats.mean (Playout.stats p).Playout.early_margin)

let () =
  Alcotest.run "core"
    [
      ( "kernels",
        [
          Alcotest.test_case "length mismatch" `Quick test_kernel_length_mismatch;
          qcheck prop_kernel_checksum_matches;
          qcheck prop_kernel_copy;
          qcheck prop_kernel_fused_copy_checksum;
          qcheck prop_kernel_fused_xor;
        ] );
      ( "machine-model",
        [
          Alcotest.test_case "table 1 shape" `Quick test_model_table1;
          Alcotest.test_case "ilp fusion prediction" `Quick test_model_ilp_fusion_prediction;
          Alcotest.test_case "presentation prediction" `Quick test_model_presentation_prediction;
          Alcotest.test_case "fused convert+checksum" `Quick test_model_fused_convert_checksum;
          Alcotest.test_case "fuse algebra" `Quick test_model_fuse_algebra;
          Alcotest.test_case "fused never slower" `Quick test_model_fused_never_slower;
          qcheck prop_model_fusion_always_wins;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "validate rules" `Quick test_ilp_validate_rules;
          Alcotest.test_case "fused rejects invalid" `Quick test_ilp_run_fused_rejects_invalid;
          Alcotest.test_case "byteswap length" `Quick test_ilp_byteswap_length_check;
          Alcotest.test_case "needs in order" `Quick test_ilp_needs_in_order;
          Alcotest.test_case "byteswap involution" `Quick test_ilp_byteswap_involution;
          Alcotest.test_case "passes accounting" `Quick test_ilp_passes_accounting;
          Alcotest.test_case "checksum placement" `Quick test_ilp_checksum_sees_transformed_data;
          Alcotest.test_case "compilation dispatch" `Quick test_ilp_compilation_dispatch;
          qcheck prop_ilp_fused_equals_layered;
          qcheck prop_ilp_byteswap_first_ok;
          qcheck prop_ilp_compiler_general;
          qcheck prop_ilp_validate_shape_determined;
          qcheck prop_ilp_fused_agrees_with_validate;
          Alcotest.test_case "run_fused ?dst" `Quick test_ilp_run_fused_dst;
          qcheck prop_ilp_instance_reuse;
          Alcotest.test_case "instance allocates nothing" `Quick
            test_ilp_instance_words;
        ] );
      ( "adu",
        [
          Alcotest.test_case "name validation" `Quick test_adu_name_validation;
          Alcotest.test_case "read aliases the buffer" `Quick test_adu_read_aliases;
          qcheck prop_adu_round_trip;
          qcheck prop_adu_corruption_detected;
        ] );
      ( "framing",
        [
          Alcotest.test_case "buffer partition" `Quick test_framing_buffer_partition;
          Alcotest.test_case "values placement" `Quick test_framing_values_placement;
          Alcotest.test_case "fragment sizes" `Quick test_framing_fragment_sizes;
          Alcotest.test_case "duplicate fragments" `Quick test_framing_duplicate_fragments;
          Alcotest.test_case "interleaved adus" `Quick test_framing_interleaved_adus;
          Alcotest.test_case "forget" `Quick test_framing_forget;
          Alcotest.test_case "pooled zero-alloc steady state" `Quick
            test_framing_pooled_zero_alloc;
          Alcotest.test_case "pooled oversize fallback" `Quick
            test_framing_pooled_oversize_falls_back;
          qcheck prop_framing_fragment_round_trip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "transport buffer" `Quick test_recovery_transport_buffer;
          Alcotest.test_case "app recompute" `Quick test_recovery_app_recompute;
          Alcotest.test_case "no recovery" `Quick test_recovery_none;
          Alcotest.test_case "release below" `Quick test_recovery_release_below;
        ] );
      ( "alf-transport",
        [
          Alcotest.test_case "clean delivery" `Quick test_alf_clean_delivery;
          Alcotest.test_case "lossy + transport buffer" `Quick test_alf_lossy_transport_buffer;
          Alcotest.test_case "out of order delivery" `Quick
            test_alf_out_of_order_delivery_under_loss;
          Alcotest.test_case "no-recovery policy" `Quick test_alf_no_recovery_policy;
          Alcotest.test_case "app-recompute policy" `Quick test_alf_app_recompute_policy;
          Alcotest.test_case "store released" `Quick test_alf_store_released_by_acks;
          Alcotest.test_case "delivery series" `Quick test_alf_delivery_series_monotone;
          Alcotest.test_case "one DONE per CLOSE" `Quick test_alf_one_done_per_close;
          Alcotest.test_case "nothing beyond the total" `Quick
            test_alf_nothing_beyond_total;
          Alcotest.test_case "corrupt ADUs counted" `Quick
            test_alf_corrupt_adu_counted;
        ] );
      ("rx", [ qcheck rx_matches_model ]);
      ( "ordered",
        [
          Alcotest.test_case "releases contiguous" `Quick test_ordered_releases_contiguous;
          Alcotest.test_case "skip" `Quick test_ordered_skip;
          Alcotest.test_case "duplicates and stale" `Quick test_ordered_duplicates_and_stale;
          qcheck prop_ordered_permutation;
        ] );
      ( "secure",
        [
          Alcotest.test_case "round trip + fused checksum" `Quick test_secure_round_trip;
          Alcotest.test_case "out of order independent" `Quick
            test_secure_out_of_order_independent;
          Alcotest.test_case "wrong key garbles" `Quick test_secure_wrong_key_garbles;
          qcheck prop_secure_seal_summed;
          qcheck prop_secure_kernel_duals;
        ] );
      ( "sink",
        [
          Alcotest.test_case "out of order completion" `Quick
            test_sink_out_of_order_completion;
          Alcotest.test_case "bounds" `Quick test_sink_bounds;
          Alcotest.test_case "overlap idempotent" `Quick test_sink_overlap_idempotent;
          Alcotest.test_case "adu length check" `Quick test_sink_adu_len_check;
          qcheck prop_sink_matches_bitmap_model;
          qcheck prop_sink_partition_completes;
        ] );
      ( "fec",
        [
          Alcotest.test_case "parity/recover primitive" `Quick test_fec_parity_recover;
          Alcotest.test_case "clean stream" `Quick test_fec_clean_stream;
          Alcotest.test_case "single loss recovers" `Quick
            test_fec_single_loss_per_group_recovers;
          Alcotest.test_case "double loss unrecoverable" `Quick
            test_fec_double_loss_unrecoverable;
          Alcotest.test_case "lost parity harmless" `Quick test_fec_lost_parity_harmless;
          Alcotest.test_case "duplicates ignored" `Quick test_fec_duplicates_ignored;
          Alcotest.test_case "k=1 duplicate parity" `Quick test_fec_k1_duplicate_parity;
          qcheck prop_fec_any_single_loss;
        ] );
      ( "playout",
        [
          Alcotest.test_case "in time, out of order" `Quick test_playout_in_time;
          Alcotest.test_case "late and missing" `Quick test_playout_late_and_missing;
          Alcotest.test_case "multiple per instant" `Quick test_playout_multiple_per_instant;
          Alcotest.test_case "jitter margin" `Quick test_playout_jitter_margin;
        ] );
      ( "session",
        [
          Alcotest.test_case "negotiates syntax and rate" `Quick
            test_session_negotiates_syntax_and_rate;
          Alcotest.test_case "no common syntax" `Quick test_session_no_common_syntax;
          Alcotest.test_case "unreachable times out" `Quick test_session_unreachable_times_out;
          Alcotest.test_case "negotiated transfer end-to-end" `Quick
            test_session_then_negotiated_transfer;
          Alcotest.test_case "negotiates over loopback sockets" `Quick
            test_session_over_loopback;
        ] );
      ( "stage2",
        [
          Alcotest.test_case "decrypt+verify pipeline" `Quick
            test_stage2_decrypt_verify_pipeline;
          Alcotest.test_case "rejects sequential cipher" `Quick
            test_stage2_rejects_sequential_cipher;
          Alcotest.test_case "rejects invalid plan" `Quick test_stage2_rejects_invalid_plan;
          Alcotest.test_case "out_pool inline zero-alloc" `Quick
            test_stage2_out_pool_inline;
          Alcotest.test_case "batched with in/out pools" `Quick
            (stage2_batched_round_trip ~staging:true);
          Alcotest.test_case "batched borrowed, no in_pool" `Quick
            (stage2_batched_round_trip ~staging:false);
        ] );
      ( "mux",
        [
          Alcotest.test_case "two streams one port" `Quick test_mux_two_streams_one_port;
          Alcotest.test_case "unrouted counted" `Quick test_mux_unrouted_counted;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "throughput accounting" `Quick test_pipeline_throughput_accounting;
          Alcotest.test_case "starvation idle" `Quick test_pipeline_starvation_idle;
          Alcotest.test_case "per-unit cost" `Quick test_pipeline_per_unit_cost;
          Alcotest.test_case "progress series" `Quick test_pipeline_progress_series;
        ] );
    ]
