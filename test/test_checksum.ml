open Bufkit

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t
let buf = Bytebuf.of_string

(* --- Internet checksum --- *)

(* The worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7 sum
   to 0xddf2, so the transmitted checksum is its complement 0x220d. *)
let rfc1071_bytes = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7"

let test_internet_rfc1071 () =
  check Alcotest.int "rfc1071 example" 0x220d
    (Checksum.Internet.digest (buf rfc1071_bytes))

let test_internet_empty () =
  check Alcotest.int "empty" 0xffff (Checksum.Internet.digest Bytebuf.empty)

let test_internet_odd_length () =
  (* "a" pads to 0x6100; complement = 0x9eff. *)
  check Alcotest.int "single byte" 0x9eff (Checksum.Internet.digest (buf "a"))

let test_internet_verify () =
  Alcotest.(check bool) "verify" true
    (Checksum.Internet.verify (buf rfc1071_bytes) ~expected:0x220d);
  Alcotest.(check bool) "verify wrong" false
    (Checksum.Internet.verify (buf rfc1071_bytes) ~expected:0x220e)

(* A packet whose stored checksum is correct sums (with the checksum
   included) to 0xffff, i.e. finish = 0 — the receive-side identity the
   transports rely on. *)
let test_internet_receive_identity () =
  let data = buf "\x45\x00\x00\x1cabcdefgh" in
  let c = Checksum.Internet.digest data in
  let with_sum = Bytebuf.concat [ data; Bytebuf.create 2 ] in
  Bytebuf.set_uint8 with_sum (Bytebuf.length data) (c lsr 8);
  Bytebuf.set_uint8 with_sum (Bytebuf.length data + 1) (c land 0xff);
  check Alcotest.int "sums to zero" 0
    (Checksum.Internet.finish
       (Checksum.Internet.feed Checksum.Internet.init with_sum))

let chunked_digest s cuts =
  let st = ref Checksum.Internet.init in
  let n = String.length s in
  let rec go i cuts =
    if i < n then begin
      let step =
        match cuts with [] -> n - i | c :: _ -> max 1 (min (n - i) ((c mod 7) + 1))
      in
      st := Checksum.Internet.feed !st (buf (String.sub s i step));
      go (i + step) (match cuts with [] -> [] | _ :: rest -> rest)
    end
  in
  go 0 cuts;
  Checksum.Internet.finish !st

let prop_internet_chunking =
  QCheck.Test.make ~name:"internet: chunking invariant" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (list small_nat))
    (fun (s, cuts) -> chunked_digest s cuts = Checksum.Internet.digest (buf s))

let prop_internet_bytewise =
  QCheck.Test.make ~name:"internet: bytewise = bulk" ~count:300
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let st = ref Checksum.Internet.init in
      String.iter (fun c -> st := Checksum.Internet.feed_byte !st (Char.code c)) s;
      Checksum.Internet.finish !st = Checksum.Internet.digest (buf s))

let prop_internet_feed_sub_split =
  (* feed_sub must resume correctly at any boundary — in particular an odd
     split point, where the second call starts on the low half of a 16-bit
     word (the [odd] parity carried across calls). *)
  QCheck.Test.make ~name:"internet: feed_sub split = digest" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (pair small_nat small_nat))
    (fun (s, (c1, c2)) ->
      let b = buf s in
      let n = String.length s in
      let k1 = if n = 0 then 0 else c1 mod (n + 1) in
      let k2 = if n = k1 then k1 else k1 + (c2 mod (n - k1 + 1)) in
      let st = Checksum.Internet.init in
      let st = Checksum.Internet.feed_sub st b ~pos:0 ~len:k1 in
      let st = Checksum.Internet.feed_sub st b ~pos:k1 ~len:(k2 - k1) in
      let st = Checksum.Internet.feed_sub st b ~pos:k2 ~len:(n - k2) in
      Checksum.Internet.finish st = Checksum.Internet.digest b)

let test_internet_feed_sub_odd_resume () =
  (* Deterministic witness for the parity hand-off: split the RFC 1071
     example at every boundary, odd ones included. *)
  let b = buf rfc1071_bytes in
  let n = Bytebuf.length b in
  let expected = Checksum.Internet.digest b in
  for k = 0 to n do
    let st = Checksum.Internet.feed_sub Checksum.Internet.init b ~pos:0 ~len:k in
    let st = Checksum.Internet.feed_sub st b ~pos:k ~len:(n - k) in
    check Alcotest.int
      (Printf.sprintf "split at %d" k)
      expected
      (Checksum.Internet.finish st)
  done

let prop_internet_iovec =
  QCheck.Test.make ~name:"internet: iovec = flat" ~count:300
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let frags =
        (* Odd-sized fragments stress the parity tracking. *)
        let rec split i acc =
          if i >= String.length s then List.rev acc
          else
            let len = min (1 + (i mod 3)) (String.length s - i) in
            split (i + len) (Bytebuf.of_string (String.sub s i len) :: acc)
        in
        split 0 []
      in
      Checksum.Internet.digest_iovec (Iovec.of_list frags)
      = Checksum.Internet.digest (buf s))

(* --- Fletcher --- *)

(* Naive references to check the optimised implementations against. *)
let fletcher16_ref s =
  let s1 = ref 0 and s2 = ref 0 in
  String.iter
    (fun c ->
      s1 := (!s1 + Char.code c) mod 255;
      s2 := (!s2 + !s1) mod 255)
    s;
  (!s2 lsl 8) lor !s1

let fletcher32_ref s =
  let a = ref 0 and b = ref 0 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let lo = Char.code s.[!i] in
    let hi = if !i + 1 < n then Char.code s.[!i + 1] else 0 in
    a := (!a + (lo lor (hi lsl 8))) mod 65535;
    b := (!b + !a) mod 65535;
    i := !i + 2
  done;
  Int32.logor (Int32.shift_left (Int32.of_int !b) 16) (Int32.of_int !a)

let prop_fletcher16_ref =
  QCheck.Test.make ~name:"fletcher16 matches reference" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> Checksum.Fletcher.digest16 (buf s) = fletcher16_ref s)

let prop_fletcher32_ref =
  QCheck.Test.make ~name:"fletcher32 matches reference" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> Int32.equal (Checksum.Fletcher.digest32 (buf s)) (fletcher32_ref s))

let prop_fletcher32_chunking =
  QCheck.Test.make ~name:"fletcher32: chunking invariant" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (int_range 1 7))
    (fun (s, step) ->
      let st = ref Checksum.Fletcher.init32 in
      let rec go i =
        if i < String.length s then begin
          let len = min step (String.length s - i) in
          st := Checksum.Fletcher.feed32 !st (buf (String.sub s i len));
          go (i + len)
        end
      in
      go 0;
      Int32.equal (Checksum.Fletcher.finish32 !st)
        (Checksum.Fletcher.digest32 (buf s)))

let test_fletcher16_position_sensitive () =
  Alcotest.(check bool) "transposition detected" false
    (Checksum.Fletcher.digest16 (buf "ab") = Checksum.Fletcher.digest16 (buf "ba"))

(* --- Adler-32 --- *)

let test_adler_wikipedia () =
  check Alcotest.int32 "Wikipedia vector" 0x11E60398l
    (Checksum.Adler32.digest_string "Wikipedia")

let test_adler_empty () =
  check Alcotest.int32 "empty = 1" 1l (Checksum.Adler32.digest_string "")

let prop_adler_chunking =
  QCheck.Test.make ~name:"adler32: chunking invariant" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (int_range 1 9))
    (fun (s, step) ->
      let st = ref Checksum.Adler32.init in
      let rec go i =
        if i < String.length s then begin
          let len = min step (String.length s - i) in
          st := Checksum.Adler32.feed !st (buf (String.sub s i len));
          go (i + len)
        end
      in
      go 0;
      Int32.equal (Checksum.Adler32.finish !st) (Checksum.Adler32.digest (buf s)))

let test_adler_nmax_boundary () =
  (* Exercise the deferred reduction across the NMAX batch edge. *)
  let s = String.make 12000 '\xff' in
  let expect =
    let a = ref 1 and b = ref 0 in
    String.iter
      (fun c ->
        a := (!a + Char.code c) mod 65521;
        b := (!b + !a) mod 65521)
      s;
    Int32.logor (Int32.shift_left (Int32.of_int !b) 16) (Int32.of_int !a)
  in
  check Alcotest.int32 "long ff run" expect (Checksum.Adler32.digest_string s)

(* --- CRC-32 --- *)

let test_crc32_check_value () =
  check Alcotest.int32 "123456789" 0xCBF43926l
    (Checksum.Crc32.digest_string "123456789")

let test_crc32_fox () =
  check Alcotest.int32 "quick brown fox" 0x414FA339l
    (Checksum.Crc32.digest_string "The quick brown fox jumps over the lazy dog")

let test_crc32_empty () =
  check Alcotest.int32 "empty" 0l (Checksum.Crc32.digest_string "")

let prop_crc32_chunking =
  QCheck.Test.make ~name:"crc32: chunking invariant" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (int_range 1 9))
    (fun (s, step) ->
      let st = ref Checksum.Crc32.init in
      let rec go i =
        if i < String.length s then begin
          let len = min step (String.length s - i) in
          st := Checksum.Crc32.feed !st (buf (String.sub s i len));
          go (i + len)
        end
      in
      go 0;
      Int32.equal (Checksum.Crc32.finish !st) (Checksum.Crc32.digest (buf s)))

(* [b] is up to 80 random bytes, half the time followed by a zero run of
   up to 2^20 bytes, so [len2] reaches bit 20 and every table entry up
   to x^(2^23) takes part. *)
let crc s = Int32.to_int (Checksum.Crc32.digest_string s) land 0xFFFFFFFF

let prop_crc32_combine =
  QCheck.Test.make ~name:"crc32: combine(crc a, crc b, |b|) = crc (a^b)"
    ~count:300
    QCheck.(
      triple (string_of_size Gen.(0 -- 80)) (string_of_size Gen.(0 -- 80))
        (make Gen.(oneof [ return 0; int_bound (1 lsl 20) ])))
    (fun (a, b, zeros) ->
      let b = b ^ String.make zeros '\000' in
      Checksum.Crc32.combine (crc a) (crc b) (String.length b) = crc (a ^ b))

let test_crc32_combine_lengths () =
  let a = "ALF header" in
  List.iter
    (fun len2 ->
      let b = String.init len2 (fun i -> Char.chr ((i * 131) land 0xff)) in
      check Alcotest.int
        (Printf.sprintf "len2 = %d" len2)
        (crc (a ^ b))
        (Checksum.Crc32.combine (crc a) (crc b) len2))
    [ 0; 1; 20; 36; 1472; 65536 ]

let test_crc32_combine_words_flat () =
  (* The powers of x come from a table built at module init, and the
     digests are immediate ints: a call allocates nothing, at any
     [len2]. *)
  let words len2 =
    let before = Gc.minor_words () in
    ignore (Checksum.Crc32.combine 0x12345678 0x9ABCDEF0 len2);
    int_of_float (Gc.minor_words () -. before)
  in
  check Alcotest.int "len2 = 20" 0 (words 20);
  check Alcotest.int "len2 = 10^6" 0 (words 1_000_000)

let test_crc32_combine_known () =
  (* Splitting the check vector anywhere must reproduce it. *)
  let s = "123456789" in
  for cut = 0 to String.length s do
    let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
    check Alcotest.int
      (Printf.sprintf "cut %d" cut)
      0xCBF43926
      (Checksum.Crc32.combine (crc a) (crc b) (String.length b))
  done

(* --- Kind dispatch --- *)

let test_kind_names () =
  List.iter
    (fun k ->
      match Checksum.Kind.of_string (Checksum.Kind.to_string k) with
      | Some k' when k' = k -> ()
      | _ -> Alcotest.fail "name round trip")
    Checksum.Kind.all;
  Alcotest.(check bool) "unknown name" true
    (Checksum.Kind.of_string "nope" = None)

let prop_kind_feeder_matches_digest =
  let kind_gen = QCheck.Gen.oneofl Checksum.Kind.all in
  QCheck.Test.make ~name:"kind: feeder = digest" ~count:300
    QCheck.(pair (make kind_gen) (string_of_size Gen.(0 -- 80)))
    (fun (kind, s) ->
      let b = buf s in
      let via_feeder =
        Checksum.Kind.feeder_finish
          (Checksum.Kind.feeder_buf (Checksum.Kind.feeder kind) b)
      in
      let via_bytes =
        let f = ref (Checksum.Kind.feeder kind) in
        String.iter (fun c -> f := Checksum.Kind.feeder_byte !f (Char.code c)) s;
        Checksum.Kind.feeder_finish !f
      in
      via_feeder = Checksum.Kind.digest kind b
      && via_bytes = Checksum.Kind.digest kind b)

(* --- byte feeders (the ILP compiler's tail op) --- *)

let prop_fletcher32_feed_byte =
  QCheck.Test.make ~name:"fletcher32: feed32_byte stream = digest32" ~count:300
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s ->
      let st = ref Checksum.Fletcher.init32 in
      String.iter (fun c -> st := Checksum.Fletcher.feed32_byte !st (Char.code c)) s;
      Checksum.Fletcher.finish32 !st = Checksum.Fletcher.digest32 (buf s))

let () =
  Alcotest.run "checksum"
    [
      ( "internet",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_internet_rfc1071;
          Alcotest.test_case "empty" `Quick test_internet_empty;
          Alcotest.test_case "odd length" `Quick test_internet_odd_length;
          Alcotest.test_case "verify" `Quick test_internet_verify;
          Alcotest.test_case "receive identity" `Quick test_internet_receive_identity;
          qcheck prop_internet_chunking;
          qcheck prop_internet_bytewise;
          qcheck prop_internet_iovec;
          qcheck prop_internet_feed_sub_split;
          Alcotest.test_case "feed_sub odd resume" `Quick
            test_internet_feed_sub_odd_resume;
        ] );
      ( "fletcher",
        [
          Alcotest.test_case "position sensitive" `Quick
            test_fletcher16_position_sensitive;
          qcheck prop_fletcher16_ref;
          qcheck prop_fletcher32_ref;
          qcheck prop_fletcher32_chunking;
          qcheck prop_fletcher32_feed_byte;
        ] );
      ( "adler32",
        [
          Alcotest.test_case "wikipedia" `Quick test_adler_wikipedia;
          Alcotest.test_case "empty" `Quick test_adler_empty;
          Alcotest.test_case "nmax boundary" `Quick test_adler_nmax_boundary;
          qcheck prop_adler_chunking;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "check value" `Quick test_crc32_check_value;
          Alcotest.test_case "fox" `Quick test_crc32_fox;
          Alcotest.test_case "empty" `Quick test_crc32_empty;
          Alcotest.test_case "combine known" `Quick test_crc32_combine_known;
          Alcotest.test_case "combine lengths" `Quick test_crc32_combine_lengths;
          Alcotest.test_case "combine words flat" `Quick
            test_crc32_combine_words_flat;
          qcheck prop_crc32_chunking;
          qcheck prop_crc32_combine;
        ] );
      ( "kind",
        [
          Alcotest.test_case "names" `Quick test_kind_names;
          qcheck prop_kind_feeder_matches_digest;
        ] );
    ]
