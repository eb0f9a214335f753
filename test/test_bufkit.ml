open Bufkit

let check = Alcotest.check
let fail = Alcotest.fail

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- Bytebuf --- *)

let test_create_zeroed () =
  let b = Bytebuf.create 8 in
  check Alcotest.int "length" 8 (Bytebuf.length b);
  for i = 0 to 7 do
    check Alcotest.char "zero" '\000' (Bytebuf.get b i)
  done

let test_create_negative () =
  match Bytebuf.create (-1) with
  | _ -> fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_of_string_round_trip () =
  let s = "hello, world" in
  check Alcotest.string "round trip" s (Bytebuf.to_string (Bytebuf.of_string s))

let test_sub_aliases () =
  let b = Bytebuf.of_string "abcdef" in
  let v = Bytebuf.sub b ~pos:2 ~len:3 in
  Bytebuf.set v 0 'X';
  check Alcotest.string "write through view" "abXdef" (Bytebuf.to_string b);
  check Alcotest.string "view contents" "Xde" (Bytebuf.to_string v)

let test_sub_bounds () =
  let b = Bytebuf.create 4 in
  (match Bytebuf.sub b ~pos:2 ~len:3 with
  | _ -> fail "expected Bounds"
  | exception Bytebuf.Bounds _ -> ());
  match Bytebuf.sub b ~pos:(-1) ~len:1 with
  | _ -> fail "expected Bounds"
  | exception Bytebuf.Bounds _ -> ()

let test_split () =
  let a, b = Bytebuf.split (Bytebuf.of_string "abcdef") 2 in
  check Alcotest.string "left" "ab" (Bytebuf.to_string a);
  check Alcotest.string "right" "cdef" (Bytebuf.to_string b)

let test_get_set_bounds () =
  let b = Bytebuf.create 2 in
  (match Bytebuf.get b 2 with
  | _ -> fail "expected Bounds"
  | exception Bytebuf.Bounds _ -> ());
  (match Bytebuf.set b (-1) 'x' with
  | () -> fail "expected Bounds"
  | exception Bytebuf.Bounds _ -> ());
  match Bytebuf.set_uint8 b 0 256 with
  | () -> fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_blit () =
  let src = Bytebuf.of_string "abcdef" in
  let dst = Bytebuf.create 6 in
  Bytebuf.blit ~src ~src_pos:1 ~dst ~dst_pos:2 ~len:3;
  check Alcotest.string "blit" "\000\000bcd\000" (Bytebuf.to_string dst)

let test_blit_from_string () =
  let dst = Bytebuf.create 4 in
  Bytebuf.blit_from_string "wxyz" ~src_pos:1 ~dst ~dst_pos:0 ~len:3;
  check Alcotest.string "blit_from_string" "xyz\000" (Bytebuf.to_string dst)

let test_fill_view_only () =
  let b = Bytebuf.of_string "abcdef" in
  Bytebuf.fill (Bytebuf.sub b ~pos:1 ~len:3) 'z';
  check Alcotest.string "fill scoped to view" "azzzef" (Bytebuf.to_string b)

let test_copy_independent () =
  let b = Bytebuf.of_string "abc" in
  let c = Bytebuf.copy b in
  Bytebuf.set c 0 'X';
  check Alcotest.string "original untouched" "abc" (Bytebuf.to_string b)

let test_concat () =
  let parts = List.map Bytebuf.of_string [ "ab"; ""; "c"; "def" ] in
  check Alcotest.string "concat" "abcdef" (Bytebuf.to_string (Bytebuf.concat parts))

let test_equal_across_backings () =
  let a = Bytebuf.of_string "xabcx" in
  let b = Bytebuf.of_string "abc" in
  Alcotest.(check bool) "equal views" true
    (Bytebuf.equal (Bytebuf.sub a ~pos:1 ~len:3) b);
  Alcotest.(check bool) "unequal" false (Bytebuf.equal a b)

let prop_sub_compose =
  QCheck.Test.make ~name:"bytebuf sub composes" ~count:300
    QCheck.(triple (string_of_size Gen.(0 -- 64)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let buf = Bytebuf.of_string s in
      let p1 = if n = 0 then 0 else a mod (n + 1) in
      let l1 = n - p1 in
      let inner = Bytebuf.sub buf ~pos:p1 ~len:l1 in
      let p2 = if l1 = 0 then 0 else b mod (l1 + 1) in
      let l2 = l1 - p2 in
      Bytebuf.to_string (Bytebuf.sub inner ~pos:p2 ~len:l2)
      = Bytebuf.to_string (Bytebuf.sub buf ~pos:(p1 + p2) ~len:l2))

let prop_compare_matches_string =
  QCheck.Test.make ~name:"bytebuf compare = string compare" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 32)) (string_of_size Gen.(0 -- 32)))
    (fun (a, b) ->
      compare (Bytebuf.compare (Bytebuf.of_string a) (Bytebuf.of_string b)) 0
      = compare (String.compare a b) 0)

let prop_blit_overlap_memmove =
  QCheck.Test.make ~name:"bytebuf blit handles overlap (memmove)" ~count:300
    QCheck.(triple (string_of_size Gen.(1 -- 40)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let src_pos = a mod n and dst_pos = b mod n in
      let len = min (n - src_pos) (n - dst_pos) in
      (* Reference on plain strings. *)
      let expect = Bytes.of_string s in
      Bytes.blit_string s src_pos expect dst_pos len;
      let buf = Bytebuf.of_string s in
      Bytebuf.blit ~src:buf ~src_pos ~dst:buf ~dst_pos ~len;
      Bytebuf.to_string buf = Bytes.to_string expect)

(* --- Cursor --- *)

let test_cursor_round_trip () =
  let b = Bytebuf.create 64 in
  let w = Cursor.writer b in
  Cursor.put_u8 w 0xAB;
  Cursor.put_u16be w 0x1234;
  Cursor.put_u16le w 0x5678;
  Cursor.put_u32be w 0xDEADBEEFl;
  Cursor.put_u32le w 0xCAFEBABEl;
  Cursor.put_u64be w 0x0123456789ABCDEFL;
  Cursor.put_string w "xyz";
  let r = Cursor.reader (Cursor.written w) in
  check Alcotest.int "u8" 0xAB (Cursor.u8 r);
  check Alcotest.int "u16be" 0x1234 (Cursor.u16be r);
  check Alcotest.int "u16le" 0x5678 (Cursor.u16le r);
  check Alcotest.int32 "u32be" 0xDEADBEEFl (Cursor.u32be r);
  check Alcotest.int32 "u32le" 0xCAFEBABEl (Cursor.u32le r);
  Alcotest.(check int64) "u64be" 0x0123456789ABCDEFL (Cursor.u64be r);
  check Alcotest.string "string" "xyz" (Cursor.string r 3);
  check Alcotest.int "exhausted" 0 (Cursor.remaining r)

let test_cursor_underflow () =
  let r = Cursor.reader (Bytebuf.create 1) in
  match Cursor.u16be r with
  | _ -> fail "expected Underflow"
  | exception Cursor.Underflow _ -> ()

let test_cursor_overflow () =
  let w = Cursor.writer (Bytebuf.create 1) in
  match Cursor.put_u16be w 0 with
  | () -> fail "expected Overflow"
  | exception Cursor.Overflow _ -> ()

let test_cursor_zero_copy_bytes () =
  let b = Bytebuf.of_string "abcd" in
  let r = Cursor.reader b in
  let v = Cursor.bytes r 2 in
  Bytebuf.set v 0 'X';
  check Alcotest.string "aliases" "Xbcd" (Bytebuf.to_string b)

let prop_cursor_u32_round =
  QCheck.Test.make ~name:"cursor u32 be/le round trip" ~count:300 QCheck.int32
    (fun v ->
      let b = Bytebuf.create 8 in
      let w = Cursor.writer b in
      Cursor.put_u32be w v;
      Cursor.put_u32le w v;
      let r = Cursor.reader b in
      Int32.equal (Cursor.u32be r) v && Int32.equal (Cursor.u32le r) v)

let prop_cursor_u64_round =
  QCheck.Test.make ~name:"cursor u64be round trip" ~count:300 QCheck.int64
    (fun v ->
      let b = Bytebuf.create 8 in
      let w = Cursor.writer b in
      Cursor.put_u64be w v;
      Int64.equal (Cursor.u64be (Cursor.reader b)) v)

(* --- Iovec --- *)

let random_frags s rng_seed =
  (* Deterministic split of s into fragments. *)
  let rec go i salt acc =
    if i >= String.length s then List.rev acc
    else
      let step = 1 + ((salt * 7 + i) mod 5) in
      let len = min step (String.length s - i) in
      go (i + len) (salt + 13) (Bytebuf.of_string (String.sub s i len) :: acc)
  in
  go 0 rng_seed []

let test_iovec_basic () =
  let v = Iovec.of_list (random_frags "hello world" 3) in
  check Alcotest.int "length" 11 (Iovec.length v);
  check Alcotest.string "to_string" "hello world" (Iovec.to_string v);
  check Alcotest.char "get" 'w' (Iovec.get v 6)

let prop_iovec_fragmentation_invariant =
  QCheck.Test.make ~name:"iovec equal across fragmentations" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (pair small_nat small_nat))
    (fun (s, (s1, s2)) ->
      let a = Iovec.of_list (random_frags s s1) in
      let b = Iovec.of_list (random_frags s (s2 + 100)) in
      Iovec.equal a b && Iovec.to_string a = s
      && Bytebuf.to_string (Iovec.gather a) = s)

let prop_iovec_sub =
  QCheck.Test.make ~name:"iovec sub = string sub" ~count:300
    QCheck.(triple (string_of_size Gen.(0 -- 60)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      let v = Iovec.of_list (random_frags s 1) in
      Iovec.to_string (Iovec.sub v ~pos ~len) = String.sub s pos len)

let prop_iovec_chunk =
  QCheck.Test.make ~name:"iovec chunk partitions" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 60)) (int_range 1 9))
    (fun (s, size) ->
      let v = Iovec.of_list (random_frags s 2) in
      let chunks = Iovec.chunk v ~size in
      String.concat "" (List.map Iovec.to_string chunks) = s
      && List.for_all (fun c -> Iovec.length c <= size) chunks)

let test_iovec_fold_bytes () =
  let v = Iovec.of_list (random_frags "abc" 1) in
  let collected =
    Iovec.fold_bytes v ~init:[] ~f:(fun acc c -> c :: acc) |> List.rev
  in
  check
    Alcotest.(list char)
    "fold order" [ 'a'; 'b'; 'c' ] collected

let test_iovec_blit_to () =
  let v = Iovec.of_list (random_frags "abcdef" 5) in
  let dst = Bytebuf.create 8 in
  Iovec.blit_to v ~dst ~dst_pos:1;
  check Alcotest.string "blit_to" "\000abcdef\000" (Bytebuf.to_string dst)

let test_iovec_builders () =
  let v = Iovec.of_string "cd" in
  let v = Iovec.cons (Bytebuf.of_string "ab") v in
  let v = Iovec.snoc v (Bytebuf.of_string "ef") in
  let v = Iovec.append v (Iovec.of_string "gh") in
  check Alcotest.string "built" "abcdefgh" (Iovec.to_string v);
  check Alcotest.int "fragments" 4 (Iovec.fragments v);
  (* Empty fragments are dropped on construction. *)
  check Alcotest.int "empties dropped" 1
    (Iovec.fragments (Iovec.of_list [ Bytebuf.empty; Bytebuf.of_string "x"; Bytebuf.empty ]))

let test_iovec_get_bounds () =
  let v = Iovec.of_string "abc" in
  match Iovec.get v 3 with
  | _ -> fail "expected Bounds"
  | exception Bytebuf.Bounds _ -> ()

let test_cursor_writer_accounting () =
  let w = Cursor.writer (Bytebuf.create 10) in
  check Alcotest.int "fresh remaining" 10 (Cursor.writer_remaining w);
  Cursor.put_u16be w 1;
  check Alcotest.int "pos" 2 (Cursor.writer_pos w);
  check Alcotest.int "remaining" 8 (Cursor.writer_remaining w);
  Cursor.put_bytes w (Bytebuf.of_string "abc");
  check Alcotest.int "after bytes" 5 (Cursor.writer_pos w);
  check Alcotest.string "written prefix" "\x00\x01abc"
    (Bytebuf.to_string (Cursor.written w))

(* --- Pool --- *)

let test_pool_reuse () =
  let p = Pool.create ~buf_size:16 () in
  let a = Pool.acquire p in
  Bytebuf.fill a 'x';
  Pool.release p a;
  let b = Pool.acquire p in
  check Alcotest.char "zeroed on reuse" '\000' (Bytebuf.get b 0);
  let st = Pool.stats p in
  check Alcotest.int "allocated once" 1 st.Pool.allocated;
  check Alcotest.int "reused once" 1 st.Pool.reused;
  check Alcotest.int "outstanding" 1 st.Pool.outstanding

let test_pool_high_water () =
  let p = Pool.create ~buf_size:4 () in
  let bufs = List.init 5 (fun _ -> Pool.acquire p) in
  List.iter (Pool.release p) bufs;
  let _ = Pool.acquire p in
  check Alcotest.int "high water" 5 (Pool.stats p).Pool.high_water

let test_pool_wrong_size () =
  let p = Pool.create ~buf_size:4 () in
  match Pool.release p (Bytebuf.create 5) with
  | () -> fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_pool_double_release () =
  let p = Pool.create ~buf_size:8 () in
  let a = Pool.acquire p in
  let b = Pool.acquire p in
  Pool.release p a;
  (match Pool.release p a with
  | () -> fail "expected Invalid_argument on double release"
  | exception Invalid_argument _ -> ());
  (* The pool is still usable and consistent after the rejected release. *)
  Pool.release p b;
  check Alcotest.int "outstanding" 0 (Pool.stats p).Pool.outstanding

(* The guard stays exact at any free depth: with 1 and with 1,024
   buffers free, re-releasing the first buffer released (the bottom of
   the free stack) or the last (its top) raises, and a legal release at
   depth 1,024 costs no GC words. *)
let test_pool_deep_double_release () =
  List.iter
    (fun depth ->
      let p = Pool.create ~capacity:(depth + 1) ~buf_size:2048 () in
      let bufs = Array.init depth (fun _ -> Pool.acquire p) in
      let spare = Pool.acquire p in
      Array.iter (Pool.release p) bufs;
      List.iter
        (fun (which, b) ->
          match Pool.release p b with
          | () ->
              Alcotest.failf "depth %d: re-releasing the %s buffer passed" depth
                which
          | exception Invalid_argument msg ->
              check Alcotest.string "the double-release guard"
                "Pool.release: buffer already released" msg)
        [ ("first", bufs.(0)); ("last", bufs.(depth - 1)) ];
      let w0 = Gc.minor_words () in
      Pool.release p spare;
      let words = Gc.minor_words () -. w0 in
      check (Alcotest.float 0.) (Printf.sprintf "release words at depth %d" depth)
        0. words;
      check Alcotest.int "outstanding" 0 (Pool.stats p).Pool.outstanding)
    [ 1; 1024 ]

let test_pool_over_release () =
  let p = Pool.create ~capacity:0 ~buf_size:8 () in
  let a = Pool.acquire p in
  Pool.release p a;
  (* capacity 0 dropped the buffer, so the free-list scan cannot see it;
     the outstanding count still refuses the second release. *)
  (match Pool.release p a with
  | () -> fail "expected Invalid_argument on over-release"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "outstanding never negative" 0
    (Pool.stats p).Pool.outstanding

(* The multi-domain variant of the double-release regression: 4 domains
   hammer acquire/release on one pool. Without the internal mutex two
   domains can scan the free list concurrently and walk away with the
   same buffer; the accounting invariants below then break. *)
let test_pool_multidomain_accounting () =
  let p = Pool.create ~buf_size:32 () in
  let rounds = 2_000 in
  let aliased = Atomic.make false in
  let hammer () =
    for i = 1 to rounds do
      let a = Pool.acquire p in
      let b = Pool.acquire p in
      (* Two live acquisitions must never alias. *)
      if a == b then Atomic.set aliased true;
      (* Touch the buffers so a shared buffer would also tear data. *)
      Bytebuf.set_uint8 a 0 (i land 0xff);
      Bytebuf.set_uint8 b 0 ((i + 1) land 0xff);
      Pool.release p b;
      Pool.release p a
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn hammer) in
  hammer ();
  Array.iter Domain.join domains;
  check Alcotest.bool "no aliased buffers" false (Atomic.get aliased);
  let st = Pool.stats p in
  check Alcotest.int "all returned" 0 st.Pool.outstanding;
  (* Every release succeeded (a double-release Invalid_argument in a
     worker would have escaped the join), and the ledger balances. *)
  check Alcotest.bool "high water sane" true
    (st.Pool.high_water >= 2 && st.Pool.high_water <= 8)

let test_pool_capacity_cap () =
  let p = Pool.create ~capacity:1 ~buf_size:4 () in
  let a = Pool.acquire p and b = Pool.acquire p in
  Pool.release p a;
  Pool.release p b;
  let _ = Pool.acquire p in
  let _ = Pool.acquire p in
  (* Second acquire after cap-1 free list must allocate fresh. *)
  check Alcotest.int "allocations" 3 (Pool.stats p).Pool.allocated

(* --- Hexdump --- *)

let test_hexdump_shape () =
  let out = Hexdump.to_string (Bytebuf.of_string "ABC") in
  Alcotest.(check bool) "has offset" true
    (String.length out > 8 && String.sub out 0 8 = "00000000");
  Alcotest.(check bool) "has ascii gutter" true
    (String.contains out '|')

let test_hexdump_empty () =
  Alcotest.(check bool) "empty marker" true
    (Hexdump.to_string Bytebuf.empty = "(empty)\n")

let test_created_total_accounting () =
  let before = Bytebuf.created_total () in
  let b = Bytebuf.create 8 in
  let after_create = Bytebuf.created_total () in
  Alcotest.(check bool) "create counts" true (after_create > before);
  (* Views are free: aliasing must not move the allocation counter. *)
  let snap = Bytebuf.created_total () in
  ignore (Bytebuf.sub b ~pos:2 ~len:4);
  ignore (Bytebuf.take b 3);
  ignore (Bytebuf.shift b 1);
  Alcotest.(check int) "views don't count" snap (Bytebuf.created_total ());
  ignore (Bytebuf.copy b);
  Alcotest.(check bool) "copy counts" true (Bytebuf.created_total () > snap)

let test_pool_reuse_no_creates () =
  let p = Pool.create ~buf_size:32 () in
  let warm = Pool.acquire p in
  Pool.release p warm;
  let snap = Bytebuf.created_total () in
  for _ = 1 to 10 do
    let b = Pool.acquire p in
    Pool.release p b
  done;
  Alcotest.(check int) "steady-state acquire allocates nothing" snap
    (Bytebuf.created_total ())

let () =
  Alcotest.run "bufkit"
    [
      ( "bytebuf",
        [
          Alcotest.test_case "create zeroed" `Quick test_create_zeroed;
          Alcotest.test_case "create negative" `Quick test_create_negative;
          Alcotest.test_case "of_string round trip" `Quick test_of_string_round_trip;
          Alcotest.test_case "sub aliases" `Quick test_sub_aliases;
          Alcotest.test_case "sub bounds" `Quick test_sub_bounds;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "get/set bounds" `Quick test_get_set_bounds;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "blit_from_string" `Quick test_blit_from_string;
          Alcotest.test_case "fill view only" `Quick test_fill_view_only;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "equal across backings" `Quick test_equal_across_backings;
          qcheck prop_sub_compose;
          qcheck prop_compare_matches_string;
          qcheck prop_blit_overlap_memmove;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "round trip" `Quick test_cursor_round_trip;
          Alcotest.test_case "underflow" `Quick test_cursor_underflow;
          Alcotest.test_case "overflow" `Quick test_cursor_overflow;
          Alcotest.test_case "zero-copy bytes" `Quick test_cursor_zero_copy_bytes;
          qcheck prop_cursor_u32_round;
          qcheck prop_cursor_u64_round;
        ] );
      ( "iovec",
        [
          Alcotest.test_case "basic" `Quick test_iovec_basic;
          Alcotest.test_case "fold bytes" `Quick test_iovec_fold_bytes;
          Alcotest.test_case "blit_to" `Quick test_iovec_blit_to;
          qcheck prop_iovec_fragmentation_invariant;
          qcheck prop_iovec_sub;
          qcheck prop_iovec_chunk;
        ] );
      ( "misc-coverage",
        [
          Alcotest.test_case "iovec builders" `Quick test_iovec_builders;
          Alcotest.test_case "iovec get bounds" `Quick test_iovec_get_bounds;
          Alcotest.test_case "cursor writer accounting" `Quick test_cursor_writer_accounting;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse + zeroing" `Quick test_pool_reuse;
          Alcotest.test_case "high water" `Quick test_pool_high_water;
          Alcotest.test_case "wrong size" `Quick test_pool_wrong_size;
          Alcotest.test_case "double release" `Quick test_pool_double_release;
          Alcotest.test_case "double release at depth" `Quick
            test_pool_deep_double_release;
          Alcotest.test_case "over release" `Quick test_pool_over_release;
          Alcotest.test_case "capacity cap" `Quick test_pool_capacity_cap;
          Alcotest.test_case "multi-domain accounting" `Quick
            test_pool_multidomain_accounting;
          Alcotest.test_case "created_total accounting" `Quick
            test_created_total_accounting;
          Alcotest.test_case "steady-state zero creates" `Quick
            test_pool_reuse_no_creates;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "shape" `Quick test_hexdump_shape;
          Alcotest.test_case "empty" `Quick test_hexdump_empty;
        ] );
    ]
