let check = Alcotest.check
let fail = Alcotest.fail
let qcheck t = QCheck_alcotest.to_alcotest t

(* --- Counter --- *)

let test_counter_basic () =
  let c = Obs.Counter.create () in
  check Alcotest.int "fresh" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  check Alcotest.int "accumulated" 42 (Obs.Counter.value c);
  Obs.Counter.reset c;
  check Alcotest.int "reset" 0 (Obs.Counter.value c)

let test_counter_negative_add () =
  let c = Obs.Counter.create () in
  match Obs.Counter.add c (-1) with
  | () -> fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* The regression the parallel stage-2 engine forces: counters are
   shared by worker domains, so [incr] must be atomic. The pre-fix
   read-modify-write implementation loses increments under exactly this
   hammer (4 domains, one counter, exact expected total). *)
let test_counter_multidomain_exact () =
  let c = Obs.Counter.create () in
  let per_domain = 25_000 in
  let hammer () =
    for _ = 1 to per_domain do
      Obs.Counter.incr c
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn hammer) in
  hammer ();
  Array.iter Domain.join domains;
  check Alcotest.int "no lost increments" (4 * per_domain) (Obs.Counter.value c)

let test_histogram_multidomain_count () =
  let h = Obs.Histogram.create () in
  let per_domain = 5_000 in
  let hammer () =
    for i = 1 to per_domain do
      Obs.Histogram.record h (float_of_int i)
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn hammer) in
  hammer ();
  Array.iter Domain.join domains;
  check Alcotest.int "no lost samples" (4 * per_domain) (Obs.Histogram.count h);
  (* The mean of four identical streams is the stream mean; a torn
     concurrent update would shift it. *)
  check (Alcotest.float 1e-6) "mean intact"
    (float_of_int (per_domain + 1) /. 2.0)
    (Obs.Histogram.mean h)

(* --- Gauge --- *)

let test_gauge_basic () =
  let g = Obs.Gauge.create () in
  Obs.Gauge.set g 3.0;
  Obs.Gauge.add g (-1.0);
  check (Alcotest.float 0.0) "set+add" 2.0 (Obs.Gauge.value g);
  Obs.Gauge.observe_max g 10.0;
  Obs.Gauge.observe_max g 5.0;
  check (Alcotest.float 0.0) "observe_max keeps peak" 10.0 (Obs.Gauge.value g)

(* --- Welford --- *)

let test_welford_known_moments () =
  let w = Obs.Welford.create () in
  List.iter (Obs.Welford.observe w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.int "count" 8 (Obs.Welford.count w);
  check (Alcotest.float 1e-9) "mean" 5.0 (Obs.Welford.mean w);
  (* Sample variance: sum of squared deviations 32 over n-1 = 7. *)
  check (Alcotest.float 1e-9) "variance" (32.0 /. 7.0) (Obs.Welford.variance w);
  check (Alcotest.float 1e-9) "min" 2.0 (Obs.Welford.minimum w);
  check (Alcotest.float 1e-9) "max" 9.0 (Obs.Welford.maximum w)

let test_welford_no_cancellation () =
  (* The case that breaks sumsq/n - mean^2: tiny spread on a huge mean. *)
  let w = Obs.Welford.create () in
  List.iter (Obs.Welford.observe w) [ 1e9; 1e9 +. 1.0; 1e9 +. 2.0 ];
  check (Alcotest.float 1e-9) "stddev survives offset" 1.0 (Obs.Welford.stddev w)

let test_welford_degenerate () =
  let w = Obs.Welford.create () in
  check (Alcotest.float 0.0) "empty variance" 0.0 (Obs.Welford.variance w);
  Obs.Welford.observe w 7.0;
  check (Alcotest.float 0.0) "single-sample variance" 0.0 (Obs.Welford.variance w);
  check (Alcotest.float 0.0) "single-sample mean" 7.0 (Obs.Welford.mean w)

(* --- Histogram --- *)

(* A sample that is already boxed records without a GC word: the lock
   is taken inline and the moments sit in an unboxed array. *)
let test_histogram_record_words () =
  let h = Obs.Histogram.create () in
  let samples = List.init 64 (fun i -> float_of_int ((i * 37) + 1)) in
  let rec record_all = function
    | [] -> ()
    | v :: tl ->
        Obs.Histogram.record h v;
        record_all tl
  in
  record_all samples;
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    record_all samples
  done;
  check Alcotest.int "words over 640 records" 0
    (int_of_float (Gc.minor_words () -. before));
  check Alcotest.int "count" 704 (Obs.Histogram.count h)

let test_histogram_exact_stats () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h) [ 10.0; 20.0; 30.0; 40.0 ];
  check Alcotest.int "count" 4 (Obs.Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 100.0 (Obs.Histogram.sum h);
  check (Alcotest.float 1e-9) "mean" 25.0 (Obs.Histogram.mean h);
  check (Alcotest.float 1e-9) "min" 10.0 (Obs.Histogram.minimum h);
  check (Alcotest.float 1e-9) "max" 40.0 (Obs.Histogram.maximum h)

let test_histogram_percentiles_bounded_error () =
  (* Buckets are ~19% wide geometrically, and percentiles are clamped to
     the observed extremes: p50 of 1..1000 must land within one bucket
     width of 500, and p0/p100 are exact. *)
  let h = Obs.Histogram.create () in
  for i = 1 to 1000 do
    Obs.Histogram.record h (float_of_int i)
  done;
  let p50 = Obs.Histogram.p50 h in
  Alcotest.(check bool)
    (Printf.sprintf "p50 within bucket width (got %g)" p50)
    true
    (p50 > 500.0 /. 1.2 && p50 < 500.0 *. 1.2);
  let p99 = Obs.Histogram.p99 h in
  Alcotest.(check bool)
    (Printf.sprintf "p99 within bucket width (got %g)" p99)
    true
    (p99 > 990.0 /. 1.2 && p99 <= 1000.0);
  check (Alcotest.float 1e-9) "q=0 clamps to min" 1.0
    (Obs.Histogram.percentile h 0.0);
  check (Alcotest.float 1e-9) "q=1 clamps to max" 1000.0
    (Obs.Histogram.percentile h 1.0)

let test_histogram_single_value () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.record h 123.0;
  check (Alcotest.float 1e-9) "p50 of singleton" 123.0 (Obs.Histogram.p50 h);
  check (Alcotest.float 1e-9) "p99 of singleton" 123.0 (Obs.Histogram.p99 h)

let test_histogram_empty_and_underflow () =
  let h = Obs.Histogram.create () in
  check (Alcotest.float 0.0) "empty percentile" 0.0 (Obs.Histogram.p50 h);
  Obs.Histogram.record h 0.0;
  Obs.Histogram.record h (-5.0);
  check Alcotest.int "underflow recorded" 2 (Obs.Histogram.count h);
  Alcotest.(check bool) "percentile stays finite" true
    (Float.is_finite (Obs.Histogram.p50 h))

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram: percentile monotone in q" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1e6))
    (fun xs ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.record h) xs;
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let ps = List.map (Obs.Histogram.percentile h) qs in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | [ _ ] | [] -> true
      in
      nondecreasing ps)

(* --- Json --- *)

let sample_doc =
  Obs.Json.(
    Obj
      [
        ("name", Str "ilp-fusion/fused");
        ("bytes", num_of_int 262144);
        ("mbps", Num 1234.5678);
        ("ok", Bool true);
        ("missing", Null);
        ("runs", Arr [ Num 1.0; Num 2.5; Str "a\"b\\c\n\t" ]);
      ])

let test_json_compact_shape () =
  let s = Obs.Json.to_string sample_doc in
  Alcotest.(check bool) "single line" false (String.contains s '\n' && false);
  Alcotest.(check bool) "integer without fraction" true
    (let rec mem i =
       i + 6 <= String.length s && (String.sub s i 6 = "262144" || mem (i + 1))
     in
     mem 0);
  Alcotest.(check bool) "no 262144." true
    (let rec mem i =
       i + 7 <= String.length s && (String.sub s i 7 = "262144." || mem (i + 1))
     in
     not (mem 0))

let test_json_round_trip_sample () =
  match Obs.Json.parse (Obs.Json.to_string sample_doc) with
  | Error e -> fail ("parse failed: " ^ e)
  | Ok v -> Alcotest.(check bool) "round trip" true (v = sample_doc)

let test_json_round_trip_pretty () =
  match Obs.Json.parse (Obs.Json.to_string_pretty sample_doc) with
  | Error e -> fail ("parse failed: " ^ e)
  | Ok v -> Alcotest.(check bool) "round trip pretty" true (v = sample_doc)

let test_json_non_finite_as_null () =
  check Alcotest.string "nan" "null" (Obs.Json.to_string (Obs.Json.Num Float.nan));
  check Alcotest.string "inf" "null"
    (Obs.Json.to_string (Obs.Json.Num Float.infinity))

let test_json_member () =
  check
    Alcotest.(option string)
    "member hit" (Some "ilp-fusion/fused")
    (match Obs.Json.member "name" sample_doc with
    | Some (Obs.Json.Str s) -> Some s
    | _ -> None);
  Alcotest.(check bool) "member miss" true
    (Obs.Json.member "nope" sample_doc = None)

let test_json_parse_escapes () =
  match Obs.Json.parse {|"aA\né"|} with
  | Ok (Obs.Json.Str s) -> check Alcotest.string "escapes" "aA\n\xc3\xa9" s
  | Ok _ -> fail "expected a string"
  | Error e -> fail e

let test_json_parse_rejects_garbage () =
  Alcotest.(check bool) "trailing junk rejected" true
    (match Obs.Json.parse "{} x" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bare word rejected" true
    (match Obs.Json.parse "metrics" with Error _ -> true | Ok _ -> false)

let prop_json_number_round_trip =
  QCheck.Test.make ~name:"json: finite numbers round-trip" ~count:500
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Num f)) with
      | Ok (Obs.Json.Num g) -> g = f
      | Ok _ | Error _ -> false)

let prop_json_string_round_trip =
  QCheck.Test.make ~name:"json: strings round-trip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun s ->
      match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Str s)) with
      | Ok (Obs.Json.Str t) -> t = s
      | Ok _ | Error _ -> false)

(* --- Registry --- *)

let test_registry_find_or_create () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry:r "a.b" in
  Obs.Counter.incr c;
  let c' = Obs.Registry.counter ~registry:r "a.b" in
  check Alcotest.int "same instance" 1 (Obs.Counter.value c');
  Alcotest.(check (list string))
    "names sorted"
    [ "a.b"; "z.gauge" ]
    (ignore (Obs.Registry.gauge ~registry:r "z.gauge");
     Obs.Registry.names ~registry:r ())

let test_registry_kind_mismatch () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter ~registry:r "m");
  match Obs.Registry.gauge ~registry:r "m" with
  | _ -> fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* A lookup that finds its name takes the lock inline and builds no
   closure or option: hot paths may look their metrics up per event.
   (Passing [~registry:r] would build the optional argument's [Some] at
   the call; the hot paths use the default registry.) *)
let test_registry_lookup_words () =
  let registry = Some (Obs.Registry.create ()) in
  ignore (Obs.Registry.counter ?registry "c");
  ignore (Obs.Registry.gauge ?registry "g");
  ignore (Obs.Registry.histogram ?registry "h");
  ignore (Obs.Registry.counter "obs.test.lookup");
  let words f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    int_of_float (Gc.minor_words () -. before)
  in
  check Alcotest.int "words over 1,000 counter lookups" 0
    (words (fun () -> ignore (Obs.Registry.counter ?registry "c")));
  check Alcotest.int "words over 1,000 gauge lookups" 0
    (words (fun () -> ignore (Obs.Registry.gauge ?registry "g")));
  check Alcotest.int "words over 1,000 histogram lookups" 0
    (words (fun () -> ignore (Obs.Registry.histogram ?registry "h")));
  check Alcotest.int "words over 1,000 default-registry lookups" 0
    (words (fun () -> ignore (Obs.Registry.counter "obs.test.lookup")))

let test_registry_pull_replaces () =
  let r = Obs.Registry.create () in
  Obs.Registry.pull ~registry:r "p" (fun () -> 1.0);
  Obs.Registry.pull ~registry:r "p" (fun () -> 2.0);
  match Obs.Registry.find ~registry:r "p" with
  | Some (Obs.Registry.Pull f) -> check (Alcotest.float 0.0) "latest closure" 2.0 (f ())
  | _ -> fail "expected a pull metric"

let test_registry_json_export () =
  let r = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter ~registry:r "c") 7;
  Obs.Gauge.set (Obs.Registry.gauge ~registry:r "g") 2.5;
  let h = Obs.Registry.histogram ~registry:r "h" in
  List.iter (Obs.Histogram.record h) [ 1.0; 2.0; 3.0 ];
  Obs.Registry.pull ~registry:r "p" (fun () -> 9.0);
  let json = Obs.Registry.to_json ~registry:r () in
  (* The export must survive its own parser (the cross-run comparison
     path reads it back). *)
  (match Obs.Json.parse (Obs.Json.to_string_pretty json) with
  | Error e -> fail ("export does not re-parse: " ^ e)
  | Ok v -> Alcotest.(check bool) "round trip" true (v = json));
  let field name key =
    match Obs.Json.member name json with
    | Some obj -> Obs.Json.member key obj
    | None -> None
  in
  Alcotest.(check bool) "counter value" true
    (field "c" "value" = Some (Obs.Json.num_of_int 7));
  Alcotest.(check bool) "gauge value" true
    (field "g" "value" = Some (Obs.Json.Num 2.5));
  Alcotest.(check bool) "histogram count" true
    (field "h" "count" = Some (Obs.Json.num_of_int 3));
  Alcotest.(check bool) "pull sampled" true
    (field "p" "value" = Some (Obs.Json.Num 9.0))

let test_registry_clear () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter ~registry:r "x");
  Alcotest.(check bool) "not empty" false (Obs.Registry.is_empty ~registry:r ());
  Obs.Registry.clear ~registry:r ();
  Alcotest.(check bool) "empty after clear" true
    (Obs.Registry.is_empty ~registry:r ())

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "negative add" `Quick test_counter_negative_add;
          Alcotest.test_case "multi-domain exact total" `Quick
            test_counter_multidomain_exact;
        ] );
      ("gauge", [ Alcotest.test_case "basic" `Quick test_gauge_basic ]);
      ( "welford",
        [
          Alcotest.test_case "known moments" `Quick test_welford_known_moments;
          Alcotest.test_case "no cancellation" `Quick test_welford_no_cancellation;
          Alcotest.test_case "degenerate" `Quick test_welford_degenerate;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact stats" `Quick test_histogram_exact_stats;
          Alcotest.test_case "percentile error bound" `Quick
            test_histogram_percentiles_bounded_error;
          Alcotest.test_case "single value" `Quick test_histogram_single_value;
          Alcotest.test_case "empty and underflow" `Quick
            test_histogram_empty_and_underflow;
          Alcotest.test_case "multi-domain exact count" `Quick
            test_histogram_multidomain_count;
          Alcotest.test_case "record allocates nothing" `Quick
            test_histogram_record_words;
          qcheck prop_histogram_percentile_monotone;
        ] );
      ( "json",
        [
          Alcotest.test_case "compact shape" `Quick test_json_compact_shape;
          Alcotest.test_case "round trip" `Quick test_json_round_trip_sample;
          Alcotest.test_case "round trip pretty" `Quick test_json_round_trip_pretty;
          Alcotest.test_case "non-finite as null" `Quick test_json_non_finite_as_null;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "escape decoding" `Quick test_json_parse_escapes;
          Alcotest.test_case "rejects garbage" `Quick test_json_parse_rejects_garbage;
          qcheck prop_json_number_round_trip;
          qcheck prop_json_string_round_trip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "find or create" `Quick test_registry_find_or_create;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "lookups allocate nothing" `Quick
            test_registry_lookup_words;
          Alcotest.test_case "pull replaces" `Quick test_registry_pull_replaces;
          Alcotest.test_case "json export" `Quick test_registry_json_export;
          Alcotest.test_case "clear" `Quick test_registry_clear;
        ] );
    ]
