(* Performance gate over the machine-readable bench output
   (BENCH_ilp.json): `make perf-smoke` runs a tiny-quota bench pass and
   then this check. It fails (exit 1) when a fusion invariant the paper's
   argument rests on has regressed:

   - the fused copy+checksum loop must beat its serial composition
     (E2, the original ILP claim);
   - the compiled 3-stage plan (decrypt+checksum+deliver) must beat the
     serial layered composition by at least 2x, and the per-byte
     interpreter outright (E14, the plan compiler);
   - the fused marshal+checksum+deliver pass must beat the serial
     encode-then-checksum-then-copy composition by at least 1.5x, and
     must not fall below the bare cursor encode at all — the paper's
     28 -> 24 Mb/s conversion+checksum figure (E15, fused presentation
     conversion), for both codecs. Relative to the bare in-place
     marshal (no stages) the stage chain may cost up to 30%: the paper
     measured 14% (24/28) against a conversion loop an order of
     magnitude slower than ours, so the fixed stage cost is a
     proportionally larger slice here.

   Ratios are between measurements of the *same run*, so host speed and
   quota cancel out. E2's and E15's are the medians of interleaved
   timing pairs the bench records in gate rows; E14's are read from its
   separately timed rows.

   With --schema it gates the E19 gate row of the same file: the
   schema-compiled fused marshal must not fall below the interpretive
   fused marshal (nor may the cached entry point, beyond noise), the
   lazy validate-view receive must not fall below the eager decode —
   all three as medians of interleaved timing pairs — both directions
   must be free of steady-state Bytebuf allocation and allocate at most
   256 GC words per fused marshal and per view of the 90 KB value,
   whatever its length, and the schema-program cache must hit at least
   as often as it misses.

   With --secure it gates the E20 gate row of the same file: the fused
   marshal+AEAD+frame single pass must beat the serial
   encrypt-then-MAC-then-checksum composition (the layered reference
   stack, byte-grain per-layer walks plus per-layer PDU copies) by at
   least 1.5x on send and 1.3x on receive, must stay within noise of
   the word-grain layered upper bound (shared ChaCha20/Poly1305 compute
   floors both sides, so the paper's own E15 fusion margin cannot
   reappear here — the honest win is pass elimination plus word-grain
   processing), both record directions must be allocation-free in
   steady state, and a record open may allocate at most 256 GC words
   whatever the record's length. The four ratios are the medians of
   interleaved timing pairs the bench records in that row, as for E2.

   With --udp it gates BENCH_udp.json (`alfnet udp --bench`) instead:
   the fused send path must stay zero-allocation in steady state over
   real loopback sockets (steady_allocs_per_adu = 0), hold the stream's
   own invariants (ok = true), and both backends must post a positive
   throughput.

   With --serve it gates BENCH_scale.json (`alfnet serve --bench`): every
   sessions x domains point must hold the serve engine's invariants
   (ok = true: every session DONE, delivered union gone = sent, peak
   concurrency = the session count), post a positive throughput, and
   stage a zero-steady-state-allocation data path
   (pool_allocs_steady = 0, fallback_allocs = 0).

   With --hostile it gates BENCH_hostile.json (`alfnet serve --bench
   --hostile`): both backends must survive a >= 30% byzantine traffic
   mix with every honest session completing exactly (ok = true covers
   the exact delivered+gone accounting, flat pool budget, conservation
   and reason-coded drop totals), zero dispatch errors, and the stage-0
   validator's measured cost must stay under 3% of the clean run's wall
   clock (the hostile/stage0-overhead row). *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfcheck: " ^ s);
      exit 1)
    fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let udp_mode = List.mem "--udp" args in
  let serve_mode = List.mem "--serve" args in
  let hostile_mode = List.mem "--hostile" args in
  let schema_mode = List.mem "--schema" args in
  let secure_mode = List.mem "--secure" args in
  let path =
    match
      List.filter
        (fun a ->
          a <> "--udp" && a <> "--serve" && a <> "--hostile" && a <> "--schema"
          && a <> "--secure")
        args
    with
    | p :: _ -> p
    | [] ->
        if hostile_mode then "BENCH_hostile.json"
        else if serve_mode then "BENCH_scale.json"
        else if udp_mode then "BENCH_udp.json"
        else "BENCH_ilp.json"
  in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> die "cannot read %s (%s)" path msg
  in
  let rows =
    match Obs.Json.parse text with
    | Ok (Obs.Json.Arr rows) -> rows
    | Ok _ -> die "%s: expected a top-level JSON array" path
    | Error e -> die "%s: %s" path e
  in
  let mbps name =
    let found =
      List.find_map
        (fun row ->
          match (Obs.Json.member "name" row, Obs.Json.member "mbps" row) with
          | Some (Obs.Json.Str n), Some (Obs.Json.Num v) when n = name ->
              Some v
          | _ -> None)
        rows
    in
    match found with
    | Some v -> v
    | None -> die "%s: no measurement named %S" path name
  in
  let field row_name key =
    let found =
      List.find_map
        (fun row ->
          match Obs.Json.member "name" row with
          | Some (Obs.Json.Str n) when n = row_name -> Obs.Json.member key row
          | _ -> None)
        rows
    in
    match found with
    | Some v -> v
    | None -> die "%s: row %S has no field %S" path row_name key
  in
  if schema_mode then begin
    (* E19: the schema compiler must pay for itself. The compiled fused
       marshal may not fall below the interpretive fused marshal (that
       would mean the op-program is slower than tag dispatch), the cache
       lookup per call must stay in the noise, the lazy validate-view
       receive may not fall below the eager decode, both directions must
       be allocation-free in steady state — no Bytebuf, and a fixed
       handful of GC words per run — and the schema-program cache must
       actually hit. *)
    let failures = ref 0 in
    let gate = "schema-marshal/gate" in
    let num key =
      match field gate key with
      | Obs.Json.Num v -> v
      | _ -> die "%s: %S field %S is not a number" path gate key
    in
    let check label key floor =
      let r = num key in
      let ok = r >= floor in
      if not ok then incr failures;
      Printf.printf "perfcheck: %-44s %6.2fx  (floor %.2fx)  %s\n" label r
        floor
        (if ok then "ok" else "FAIL")
    in
    check "schema compiled vs interpreted fused (median)" "compiled_vs_interp" 1.0;
    check "schema cached-lookup vs interpreted (median)" "cached_vs_interp" 0.95;
    check "schema lazy view vs eager decode (median)" "view_vs_decode" 1.0;
    List.iter
      (fun (label, key) ->
        let words = num key in
        if words > 256.0 then begin
          incr failures;
          Printf.printf
            "perfcheck: %s allocated %.0f GC words per run (limit 256)  FAIL\n"
            label words
        end)
      [ ("compiled fused marshal", "tx_words_per_run"); ("lazy view", "rx_words_per_run") ];
    let tx = num "steady_allocs" and rx = num "rx_steady_allocs" in
    if tx <> 0.0 then begin
      incr failures;
      Printf.printf
        "perfcheck: compiled marshal allocated %.0f Bytebufs in steady state  FAIL\n"
        tx
    end;
    if rx <> 0.0 then begin
      incr failures;
      Printf.printf
        "perfcheck: lazy receive allocated %.0f Bytebufs in steady state  FAIL\n"
        rx
    end;
    let hits = num "cache_hits" and misses = num "cache_misses" in
    if hits < misses then begin
      incr failures;
      Printf.printf
        "perfcheck: schema cache hit %.0f / missed %.0f — compiling more than \
         reusing  FAIL\n"
        hits misses
    end;
    if !failures > 0 then die "%d schema invariant(s) regressed in %s" !failures path;
    Printf.printf
      "perfcheck: schema-compiled presentation invariants hold in %s (cache \
       %.0f hits / %.0f misses, zero steady-state Bytebufs, %.0f / %.0f GC \
       words per marshal / view)\n"
      path hits misses (num "tx_words_per_run") (num "rx_words_per_run");
    exit 0
  end;
  if secure_mode then begin
    (* E20: the fused AEAD record layer must pay for itself. The
       marshal+seal+frame single pass vs the layered reference stack is
       the acceptance headline; the word-grain ratios guard against the
       fused dispatch itself regressing (both sides share the
       ChaCha20/Poly1305 compute floor, so those ratios live near 1x by
       construction). The rows differ by less than a host's speed can
       drift between two timing windows, so every ratio is the
       interleaved median the bench records in the gate row, which also
       pins the zero-allocation contract. *)
    let failures = ref 0 in
    let gate = "secure-record/gate" in
    let num key =
      match field gate key with
      | Obs.Json.Num v -> v
      | _ -> die "%s: %S field %S is not a number" path gate key
    in
    let check label key floor =
      let r = num key in
      let ok = r >= floor in
      if not ok then incr failures;
      Printf.printf "perfcheck: %-44s %6.2fx  (floor %.2fx)  %s\n" label r
        floor
        (if ok then "ok" else "FAIL")
    in
    check "secure fused vs serial layered stack (median)" "fused_vs_serial" 1.5;
    check "secure fused vs word-grain layered (median)" "fused_vs_serial_words"
      0.85;
    check "secure rx fused vs serial layered (median)" "open_fused_vs_serial"
      1.3;
    check "secure rx fused vs word-grain layered (median)" "open_fused_vs_words"
      0.8;
    let tx = num "steady_allocs" and rx = num "rx_steady_allocs" in
    if tx <> 0.0 then begin
      incr failures;
      Printf.printf
        "perfcheck: fused seal allocated %.0f Bytebufs in steady state  FAIL\n"
        tx
    end;
    if rx <> 0.0 then begin
      incr failures;
      Printf.printf
        "perfcheck: record open allocated %.0f Bytebufs in steady state  FAIL\n"
        rx
    end;
    let words = num "rx_words_per_record" in
    if words > 256.0 then begin
      incr failures;
      Printf.printf
        "perfcheck: record open allocated %.0f GC words (limit 256)  FAIL\n"
        words
    end;
    if !failures > 0 then
      die "%d secure-record invariant(s) regressed in %s" !failures path;
    Printf.printf
      "perfcheck: secure-record invariants hold in %s (zero steady-state \
       allocations on seal and open, %.0f GC words per record open)\n"
      path words;
    exit 0
  end;
  if hostile_mode then begin
    if rows = [] then die "%s: no measurements" path;
    let str row k =
      match Obs.Json.member k row with Some (Obs.Json.Str s) -> s | _ -> "?"
    in
    let num row k name =
      match Obs.Json.member k row with
      | Some (Obs.Json.Num v) -> v
      | _ -> die "%s: row %S has no numeric %S" path name k
    in
    let require_ok row name =
      match Obs.Json.member "ok" row with
      | Some (Obs.Json.Bool true) -> ()
      | _ -> die "%s violated the adversarial-ingress invariants (ok = false)" name
    in
    let hostile_rows = ref 0 and overhead = ref None in
    List.iter
      (fun row ->
        let name = str row "name" in
        require_ok row name;
        if Obs.Json.member "hostile_ratio" row <> None then begin
          incr hostile_rows;
          let ratio = num row "hostile_ratio" name in
          if ratio < 0.3 then
            die "%s ran only %.0f%% byzantine traffic (need >= 30%%)" name
              (100.0 *. ratio);
          let de = num row "dispatch_errors" name in
          if de <> 0.0 then die "%s leaked %.0f dispatch errors" name de
        end;
        if name = "hostile/stage0-overhead" then
          overhead := Some (num row "overhead_frac" name))
      rows;
    if !hostile_rows < 2 then
      die "%s: expected hostile rows for both backends, found %d" path
        !hostile_rows;
    (match !overhead with
    | None -> die "%s: no hostile/stage0-overhead row" path
    | Some f ->
        if f >= 0.03 then
          die
            "stage-0 validation costs %.1f%% of the clean path (budget 3%%)"
            (100.0 *. f));
    Printf.printf
      "perfcheck: hostile gate holds over %d rows in %s — honest sessions \
       exact under >= 30%% byzantine traffic, stage-0 overhead %.2f%% of \
       the clean path\n"
      (List.length rows) path
      (match !overhead with Some f -> 100.0 *. f | None -> 0.0);
    exit 0
  end;
  if serve_mode then begin
    if rows = [] then die "%s: no measurements" path;
    let str row k =
      match Obs.Json.member k row with Some (Obs.Json.Str s) -> s | _ -> "?"
    in
    let num row k name =
      match Obs.Json.member k row with
      | Some (Obs.Json.Num v) -> v
      | _ -> die "%s: row %S has no numeric %S" path name k
    in
    let sessions_max = ref 0.0 and peak = ref 0.0 in
    List.iter
      (fun row ->
        let name = str row "name" in
        (match Obs.Json.member "ok" row with
        | Some (Obs.Json.Bool true) -> ()
        | _ -> die "%s violated the serve invariants (ok = false)" name);
        let aps = num row "adus_per_s" name in
        if aps <= 0.0 then die "%s posted %.1f ADUs/s" name aps;
        let steady = num row "pool_allocs_steady" name in
        if steady <> 0.0 then
          die "%s allocated %.0f pool buffers in steady state" name steady;
        let fallback = num row "fallback_allocs" name in
        if fallback <> 0.0 then
          die "%s fell back to %.0f heap allocations" name fallback;
        let s = num row "sessions" name in
        if s > !sessions_max then sessions_max := s;
        let p = num row "peak_sessions" name in
        if p > !peak then peak := p)
      rows;
    Printf.printf
      "perfcheck: serve gate holds over %d points in %s — up to %.0f \
       concurrent sessions (peak live %.0f), zero steady-state allocations\n"
      (List.length rows) path !sessions_max !peak;
    exit 0
  end;
  if udp_mode then begin
    let udp = mbps "udp/fused-send" and sim = mbps "netsim/fused-send" in
    if udp <= 0.0 then die "udp/fused-send throughput is %.2f Mb/s" udp;
    if sim <= 0.0 then die "netsim/fused-send throughput is %.2f Mb/s" sim;
    (match field "udp/fused-send" "steady_allocs_per_adu" with
    | Obs.Json.Num 0.0 -> ()
    | Obs.Json.Num a ->
        die "fused UDP send path allocated %.3f Bytebufs/ADU in steady state"
          a
    | _ -> die "steady_allocs_per_adu is not a number");
    (match field "udp/fused-send" "ok" with
    | Obs.Json.Bool true -> ()
    | _ -> die "udp stream violated its own invariants (ok = false)");
    Printf.printf
      "perfcheck: udp %.1f Mb/s vs netsim %.1f Mb/s, zero steady-state \
       allocations — gate holds in %s\n"
      udp sim path;
    exit 0
  end;
  let failures = ref 0 in
  let gate label r floor =
    let ok = r >= floor in
    if not ok then incr failures;
    Printf.printf "perfcheck: %-44s %6.2fx  (floor %.2fx)  %s\n" label r floor
      (if ok then "ok" else "FAIL")
  in
  let check label num den floor = gate label (mbps num /. mbps den) floor in
  (* E2's two rows differ by less than a host's speed can drift between
     two timing windows, so the gate reads the interleaved median the
     bench records, not the ratio of two separately timed rows. *)
  (match field "ilp-fusion/fused-vs-serial" "median_speedup" with
  | Obs.Json.Num r -> gate "ilp-fusion fused vs serial (median)" r 1.0
  | _ -> die "ilp-fusion/fused-vs-serial: median_speedup is not a number");
  check "ilp-compile 3stage compiled vs serial" "ilp-compile/3stage/compiled"
    "ilp-compile/3stage/serial" 2.0;
  check "ilp-compile 3stage compiled vs interpreted"
    "ilp-compile/3stage/compiled" "ilp-compile/3stage/interpreted" 1.0;
  (* E15's three ratios per codec are as close to their floors as E2's
     rows are to each other, so they too come from interleaved pairs. *)
  List.iter
    (fun codec ->
      let median label key floor =
        let row = Printf.sprintf "ilp-marshal/%s/gate" codec in
        match field row key with
        | Obs.Json.Num r ->
            gate (Printf.sprintf "ilp-marshal %s %s (median)" codec label) r floor
        | _ -> die "%s: %s is not a number" row key
      in
      median "fused vs serial" "fused_vs_serial" 1.5;
      median "fused vs encode-only" "fused_vs_encode_only" 0.8;
      median "fused vs marshal-only" "fused_vs_marshal_only" 0.7)
    [ "xdr"; "ber" ];
  if !failures > 0 then die "%d invariant(s) regressed in %s" !failures path;
  Printf.printf "perfcheck: all fusion invariants hold in %s\n" path
