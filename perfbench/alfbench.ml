(* The alfnet benchmark: one workload, one seed, one process, one thread,
   one domain.

     alfbench --workload serve-small --seed 1 --seconds 10 --trace 0

   A run is a warm-up round followed by timed rounds until [--seconds]
   of timed phase have been measured. Every round builds its endpoints
   afresh (that set-up is what [setup_s] times), drives a fixed amount of
   work as a closed loop, and checks every output. With [--trace 0] the
   last line of standard output is the JSON object of end-to-end
   metrics; with [--trace 1] rounds alternate traced and untraced, and it
   holds the per-layer metrics instead. Any failed check makes the JSON
   say ["correct": false] and the exit code 1. *)

type workload = {
  round : traced:bool -> Common.round;
  adus_per_round : int;
}

let usage =
  "alfbench --workload (serve-small|stream-sealed|serve-lossy) [--seed N] \
   [--seconds S] [--trace 0|1] [--sessions N] [--adus N] [--records N] \
   [--min-rounds N] [--out-dir DIR] [--inject-mismatch]"

let workloads = [ "serve-small"; "stream-sealed"; "serve-lossy" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let sessions = ref 0 and adus = ref 0 and records = ref 0 in
  let min_rounds = ref 2 and out_dir = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " timed phase to measure (default 10)");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--sessions", Arg.Set_int sessions, " serve: sessions per round");
      ("--adus", Arg.Set_int adus, " serve: ADUs per session");
      ("--records", Arg.Set_int records, " stream: records per round");
      ("--min-rounds", Arg.Set_int min_rounds, " timed rounds at least (default 2)");
      ("--out-dir", Arg.Set_string out_dir, " where traced runs write their files");
      ( "--inject-mismatch",
        Arg.Set Common.inject_mismatch,
        " treat the first ADU of each round as corrupted (tests the gate)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let pick v d = if v > 0 then v else d in
  let wl =
    match !workload with
    | "serve-small" ->
        let cfg =
          {
            Serve_wl.sessions = pick !sessions 10_000;
            adus = pick !adus 4;
            seed = !seed;
            substrate = Serve_wl.Udp;
          }
        in
        { round = Serve_wl.round cfg; adus_per_round = cfg.sessions * cfg.adus }
    | "serve-lossy" ->
        let cfg =
          {
            Serve_wl.sessions = pick !sessions 10_000;
            adus = pick !adus 4;
            seed = !seed;
            substrate = Serve_wl.Sim { loss = 0.05 };
          }
        in
        { round = Serve_wl.round cfg; adus_per_round = cfg.sessions * cfg.adus }
    | "stream-sealed" ->
        let cfg =
          {
            Stream_wl.records = pick !records 4000;
            seed = !seed;
          }
        in
        let st = Stream_wl.make_st cfg in
        { round = Stream_wl.round st; adus_per_round = cfg.records }
    | w ->
        Printf.eprintf "unknown workload %S (one of: %s)\n%s\n" w
          (String.concat ", " workloads) usage;
        exit 2
  in
  let traced_run = !trace = 1 in
  Calib.init
    (if !workload = "serve-lossy" then [| Calib.Alu; Calib.Mem; Calib.Churn |]
     else [| Calib.Sys; Calib.Mem; Calib.Churn |]);
  (* Warm-up: first-contact admission, pools, plan and schema caches. *)
  Common.quiesce ();
  let warm = wl.round ~traced:false in
  let rounds = ref [] in
  let budget_ns = int_of_float (!seconds *. 1e9) in
  let timed_ns = ref 0 and n = ref 0 in
  let want_more () =
    !n < !min_rounds
    || !timed_ns < budget_ns
    || (traced_run && !n < 2)
  in
  while want_more () do
    let traced = traced_run && !n mod 2 = 0 in
    Common.quiesce ();
    Common.reserve wl.adus_per_round;
    Common.recording := not traced_run;
    if traced && !n = 0 then Span.start_log ();
    let r = wl.round ~traced in
    Span.stop_log ();
    Common.recording := false;
    (match Common.quantiles [ 0.5; 0.99 ] with
    | [ p50; p99 ] ->
        r.Common.lat_p50_us <- p50;
        r.Common.lat_p99_us <- p99
    | _ -> ());
    rounds := r :: !rounds;
    timed_ns := !timed_ns + r.Common.wall_ns;
    incr n
  done;
  let timed = List.rev !rounds in
  let all = warm :: timed in
  let open Common in
  let sumi f l = List.fold_left (fun a r -> a + f r) 0 l in
  let sumf f l = List.fold_left (fun a r -> a +. f r) 0. l in
  let attempted = sumi (fun r -> r.attempted) all in
  let failed = attempted - sumi (fun r -> r.intact) all in
  let violations =
    List.concat (List.mapi (fun i r -> List.map (fun v -> (i, v)) (List.rev r.violations)) all)
  in
  let correct = violations = [] && failed = 0 in
  List.iter (fun (i, v) -> Printf.printf "FAIL round %d: %s\n" i v) violations;
  let ratio a b = if b = 0. || Float.is_nan a || Float.is_nan b then 0. else a /. b in
  let median l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let k = Array.length a in
    if k = 0 then 0. else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.
  in
  Printf.printf
    "raw times per round; factor = host-speed correction applied to them; \
     probe kernels alu/mem/sys/churn in us per sample\n";
  Printf.printf "%-6s %6s %9s %9s %8s %9s %9s %9s %10s %7s %8s %s\n" "round" "traced"
    "setup_ms" "wall_ms" "ADUs" "cpu_us" "p50_us" "p99_us" "words/ADU" "factor" "intact"
    "probes";
  List.iteri
    (fun i r ->
      Printf.printf "%-6s %6b %9.3f %9.1f %8d %9.3f %9.1f %9.1f %10.1f %7.3f %8b %s\n"
        (if i = 0 then "warm" else string_of_int i)
        r.traced
        (float_of_int r.setup_ns /. 1e6)
        (float_of_int r.wall_ns /. 1e6)
        r.intact
        (1e6 *. ratio r.cpu_s (float_of_int r.intact))
        r.lat_p50_us r.lat_p99_us
        (ratio r.words (float_of_int r.intact))
        r.factor
        (r.intact = r.attempted)
        (String.concat "/" (Array.to_list (Array.map (Printf.sprintf "%.1f") r.probe_us))))
    all;
  let metrics =
    if not traced_run then begin
      (* Times are corrected for host speed round by round ({!Calib}),
         then the median over the timed rounds is taken, so a burst of
         host noise in a few rounds does not move them. The allocation
         and wire figures are totals: every round does identical work. *)
      let adus = float_of_int (sumi (fun r -> r.intact) timed) in
      let per_round f = median (List.map f timed) in
      [
        ( "goodput_adu_s",
          "ADU/s",
          per_round (fun r ->
              ratio (float_of_int r.intact) (float_of_int r.wall_ns *. r.factor /. 1e9)) );
        ( "cpu_us_per_adu",
          "us",
          per_round (fun r -> 1e6 *. ratio (r.cpu_s *. r.factor) (float_of_int r.intact)) );
        ("lat_p50_us", "us", per_round (fun r -> r.lat_p50_us *. r.factor));
        ("lat_p99_us", "us", per_round (fun r -> r.lat_p99_us *. r.factor));
        ("alloc_words_per_adu", "words", ratio (sumf (fun r -> r.words) timed) adus);
        ( "wire_bytes_per_adu",
          "bytes",
          ratio (float_of_int (sumi (fun r -> r.wire_bytes) timed)) adus );
        ("mem_peak_mb", "MB", Common.peak_rss_mb ());
        ( "setup_s",
          "s",
          median (List.map (fun r -> float_of_int r.setup_ns *. r.factor /. 1e9) all) );
      ]
    end
    else Layers.metrics ~timed
  in
  if traced_run then begin
    (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
    let stem =
      Filename.concat !out_dir (Printf.sprintf "%s-seed%d" !workload !seed)
    in
    Span.write_chrome (stem ^ ".trace.json");
    Layers.write_table (stem ^ ".layers.txt") ~timed metrics;
    Printf.printf "wrote %s.trace.json and %s.layers.txt\n" stem stem
  end;
  Layers.print_table stdout ~timed metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) u)
          metrics));
  Calib.close ();
  if not correct then exit 1
