(* The per-layer table of a traced run. Times and words come from the
   span totals of the traced rounds; counts are per round, averaged over
   the traced rounds (every round does the same work, so a deterministic
   count is the same in every round). Layers a workload does not exercise
   read 0. *)

open Common

let metrics ~timed =
  let traced = List.filter (fun r -> r.traced) timed in
  let plain = List.filter (fun r -> not r.traced) timed in
  let nr = float_of_int (max 1 (List.length traced)) in
  let sum key = List.fold_left (fun a r -> a +. get r key) 0. traced in
  let per_round key = sum key /. nr in
  let maxr key = List.fold_left (fun a r -> Float.max a (get r key)) 0. traced in
  let ratio a b = if b = 0. then 0. else a /. b in
  let adus = float_of_int (List.fold_left (fun a r -> a + r.intact) 0 traced) in
  let wall l = float_of_int (List.fold_left (fun a r -> a + r.wall_ns) 0 l) in
  let corrected l =
    List.fold_left (fun a r -> a +. (float_of_int r.wall_ns *. r.factor)) 0. l
  in
  let ads l = float_of_int (List.fold_left (fun a r -> a + r.intact) 0 l) in
  let cnt id = float_of_int Span.count.(id) in
  let self id = float_of_int Span.self_ns.(id) in
  let incl id = float_of_int Span.incl_ns.(id) in
  let self_w id = Float.Array.get Span.self_w id in
  let incl_w id = Float.Array.get Span.incl_w id in
  let gc f = List.fold_left (fun a r -> a + f r) 0 traced in
  [
    ("rt.send_ns", "ns", ratio (self Span.rt_send) (cnt Span.rt_send));
    ("rt.sends_per_adu", "count", ratio (sum "rt.sends") adus);
    ("rt.poll_ns_per_dgram", "ns", ratio (self Span.rt_poll) (sum "rt.received"));
    ("rt.dgrams_per_wakeup", "count", ratio (sum "rt.received") (sum "rt.recv_batches"));
    ("rt.recv_pool_misses", "count/round", per_round "rt.recv_pool_misses");
    ("serve.ingest_ns", "ns", ratio (incl Span.serve_ingest) (cnt Span.serve_ingest));
    ("serve.ingest_words", "words", ratio (incl_w Span.serve_ingest) (cnt Span.serve_ingest));
    ("serve.dropped", "count/round", per_round "serve.dropped");
    ("serve.pump_ns_per_dgram", "ns", ratio (self Span.serve_pump) (sum "serve.datagrams"));
    ( "serve.pump_words_per_dgram",
      "words",
      ratio (self_w Span.serve_pump) (sum "serve.datagrams") );
    ("serve.dups", "count/round", per_round "serve.dups");
    ("serve.harvest_ns", "ns", ratio (self Span.serve_harvest) (cnt Span.serve_harvest));
    ("serve.harvest_calls", "count/round", cnt Span.serve_harvest /. nr);
    ("serve.nacks", "count/round", per_round "serve.nacks");
    ("serve.gone_local", "count/round", per_round "serve.gone_local");
    ("serve.harvested", "count/round", per_round "serve.harvested");
    ("serve.redelivered", "count/round", per_round "serve.redelivered");
    ("serve.peak_sessions", "count", maxr "serve.peak_sessions");
    ("serve.pool_outstanding", "count", maxr "serve.pool_outstanding");
    ("tx.send_value_ns", "ns", ratio (self Span.tx_send_value) (cnt Span.tx_send_value));
    ( "tx.send_value_words",
      "words",
      ratio (self_w Span.tx_send_value) (cnt Span.tx_send_value) );
    ("tx.frags_per_adu", "count", ratio (sum "tx.frags") (sum "tx.adus"));
    ("rx.stage1_ns_per_dgram", "ns", ratio (self Span.rx_stage1) (cnt Span.rx_stage1));
    ("rx.stage1_words_per_adu", "words", ratio (self_w Span.rx_stage1) adus);
    ("rx.auth_dropped", "count/round", per_round "rx.auth_dropped");
    ("rx.frags_corrupt_dropped", "count/round", per_round "rx.frags_corrupt_dropped");
    ("rx.duplicates", "count/round", per_round "rx.duplicates");
    ("rx.nacks_sent", "count/round", per_round "rx.nacks_sent");
    ("rx.stage2_ns_per_adu", "ns", ratio (incl Span.rx_stage2) (cnt Span.rx_stage2));
    ("rx.stage2_words_per_adu", "words", ratio (incl_w Span.rx_stage2) (cnt Span.rx_stage2));
    ("rx.view_invalid", "count/round", per_round "rx.view_invalid");
    ("gen.step_ns_per_dgram", "ns", ratio (self Span.gen_step) (sum "gen.dgrams"));
    ("gen.step_words_per_dgram", "words", ratio (self_w Span.gen_step) (sum "gen.dgrams"));
    ("gen.regens", "count/round", per_round "gen.regens");
    ("gen.recloses", "count/round", per_round "gen.recloses");
    ("gen.useful_ratio", "ratio", ratio adus (sum "gen.data_dgrams"));
    ("netsim.run_ns_per_dgram", "ns", ratio (self Span.netsim_run) (sum "netsim.dgrams"));
    ("app.deliver_ns_per_adu", "ns", ratio (incl Span.app_deliver) (cnt Span.app_deliver));
    ( "gc.minor_collections",
      "count/round",
      float_of_int (gc (fun r -> r.minor_gcs)) /. nr );
    ( "gc.major_collections",
      "count/round",
      float_of_int (gc (fun r -> r.major_gcs)) /. nr );
    ( "gc.promoted_words_per_adu",
      "words",
      ratio (List.fold_left (fun a r -> a +. r.promoted) 0. traced) adus );
    ( "trace.unattributed_share",
      "ratio",
      1. -. ratio (float_of_int !Span.top_ns) (wall traced) );
    ( "trace.overhead",
      "ratio",
      ratio (ratio (corrected traced) (ads traced)) (ratio (corrected plain) (ads plain))
      -. 1. );
  ]

(* Rows beyond the JSON: the drop reasons that fired, and every span's
   raw totals. *)
let extra_rows ~timed =
  let traced = List.filter (fun r -> r.traced) timed in
  let nr = float_of_int (max 1 (List.length traced)) in
  let keys = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.iter
        (fun k v ->
          if
            k = "serve.fallback_allocs"
            || (String.length k > 11 && String.sub k 0 11 = "serve.drop.")
          then
            Hashtbl.replace keys k
              (v +. Option.value (Hashtbl.find_opt keys k) ~default:0.))
        r.counts)
    traced;
  let drops =
    Hashtbl.fold (fun k v acc -> (k, "count/round", v /. nr) :: acc) keys []
    |> List.sort compare
  in
  let spans =
    List.concat
      (List.init Span.n (fun id ->
           if Span.count.(id) = 0 then []
           else
             let name = Span.names.(id) in
             let c = float_of_int Span.count.(id) in
             [
               ("span." ^ name ^ ".count", "count/round", c /. nr);
               ("span." ^ name ^ ".self_ns", "ns", float_of_int Span.self_ns.(id) /. c);
               ("span." ^ name ^ ".incl_ns", "ns", float_of_int Span.incl_ns.(id) /. c);
               ("span." ^ name ^ ".self_words", "words", Float.Array.get Span.self_w id /. c);
             ]))
  in
  drops @ spans

let pp_rows oc rows =
  List.iter
    (fun (name, u, v) -> Printf.fprintf oc "  %-30s %16.3f %s\n" name v u)
    rows

let print_table oc ~timed metrics =
  Printf.fprintf oc "metrics:\n";
  pp_rows oc metrics;
  if List.exists (fun r -> r.traced) timed then begin
    Printf.fprintf oc "detail (traced rounds):\n";
    pp_rows oc (extra_rows ~timed)
  end

let write_table path ~timed metrics =
  let oc = open_out path in
  print_table oc ~timed metrics;
  close_out oc
