open Netsim

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  Alcotest.(check bool) "different streams" false
    (List.init 8 (fun _ -> Rng.int64 a) = List.init 8 (fun _ -> Rng.int64 b))

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7L in
  let child = Rng.split parent in
  Alcotest.(check bool) "child differs from parent" false
    (List.init 8 (fun _ -> Rng.int64 child)
    = List.init 8 (fun _ -> Rng.int64 parent))

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng: int within bound" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng ~bound in
      v >= 0 && v < bound)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"rng: float in [0,1)" ~count:500 QCheck.int64
    (fun seed ->
      let rng = Rng.create ~seed in
      let v = Rng.float rng in
      v >= 0.0 && v < 1.0)

let test_rng_bool_extremes () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0" false (Rng.bool rng ~p:0.0);
    Alcotest.(check bool) "p=1" true (Rng.bool rng ~p:1.0)
  done

let test_rng_bool_statistics () =
  let rng = Rng.create ~seed:11L in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Rng.bool rng ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "about 30%" true (rate > 0.27 && rate < 0.33)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:5L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "multiset preserved" (Array.init 50 (fun i -> i)) sorted

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:13L in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:2.0 in
    if v < 0.0 then Alcotest.fail "negative exponential";
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2" true (mean > 1.9 && mean < 2.1)

(* --- Engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule_at e 2.0 (note "c"));
  ignore (Engine.schedule_at e 1.0 (note "a"));
  ignore (Engine.schedule_at e 1.0 (note "b"));
  Engine.run_until_idle e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 2.0 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule_at e 1.0 (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run_until_idle e;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "pending" 0 (Engine.pending e)

let test_engine_horizon () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule_at e 1.0 (fun () -> incr count));
  ignore (Engine.schedule_at e 5.0 (fun () -> incr count));
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "only first fired" 1 !count;
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.0 (Engine.now e);
  Engine.run_until_idle e;
  Alcotest.(check int) "second fired later" 2 !count

let test_engine_schedule_in_past_clamped () =
  let e = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.schedule_at e 3.0 (fun () ->
         ignore (Engine.schedule_at e 1.0 (fun () -> order := "late" :: !order));
         order := "first" :: !order));
  Engine.run_until_idle e;
  Alcotest.(check (list string)) "clamped to now" [ "first"; "late" ] (List.rev !order);
  Alcotest.(check (float 1e-9)) "clock stays" 3.0 (Engine.now e)

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule_at e (float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~max_events:4 e;
  Alcotest.(check int) "stopped after 4" 4 !count

let test_engine_step_empty () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let times = ref [] in
  let rec chain n () =
    times := Engine.now e :: !times;
    if n > 0 then ignore (Engine.schedule_after e 0.5 (chain (n - 1)))
  in
  ignore (Engine.schedule_at e 0.0 (chain 4));
  Engine.run_until_idle e;
  Alcotest.(check (list (float 1e-9))) "chain times"
    [ 0.0; 0.5; 1.0; 1.5; 2.0 ]
    (List.rev !times)

(* Model check: the engine fires exactly the uncancelled events, in
   (time, scheduling-order) order, against a naive sorted-list model. *)
let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine: firing order matches reference model" ~count:300
    QCheck.(small_list (pair (int_bound 1000) (option (int_bound 20))))
    (fun ops ->
      (* Each op schedules an event at time t/100.0; [Some k] additionally
         cancels the k-th previously scheduled event (if any). *)
      let e = Engine.create () in
      let fired = ref [] in
      let timers = ref [||] in
      let model = ref [] in
      let cancelled = Hashtbl.create 16 in
      List.iteri
        (fun id (t100, cancel) ->
          let time = float_of_int t100 /. 100.0 in
          let timer = Engine.schedule_at e time (fun () -> fired := id :: !fired) in
          timers := Array.append !timers [| timer |];
          model := (time, id) :: !model;
          match cancel with
          | Some k when Array.length !timers > 0 ->
              let victim = k mod Array.length !timers in
              Engine.cancel !timers.(victim);
              Hashtbl.replace cancelled victim ()
          | Some _ | None -> ())
        ops;
      Engine.run_until_idle e;
      let expected =
        !model |> List.rev
        |> List.filter (fun (_, id) -> not (Hashtbl.mem cancelled id))
        |> List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
        |> List.map snd
      in
      List.rev !fired = expected)

(* --- Impair --- *)

let test_impair_none () =
  let rng = Rng.create ~seed:1L in
  for _ = 1 to 100 do
    match Impair.judge Impair.none rng with
    | Impair.Deliver { extra_delay; corrupted; copies } ->
        Alcotest.(check (float 0.0)) "no delay" 0.0 extra_delay;
        Alcotest.(check bool) "clean" false corrupted;
        Alcotest.(check int) "single" 1 copies
    | Impair.Drop -> Alcotest.fail "dropped with no impairment"
  done

let test_impair_certain_loss () =
  let rng = Rng.create ~seed:1L in
  for _ = 1 to 50 do
    match Impair.judge (Impair.lossy 1.0) rng with
    | Impair.Drop -> ()
    | Impair.Deliver _ -> Alcotest.fail "delivered at loss=1"
  done

let test_impair_loss_rate () =
  let rng = Rng.create ~seed:10L in
  let dropped = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    match Impair.judge (Impair.lossy 0.1) rng with
    | Impair.Drop -> incr dropped
    | Impair.Deliver _ -> ()
  done;
  let rate = float_of_int !dropped /. float_of_int n in
  Alcotest.(check bool) "about 10%" true (rate > 0.08 && rate < 0.12)

let test_impair_corrupt_payload () =
  let rng = Rng.create ~seed:2L in
  let payload = Bufkit.Bytebuf.of_string "some payload bytes" in
  for _ = 1 to 50 do
    let bad = Impair.corrupt_payload rng payload in
    Alcotest.(check int) "length preserved" (Bufkit.Bytebuf.length payload)
      (Bufkit.Bytebuf.length bad);
    let diffs = ref 0 in
    for i = 0 to Bufkit.Bytebuf.length payload - 1 do
      if Bufkit.Bytebuf.get payload i <> Bufkit.Bytebuf.get bad i then incr diffs
    done;
    Alcotest.(check int) "exactly one byte flipped" 1 !diffs
  done

(* --- Link --- *)

let mk_engine_link ?(impair = Impair.none) ?(queue_limit = 64)
    ?(bandwidth_bps = 8_000_000.0) ?(delay = 0.01) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:99L in
  let link = Link.create ~engine ~rng ~impair ~queue_limit ~bandwidth_bps ~delay () in
  (engine, link)

let mk_packet ?(len = 980) id =
  (* 980 + 20 header = 1000 wire bytes = 1 ms at 8 Mb/s. *)
  Packet.make ~id ~src:0 ~dst:1 ~proto:0 (Bufkit.Bytebuf.create len)

let test_link_single_packet_timing () =
  let engine, link = mk_engine_link () in
  let arrival = ref nan in
  Link.set_receiver link (fun _ -> arrival := Engine.now engine);
  ignore (Link.send link (mk_packet 0));
  Engine.run_until_idle engine;
  Alcotest.(check (float 1e-9)) "arrival = ser + prop" 0.011 !arrival

let test_link_back_to_back () =
  let engine, link = mk_engine_link () in
  let arrivals = ref [] in
  Link.set_receiver link (fun _ -> arrivals := Engine.now engine :: !arrivals);
  ignore (Link.send link (mk_packet 0));
  ignore (Link.send link (mk_packet 1));
  Engine.run_until_idle engine;
  match List.rev !arrivals with
  | [ a; b ] ->
      Alcotest.(check (float 1e-9)) "first" 0.011 a;
      Alcotest.(check (float 1e-9)) "second serialises behind" 0.012 b
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_queue_overflow () =
  let engine, link = mk_engine_link ~queue_limit:2 () in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  let accepted = List.init 5 (fun i -> Link.send link (mk_packet i)) in
  Engine.run_until_idle engine;
  Alcotest.(check int) "deliveries" 2 !got;
  Alcotest.(check int) "drops counted" 3 (Link.stats link).Stats.dropped_queue;
  Alcotest.(check (list bool)) "send results" [ true; true; false; false; false ]
    accepted

let test_link_loss_counted () =
  let engine, link = mk_engine_link ~impair:(Impair.lossy 1.0) () in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  ignore (Link.send link (mk_packet 0));
  Engine.run_until_idle engine;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "loss counted" 1 (Link.stats link).Stats.dropped_loss

let test_link_duplicate () =
  let engine, link = mk_engine_link ~impair:(Impair.make ~duplicate:1.0 ()) () in
  let got = ref [] in
  (* Receivers work in place: scribbling on one arrival must leave its
     twin's bytes as they were sent. *)
  Link.set_receiver link (fun p ->
      let b = p.Packet.payload in
      got := Bufkit.Bytebuf.to_string b :: !got;
      Bufkit.Bytebuf.fill b '\xee');
  let sent = mk_packet 0 in
  let original = Bufkit.Bytebuf.to_string sent.Packet.payload in
  ignore (Link.send link sent);
  Engine.run_until_idle engine;
  Alcotest.(check (list string)) "delivered twice, each intact"
    [ original; original ] !got;
  Alcotest.(check int) "dup counted" 1 (Link.stats link).Stats.duplicated

let test_link_corruption_changes_payload () =
  let engine, link = mk_engine_link ~impair:(Impair.make ~corrupt:1.0 ()) () in
  let clean = Bufkit.Bytebuf.of_string "payload-under-test" in
  let delivered = ref None in
  Link.set_receiver link (fun p -> delivered := Some p.Packet.payload);
  ignore
    (Link.send link
       (Packet.make ~id:0 ~src:0 ~dst:1 ~proto:0 (Bufkit.Bytebuf.copy clean)));
  Engine.run_until_idle engine;
  match !delivered with
  | Some payload ->
      Alcotest.(check bool) "corrupted" false (Bufkit.Bytebuf.equal payload clean)
  | None -> Alcotest.fail "no delivery"

(* Conservation: every packet handed to a link is accounted for exactly
   once as delivered, lost, or queue-dropped — duplication adds
   deliveries, never losses. *)
let prop_link_conservation =
  QCheck.Test.make ~name:"link: packet conservation" ~count:100
    QCheck.(triple (int_range 1 80) (pair (int_bound 40) (int_bound 40)) int64)
    (fun (n_packets, (loss_pct, dup_pct), seed) ->
      let engine = Engine.create () in
      let rng = Rng.create ~seed in
      let impair =
        Impair.make
          ~loss:(float_of_int loss_pct /. 100.0)
          ~duplicate:(float_of_int dup_pct /. 100.0)
          ()
      in
      let link =
        Link.create ~engine ~rng ~impair ~queue_limit:16 ~bandwidth_bps:1e6
          ~delay:0.001 ()
      in
      let delivered = ref 0 in
      Link.set_receiver link (fun _ -> incr delivered);
      let accepted = ref 0 in
      for i = 0 to n_packets - 1 do
        if Link.send link (mk_packet ~len:100 i) then incr accepted
      done;
      Engine.run_until_idle engine;
      let st = Link.stats link in
      st.Stats.sent_pkts = !accepted
      && !accepted + st.Stats.dropped_queue = n_packets
      && !delivered = st.Stats.delivered_pkts
      && st.Stats.delivered_pkts + st.Stats.dropped_loss
         = !accepted + st.Stats.duplicated)

(* --- Node / Switch / Topology --- *)

let test_node_demux () =
  let node = Node.create ~addr:5 in
  let got_a = ref 0 and got_b = ref 0 in
  Node.attach node ~proto:1 (fun _ -> incr got_a);
  Node.attach node ~proto:2 (fun _ -> incr got_b);
  let pkt proto dst = Packet.make ~id:0 ~src:9 ~dst ~proto (Bufkit.Bytebuf.create 1) in
  Node.recv node (pkt 1 5);
  Node.recv node (pkt 2 5);
  Node.recv node (pkt 2 5);
  Node.recv node (pkt 3 5);
  Node.recv node (pkt 1 6);
  Alcotest.(check int) "proto 1" 1 !got_a;
  Alcotest.(check int) "proto 2" 2 !got_b;
  Alcotest.(check int) "undeliverable" 2 (Node.undeliverable node)

let test_node_unroutable () =
  let node = Node.create ~addr:1 in
  let sent =
    Node.send node (Packet.make ~id:0 ~src:1 ~dst:2 ~proto:0 (Bufkit.Bytebuf.create 1))
  in
  Alcotest.(check bool) "send fails" false sent;
  Alcotest.(check int) "counted" 1 (Node.unroutable node)

let test_topology_point_to_point () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1L in
  let net =
    Topology.point_to_point ~engine ~rng ~bandwidth_bps:1e6 ~delay:0.001 ~a:1 ~b:2 ()
  in
  let got = ref None in
  Node.attach net.Topology.b ~proto:9 (fun p -> got := Some p.Packet.src);
  ignore
    (Node.send net.Topology.a
       (Packet.make ~id:0 ~src:1 ~dst:2 ~proto:9 (Bufkit.Bytebuf.create 10)));
  Engine.run_until_idle engine;
  Alcotest.(check (option int)) "received from a" (Some 1) !got

let test_topology_star_any_to_any () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:2L in
  let star =
    Topology.star ~engine ~rng ~bandwidth_bps:1e6 ~delay:0.001 ~hosts:[ 1; 2; 3 ] ()
  in
  let hits = Array.make 3 0 in
  Array.iteri
    (fun i host -> Node.attach host ~proto:4 (fun _ -> hits.(i) <- hits.(i) + 1))
    star.Topology.hub_hosts;
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if Node.addr src <> Node.addr dst then
            ignore
              (Node.send src
                 (Packet.make ~id:0 ~src:(Node.addr src) ~dst:(Node.addr dst)
                    ~proto:4 (Bufkit.Bytebuf.create 10))))
        star.Topology.hub_hosts)
    star.Topology.hub_hosts;
  Engine.run_until_idle engine;
  Alcotest.(check (array int)) "each got two" [| 2; 2; 2 |] hits

let test_switch_no_route_counted () =
  let engine = Engine.create () in
  let sw = Switch.create ~engine () in
  Switch.recv sw (Packet.make ~id:0 ~src:1 ~dst:99 ~proto:0 (Bufkit.Bytebuf.create 4));
  Alcotest.(check int) "no route counted" 1 (Switch.no_route sw);
  Alcotest.(check int) "nothing forwarded" 0 (Switch.forwarded sw)

let test_topology_dumbbell () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:3L in
  let d =
    Topology.dumbbell ~engine ~rng ~edge_bandwidth_bps:1e7
      ~bottleneck_bandwidth_bps:1e6 ~delay:0.001 ~left:[ 1; 2 ] ~right:[ 11; 12 ] ()
  in
  let got = ref 0 in
  Array.iter (fun host -> Node.attach host ~proto:7 (fun _ -> incr got)) d.Topology.right;
  Array.iter
    (fun src ->
      ignore
        (Node.send src
           (Packet.make ~id:0 ~src:(Node.addr src) ~dst:11 ~proto:7
              (Bufkit.Bytebuf.create 10)));
      ignore
        (Node.send src
           (Packet.make ~id:0 ~src:(Node.addr src) ~dst:12 ~proto:7
              (Bufkit.Bytebuf.create 10))))
    d.Topology.left;
  Engine.run_until_idle engine;
  Alcotest.(check int) "all crossed the bottleneck" 4 !got

(* --- Workload --- *)

let test_workload_cbr_rate () =
  let engine = Engine.create () in
  let emitted = ref 0 in
  let src =
    Workload.cbr ~engine ~rate_bps:80_000.0 ~payload_bytes:1000 ~until:1.0
      ~emit:(fun b ->
        Alcotest.(check int) "payload size" 1000 (Bufkit.Bytebuf.length b);
        incr emitted)
      ()
  in
  Engine.run ~until:2.0 engine;
  (* 80 kb/s at 8 kb per payload = 10 payloads/s for 1 s; float rounding
     at the horizon allows one extra tick. *)
  Alcotest.(check bool) (Printf.sprintf "ten-ish payloads (%d)" !emitted) true
    (!emitted = 10 || !emitted = 11);
  Alcotest.(check int) "counter agrees" !emitted (Workload.emitted src);
  Alcotest.(check int) "bytes" (!emitted * 1000) (Workload.emitted_bytes src)

let test_workload_cbr_stop () =
  let engine = Engine.create () in
  let src = ref None in
  let emitted = ref 0 in
  let s =
    Workload.cbr ~engine ~rate_bps:8000.0 ~payload_bytes:100 ~emit:(fun _ ->
        incr emitted;
        if !emitted = 3 then Workload.stop (Option.get !src))
      ()
  in
  src := Some s;
  Engine.run ~until:100.0 engine;
  Alcotest.(check int) "stopped after 3" 3 !emitted

let test_workload_poisson_mean_rate () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:808L in
  let src =
    Workload.poisson ~engine ~rng ~mean_rate_pps:100.0 ~payload_bytes:10
      ~until:50.0 ~emit:(fun _ -> ()) ()
  in
  Engine.run ~until:60.0 engine;
  (* ~5000 arrivals expected; allow generous slack. *)
  let n = Workload.emitted src in
  Alcotest.(check bool) (Printf.sprintf "rate plausible (%d)" n) true
    (n > 4500 && n < 5500)

let test_workload_on_off_duty_cycle () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:909L in
  let src =
    Workload.on_off ~engine ~rng ~rate_bps:80_000.0 ~payload_bytes:100
      ~mean_on:0.1 ~mean_off:0.1 ~until:100.0 ~emit:(fun _ -> ()) ()
  in
  Engine.run ~until:120.0 engine;
  (* Full rate would emit 100 payloads/s * 100 s = 10000; a 50% duty cycle
     should land near half that. *)
  let n = Workload.emitted src in
  Alcotest.(check bool) (Printf.sprintf "duty cycle plausible (%d)" n) true
    (n > 3500 && n < 6500)

let test_workload_congestion_at_bottleneck () =
  (* Two CBR sources totalling 1.6 Mb/s into a 1 Mb/s bottleneck: the
     shared link must shed ~40% through its finite queue. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:4L in
  let d =
    Topology.dumbbell ~engine ~rng ~queue_limit:16 ~edge_bandwidth_bps:10e6
      ~bottleneck_bandwidth_bps:1e6 ~delay:0.001 ~left:[ 1; 2 ] ~right:[ 11 ] ()
  in
  let received = ref 0 in
  Node.attach d.Topology.right.(0) ~proto:5 (fun _ -> incr received);
  let sent = ref 0 in
  Array.iter
    (fun src ->
      ignore
        (Workload.cbr ~engine ~rate_bps:800_000.0 ~payload_bytes:1000 ~until:2.0
           ~emit:(fun payload ->
             incr sent;
             ignore
               (Node.send src
                  (Packet.make ~id:!sent ~src:(Node.addr src) ~dst:11 ~proto:5
                     payload)))
           ()))
    d.Topology.left;
  Engine.run ~until:10.0 engine;
  let drops = (Link.stats d.Topology.bottleneck_lr).Stats.dropped_queue in
  Alcotest.(check int) "conservation through the switch fabric" !sent
    (!received + drops);
  let rate = float_of_int !received /. float_of_int !sent in
  Alcotest.(check bool)
    (Printf.sprintf "bottleneck shed load (%.0f%% delivered)" (rate *. 100.0))
    true
    (rate > 0.5 && rate < 0.75)

(* --- Stats --- *)

let test_stats_summary () =
  let s = Stats.summary () in
  List.iter (Stats.observe s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.maximum s);
  (* Sample (n-1) standard deviation since the Welford rewrite. *)
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (5.0 /. 3.0)) (Stats.stddev s)

let test_stats_stddev_large_offset () =
  (* The old sumsq/n - mean^2 formula cancels catastrophically when the
     mean dwarfs the spread: for 1e9 + {0,1,2} it returned 0 (or garbage)
     where the true sample stddev is exactly 1. *)
  let s = Stats.summary () in
  List.iter (Stats.observe s) [ 1e9; 1e9 +. 1.0; 1e9 +. 2.0 ];
  Alcotest.(check (float 1e-6)) "stddev at large offset" 1.0 (Stats.stddev s)

let test_stats_series () =
  let s = Stats.series () in
  Stats.record s ~t:1.0 10.0;
  Stats.record s ~t:2.0 20.0;
  Stats.record s ~t:3.0 30.0;
  Alcotest.(check (option (float 0.0))) "at_or_before 2.5" (Some 20.0)
    (Stats.at_or_before s 2.5);
  Alcotest.(check (option (float 0.0))) "before first" None (Stats.at_or_before s 0.5);
  Alcotest.(check int) "points" 3 (List.length (Stats.points s))

(* --- Trace --- *)

let test_trace_deep_ring () =
  (* The lazy trim takes a [capacity]-deep prefix; with the old
     non-tail-recursive take this overflowed the stack on big rings. *)
  let e = Engine.create () in
  let capacity = 200_000 in
  let tr = Trace.create ~capacity e in
  for i = 1 to (2 * capacity) + 10 do
    Trace.log tr "t" "%d" i
  done;
  let es = Trace.entries tr in
  Alcotest.(check int) "trimmed to capacity" capacity (List.length es);
  (match List.rev es with
  | (_, _, last) :: _ ->
      Alcotest.(check string) "newest kept" (string_of_int ((2 * capacity) + 10)) last
  | [] -> Alcotest.fail "empty trace");
  Alcotest.(check int) "size" capacity (Trace.size tr)

let test_trace_basic () =
  let e = Engine.create () in
  let tr = Trace.create e in
  Trace.log tr "test" "hello %d" 1;
  ignore (Engine.schedule_at e 1.5 (fun () -> Trace.log tr "test" "later"));
  Engine.run_until_idle e;
  match Trace.entries tr with
  | [ (t1, "test", "hello 1"); (t2, "test", "later") ] ->
      Alcotest.(check (float 0.0)) "first at 0" 0.0 t1;
      Alcotest.(check (float 0.0)) "second at 1.5" 1.5 t2
  | _ -> Alcotest.fail "unexpected entries"

let test_trace_capacity () =
  let e = Engine.create () in
  let tr = Trace.create ~capacity:10 e in
  for i = 1 to 100 do
    Trace.log tr "x" "%d" i
  done;
  let entries = Trace.entries tr in
  Alcotest.(check bool) "bounded" true (List.length entries <= 10);
  match List.rev entries with
  | (_, _, last) :: _ -> Alcotest.(check string) "newest kept" "100" last
  | [] -> Alcotest.fail "empty"

let () =
  Alcotest.run "netsim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "bool extremes" `Quick test_rng_bool_extremes;
          Alcotest.test_case "bool statistics" `Quick test_rng_bool_statistics;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          qcheck prop_rng_int_bounds;
          qcheck prop_rng_float_unit;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "past clamped" `Quick test_engine_schedule_in_past_clamped;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "step empty" `Quick test_engine_step_empty;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          qcheck prop_engine_matches_model;
        ] );
      ( "impair",
        [
          Alcotest.test_case "none" `Quick test_impair_none;
          Alcotest.test_case "certain loss" `Quick test_impair_certain_loss;
          Alcotest.test_case "loss rate" `Quick test_impair_loss_rate;
          Alcotest.test_case "corrupt payload" `Quick test_impair_corrupt_payload;
        ] );
      ( "link",
        [
          Alcotest.test_case "single packet timing" `Quick test_link_single_packet_timing;
          Alcotest.test_case "back to back" `Quick test_link_back_to_back;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "loss counted" `Quick test_link_loss_counted;
          Alcotest.test_case "duplicate" `Quick test_link_duplicate;
          Alcotest.test_case "corruption" `Quick test_link_corruption_changes_payload;
          qcheck prop_link_conservation;
        ] );
      ( "node+topology",
        [
          Alcotest.test_case "node demux" `Quick test_node_demux;
          Alcotest.test_case "node unroutable" `Quick test_node_unroutable;
          Alcotest.test_case "point to point" `Quick test_topology_point_to_point;
          Alcotest.test_case "star any-to-any" `Quick test_topology_star_any_to_any;
          Alcotest.test_case "dumbbell" `Quick test_topology_dumbbell;
          Alcotest.test_case "switch no route" `Quick test_switch_no_route_counted;
        ] );
      ( "workload",
        [
          Alcotest.test_case "cbr rate" `Quick test_workload_cbr_rate;
          Alcotest.test_case "cbr stop" `Quick test_workload_cbr_stop;
          Alcotest.test_case "poisson mean rate" `Quick test_workload_poisson_mean_rate;
          Alcotest.test_case "on/off duty cycle" `Quick test_workload_on_off_duty_cycle;
          Alcotest.test_case "congestion at bottleneck" `Quick
            test_workload_congestion_at_bottleneck;
        ] );
      ( "stats+trace",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "stddev large offset" `Quick
            test_stats_stddev_large_offset;
          Alcotest.test_case "series" `Quick test_stats_series;
          Alcotest.test_case "trace basic" `Quick test_trace_basic;
          Alcotest.test_case "trace capacity" `Quick test_trace_capacity;
          Alcotest.test_case "trace deep ring" `Quick test_trace_deep_ring;
        ] );
    ]
