(* The real-I/O runtime: timer heap ordering, the poll loop, the UDP
   link, and the backend-parametric transport suite — the same delivery
   and accounting assertions over the simulator and over real loopback
   sockets, through the one [Rt.Sched] seam. *)

open Bufkit
open Netsim
open Alf_core

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- Timers: the heap under both clocks --- *)

module Timers = Rt.Timers

let test_wheel_fifo_same_deadline () =
  let w = Timers.create () in
  let order = ref [] in
  let tag i () = order := i :: !order in
  ignore (Timers.schedule w ~at:1.0 (tag 1));
  ignore (Timers.schedule w ~at:1.0 (tag 2));
  ignore (Timers.schedule w ~at:1.0 (tag 3));
  Alcotest.(check int) "pending" 3 (Timers.pending w);
  let fired = Timers.advance w ~now:1.0 in
  Alcotest.(check int) "fired" 3 fired;
  Alcotest.(check (list int)) "schedule order" [ 1; 2; 3 ] (List.rev !order)

let test_wheel_clamp_never_overtakes () =
  (* A deadline in the past is clamped to the heap's now — it must fire
     after callbacks already due at that instant, never before. *)
  let w = Timers.create () in
  ignore (Timers.advance w ~now:10.0);
  let order = ref [] in
  let tag i () = order := i :: !order in
  ignore (Timers.schedule w ~at:10.0 (tag 1));
  ignore (Timers.schedule w ~at:4.0 (tag 2));
  (* past: clamps to 10 *)
  ignore (Timers.schedule w ~at:10.0 (tag 3));
  ignore (Timers.advance w ~now:10.0);
  Alcotest.(check (list int)) "clamped keeps FIFO" [ 1; 2; 3 ] (List.rev !order)

let test_wheel_cancel () =
  let w = Timers.create () in
  let fired = ref [] in
  let tag i () = fired := i :: !fired in
  let _t1 = Timers.schedule w ~at:0.5 (tag 1) in
  let t2 = Timers.schedule w ~at:0.5 (tag 2) in
  let _t3 = Timers.schedule w ~at:0.5 (tag 3) in
  Timers.cancel t2;
  Timers.cancel t2 (* idempotent *);
  Alcotest.(check int) "pending after cancel" 2 (Timers.pending w);
  let n = Timers.advance w ~now:1.0 in
  Alcotest.(check int) "fired" 2 n;
  Alcotest.(check (list int)) "survivors" [ 1; 3 ] (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Timers.pending w)

let test_wheel_rotation () =
  (* Two deadlines 16 ms apart: an advance fires only what is actually
     due, and the far one stays pending at its exact deadline. *)
  let w = Timers.create () in
  let fired = ref [] in
  let tag i () = fired := i :: !fired in
  let revolution = 8.0 *. 0.001 in
  ignore (Timers.schedule w ~at:0.003 (tag 1));
  ignore (Timers.schedule w ~at:(0.003 +. (2.0 *. revolution)) (tag 2));
  ignore (Timers.advance w ~now:0.004);
  Alcotest.(check (list int)) "only the due one" [ 1 ] (List.rev !fired);
  Alcotest.(check int) "far one still pending" 1 (Timers.pending w);
  let d = Timers.next_deadline w in
  Alcotest.(check bool) "deadline beyond now" true (d > 0.004);
  Alcotest.(check (float 1e-12))
    "the far deadline" (0.003 +. (2.0 *. revolution)) d;
  ignore (Timers.advance w ~now:(0.003 +. (3.0 *. revolution)));
  Alcotest.(check (list int)) "eventually fires" [ 1; 2 ] (List.rev !fired);
  Alcotest.(check int) "empty" 0 (Timers.pending w)

let test_wheel_reschedule_in_callback () =
  (* A callback scheduled during an advance, due within it, fires in the
     same advance — after everything already due. *)
  let w = Timers.create () in
  let order = ref [] in
  ignore
    (Timers.schedule w ~at:1.0 (fun () ->
         order := 1 :: !order;
         ignore (Timers.schedule w ~at:0.2 (fun () -> order := 3 :: !order))));
  ignore (Timers.schedule w ~at:1.0 (fun () -> order := 2 :: !order));
  let n = Timers.advance w ~now:1.0 in
  Alcotest.(check int) "all three in one advance" 3 n;
  Alcotest.(check (list int)) "late-scheduled goes last" [ 1; 2; 3 ]
    (List.rev !order)

(* Model check: random schedules (past, tied and far-future deadlines),
   cancels (twice, and after firing), advances and steps, with callbacks
   that schedule or cancel, against a list model — clamp to the clock,
   then a stable order by (deadline, schedule order). *)
type on_fire = Quiet | Then_schedule of int | Then_cancel of int

type op =
  | Schedule of int * on_fire
  | Cancel of int
  | Advance of int
  | Step

(* Code 0 is far in the future; the rest is a half-second grid, so ties
   are common and a grid point below the clock is a past deadline. *)
let time_of code = if code = 0 then 1e9 else float_of_int (code - 1) /. 2.0

let show_op = function
  | Schedule (c, f) ->
      Printf.sprintf "schedule %g%s" (time_of c)
        (match f with
        | Quiet -> ""
        | Then_schedule c -> Printf.sprintf " (then %g)" (time_of c)
        | Then_cancel k -> Printf.sprintf " (then cancel %d)" k)
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Advance c -> Printf.sprintf "advance %g" (time_of c)
  | Step -> "step"

let arb_ops =
  let open QCheck.Gen in
  let code = int_bound 10 in
  let on_fire =
    frequency
      [
        (2, return Quiet);
        (1, map (fun c -> Then_schedule c) code);
        (1, map (fun k -> Then_cancel k) (int_bound 30));
      ]
  in
  let op =
    frequency
      [
        (4, map2 (fun c f -> Schedule (c, f)) code on_fire);
        (2, map (fun k -> Cancel k) (int_bound 30));
        (2, map (fun c -> Advance c) code);
        (1, return Step);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_bound 40) op)

(* The model: live cells as (deadline, id) with ids in schedule order. *)
type model = {
  mutable clock : float;
  mutable live : (float * int) list;
  mutable fired : int list;  (* newest first *)
  mutable count : int;  (* cells scheduled so far *)
  effects : (int, on_fire) Hashtbl.t;
}

let rec m_schedule m at f =
  let id = m.count in
  m.count <- id + 1;
  Hashtbl.replace m.effects id f;
  m.live <- m.live @ [ ((if at < m.clock then m.clock else at), id) ]

and m_step m =
  match List.stable_sort (fun (a, _) (b, _) -> compare a b) m.live with
  | [] -> false
  | (d, id) :: _ ->
      m.live <- List.filter (fun (_, i) -> i <> id) m.live;
      m.clock <- d;
      m.fired <- id :: m.fired;
      (match Hashtbl.find m.effects id with
      | Quiet -> ()
      | Then_schedule c -> m_schedule m (time_of c) Quiet
      | Then_cancel k -> m_cancel m k);
      true

and m_cancel m k =
  if m.count > 0 then
    let id = k mod m.count in
    m.live <- List.filter (fun (_, i) -> i <> id) m.live

let m_next m =
  List.fold_left (fun acc (d, _) -> Float.min acc d) infinity m.live

let rec m_advance m now =
  if m.live <> [] && m_next m <= now && m_step m then m_advance m now
  else if now > m.clock then m.clock <- now

let prop_timers_match_model =
  QCheck.Test.make ~name:"timers: firing order and pending match a list model"
    ~count:500 arb_ops (fun ops ->
      let m =
        {
          clock = 0.0;
          live = [];
          fired = [];
          count = 0;
          effects = Hashtbl.create 16;
        }
      in
      let w = Timers.create () in
      let cells = ref [||] and fired = ref [] in
      let rec schedule at f =
        let id = Array.length !cells in
        let run () =
          fired := id :: !fired;
          match f with
          | Quiet -> ()
          | Then_schedule c -> schedule (time_of c) Quiet
          | Then_cancel k -> cancel k
        in
        cells := Array.append !cells [| Timers.schedule w ~at run |]
      and cancel k =
        let n = Array.length !cells in
        if n > 0 then Timers.cancel !cells.(k mod n)
      in
      List.for_all
        (fun op ->
          (match op with
          | Schedule (c, f) ->
              schedule (time_of c) f;
              m_schedule m (time_of c) f
          | Cancel k ->
              cancel k;
              m_cancel m k
          | Advance c ->
              ignore (Timers.advance w ~now:(time_of c));
              m_advance m (time_of c)
          | Step ->
              let stepped = Timers.step w in
              if stepped <> m_step m then failwith "step disagrees");
          !fired = m.fired
          && Timers.pending w = List.length m.live
          && Timers.now w = m.clock
          && Timers.next_deadline w = m_next m)
        ops)

(* --- The Sched ordering contract, on both backends --- *)

(* At the instant two callbacks are already due, a callback scheduled
   with zero and one with negative delay must fire after them, in
   schedule order: [a; b; c; d]. The simulator and the real loop must
   agree — the soak matrix's reproducibility rides on it. *)
let sched_fifo_scenario (sched : Rt.Sched.t) step =
  let order = ref [] in
  let tag i () = order := i :: !order in
  ignore
    (Rt.Sched.schedule_after sched 1.0 (fun () ->
         tag 1 ();
         ignore (Rt.Sched.schedule_after sched 0.0 (tag 3));
         ignore (Rt.Sched.schedule_after sched (-5.0) (tag 4))));
  ignore (Rt.Sched.schedule_after sched 1.0 (tag 2));
  step ();
  List.rev !order

let test_engine_sched_fifo () =
  let engine = Engine.create () in
  let got =
    sched_fifo_scenario (Engine.sched engine) (fun () ->
        Engine.run ~until:2.0 engine)
  in
  Alcotest.(check (list int)) "engine FIFO under zero/negative delay"
    [ 1; 2; 3; 4 ] got

let test_loop_sched_fifo () =
  let loop = Rt.Loop.create () in
  let sched = Rt.Loop.sched loop in
  let order = ref [] in
  let tag i () = order := i :: !order in
  (* Compress the scenario to real milliseconds: both roots due 2 ms out. *)
  ignore
    (Rt.Sched.schedule_after sched 0.002 (fun () ->
         tag 1 ();
         ignore (Rt.Sched.schedule_after sched 0.0 (tag 3));
         ignore (Rt.Sched.schedule_after sched (-5.0) (tag 4))));
  ignore (Rt.Sched.schedule_after sched 0.002 (tag 2));
  let done_ = Rt.Loop.run_until loop ~timeout:5.0 (fun () -> List.length !order = 4) in
  Alcotest.(check bool) "completed" true done_;
  Alcotest.(check (list int)) "loop FIFO under zero/negative delay"
    [ 1; 2; 3; 4 ]
    (List.rev !order);
  Alcotest.(check int) "no timers left" 0 (Rt.Loop.pending_timers loop)

(* --- Loop: descriptors --- *)

let test_loop_readable () =
  let loop = Rt.Loop.create () in
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  let got = Buffer.create 16 in
  Rt.Loop.on_readable loop r (fun () ->
      let b = Bytes.create 64 in
      match Unix.read r b 0 64 with
      | n -> Buffer.add_subbytes got b 0 n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  let timer_fired = ref false in
  ignore
    (Rt.Sched.schedule_after (Rt.Loop.sched loop) 0.001 (fun () ->
         timer_fired := true;
         ignore (Unix.write_substring w "ping" 0 4)));
  let done_ =
    Rt.Loop.run_until loop ~timeout:5.0 (fun () -> Buffer.contents got = "ping")
  in
  Alcotest.(check bool) "delivered" true done_;
  Alcotest.(check bool) "timer ran first" true !timer_fired;
  Rt.Loop.clear_readable loop r;
  Unix.close r;
  Unix.close w

(* --- Loop words: a round allocates what [Unix] returns and its clock
   reads, not bookkeeping per descriptor or per timer. A received
   datagram costs what [Unix.recvfrom] returns (its pair, the ADDR_INET
   block and the 4-byte address: 8 words) and the handler's 4-word
   view. --- *)

let recvfrom_words = 8
let view_words = 4

let words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let test_loop_words_pred_holds () =
  let loop = Rt.Loop.create () in
  let holds () = true in
  ignore (Rt.Loop.run_until loop ~timeout:1.0 holds);
  let w =
    words (fun () -> ignore (Rt.Loop.run_until loop ~timeout:1.0 holds))
  in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 8" w) true (w <= 8)

(* Twenty datagrams queued before the loop runs: one select, one drain.
   Each datagram costs what [Unix.recvfrom] returns and the handler's
   view (the udp-link words test holds those 12); the wakeup's own words
   are the rest. *)
let test_loop_words_one_wakeup () =
  let loop = Rt.Loop.create () in
  let link = Rt.Udp_link.create ~loop () in
  let got = ref 0 and want = ref 0 in
  Rt.Udp_link.bind link ~port:5500 (fun ~src:_ ~src_port:_ _ -> incr got);
  Rt.Udp_link.bind link ~port:5501 (fun ~src:_ ~src_port:_ _ -> ());
  let dst = Rt.Udp_link.local_addr link ~port:5500 in
  let payload = Bytebuf.of_string (String.make 80 'w') in
  let all_in () = !got >= !want in
  let burst k =
    want := !got + k;
    for _ = 1 to k do
      ignore (Rt.Udp_link.send link ~dst ~dst_port:5500 ~src_port:5501 payload)
    done
  in
  let k = 20 in
  burst k;
  ignore (Rt.Loop.run_until loop ~timeout:5.0 all_in);
  burst k;
  let drains = (Rt.Udp_link.stats link).Rt.Udp_link.recv_batches in
  let w =
    words (fun () -> ignore (Rt.Loop.run_until loop ~timeout:5.0 all_in))
  in
  Alcotest.(check int) "one drain" 1
    ((Rt.Udp_link.stats link).Rt.Udp_link.recv_batches - drains);
  Alcotest.(check int) "all delivered" !want !got;
  let bound = ((recvfrom_words + view_words) * k) + 48 in
  Alcotest.(check bool)
    (Printf.sprintf "%d words <= %d" w bound)
    true (w <= bound);
  Rt.Udp_link.close link

let test_loop_words_zero_delay_timer () =
  let loop = Rt.Loop.create () in
  let sched = Rt.Loop.sched loop in
  let fired = ref false in
  let fire () = fired := true in
  let has_fired () = !fired in
  let once () =
    fired := false;
    ignore (Rt.Sched.schedule_after sched 0.0 fire);
    ignore (Rt.Loop.run_until loop ~timeout:1.0 has_fired)
  in
  once ();
  let w = words once in
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check bool) (Printf.sprintf "%d words <= 32" w) true (w <= 32)

(* --- Udp_link --- *)

let test_udp_link_roundtrip () =
  let loop = Rt.Loop.create () in
  let link = Rt.Udp_link.create ~loop () in
  let got_b = ref [] and got_a = ref [] in
  Rt.Udp_link.bind link ~port:5000 (fun ~src ~src_port payload ->
      got_b := (src, src_port, Bytebuf.to_string payload) :: !got_b);
  Rt.Udp_link.bind link ~port:5001 (fun ~src ~src_port payload ->
      got_a := (src, src_port, Bytebuf.to_string payload) :: !got_a);
  let b_addr = Rt.Udp_link.local_addr link ~port:5000 in
  Alcotest.(check bool) "send accepted" true
    (Rt.Udp_link.send link ~dst:b_addr ~dst_port:5000 ~src_port:5001
       (Bytebuf.of_string "hello"));
  let ok = Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_b <> []) in
  Alcotest.(check bool) "forward delivered" true ok;
  let src, src_port, payload =
    match !got_b with [ x ] -> x | _ -> Alcotest.fail "expected one datagram"
  in
  Alcotest.(check string) "payload" "hello" payload;
  (* The source token the handler saw routes a reply back. *)
  Alcotest.(check bool) "reply accepted" true
    (Rt.Udp_link.send link ~dst:src ~dst_port:src_port ~src_port:5000
       (Bytebuf.of_string "aloha"));
  let ok = Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_a <> []) in
  Alcotest.(check bool) "reply delivered" true ok;
  (match !got_a with
  | [ (_, _, p) ] -> Alcotest.(check string) "reply payload" "aloha" p
  | _ -> Alcotest.fail "expected one reply");
  let st = Rt.Udp_link.stats link in
  Alcotest.(check int) "sent" 2 st.Rt.Udp_link.datagrams_sent;
  Alcotest.(check int) "received" 2 st.Rt.Udp_link.datagrams_received;
  (* Unknown destination: refused locally, counted, not an exception. *)
  Alcotest.(check bool) "unknown peer refused" false
    (Rt.Udp_link.send link ~dst:9999 ~dst_port:1 ~src_port:5000
       (Bytebuf.of_string "x"));
  Alcotest.(check int) "no_peer counted" 1 (Rt.Udp_link.stats link).Rt.Udp_link.no_peer;
  Rt.Udp_link.close link

(* First contact and the in-place upgrade: a datagram from an unknown
   sockaddr identifies under a synthetic port-0 pair that still routes a
   reply; a later [set_peer] for the same sockaddr upgrades the registry
   entry in place — the stale pair stops routing and later arrivals
   identify under the real name. *)
let test_udp_link_first_contact_upgrade () =
  let loop = Rt.Loop.create () in
  let link_a = Rt.Udp_link.create ~loop () in
  let link_b = Rt.Udp_link.create ~loop () in
  let got_a = ref [] and got_b = ref [] in
  Rt.Udp_link.bind link_a ~port:6000 (fun ~src ~src_port payload ->
      got_a := (src, src_port, Bytebuf.to_string payload) :: !got_a);
  Rt.Udp_link.bind link_b ~port:6001 (fun ~src ~src_port payload ->
      got_b := (src, src_port, Bytebuf.to_string payload) :: !got_b);
  (* a knows b by name; b has never heard of a. *)
  Rt.Udp_link.set_peer link_a ~addr:50 ~port:6001
    (Rt.Udp_link.local_sockaddr link_b ~port:6001);
  Alcotest.(check bool) "first datagram accepted" true
    (Rt.Udp_link.send link_a ~dst:50 ~dst_port:6001 ~src_port:6000
       (Bytebuf.of_string "hello"));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_b <> []));
  let src, src_port =
    match !got_b with
    | [ (s, p, "hello") ] -> (s, p)
    | _ -> Alcotest.fail "expected the hello"
  in
  Alcotest.(check int) "first contact carries the synthetic port" 0 src_port;
  (* The synthetic token still routes a reply... *)
  Alcotest.(check bool) "token routes a reply" true
    (Rt.Udp_link.send link_b ~dst:src ~dst_port:src_port ~src_port:6001
       (Bytebuf.of_string "aloha"));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_a <> []));
  (match !got_a with
  | [ (sa, spa, "aloha") ] ->
      (* a seeded b's name, so b's reply identifies under it. *)
      Alcotest.(check int) "reply source address" 50 sa;
      Alcotest.(check int) "reply source port" 6001 spa
  | _ -> Alcotest.fail "expected the aloha");
  (* ...until b learns the real name: upgrade in place. *)
  Rt.Udp_link.set_peer link_b ~addr:9 ~port:6000
    (Rt.Udp_link.local_sockaddr link_a ~port:6000);
  Alcotest.(check bool) "stale synthetic pair stops routing" false
    (Rt.Udp_link.send link_b ~dst:src ~dst_port:src_port ~src_port:6001
       (Bytebuf.of_string "x"));
  Alcotest.(check int) "stale pair counted as no_peer" 1
    (Rt.Udp_link.stats link_b).Rt.Udp_link.no_peer;
  got_a := [];
  Alcotest.(check bool) "upgraded pair routes" true
    (Rt.Udp_link.send link_b ~dst:9 ~dst_port:6000 ~src_port:6001
       (Bytebuf.of_string "named"));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_a <> []));
  (match !got_a with
  | [ (_, _, "named") ] -> ()
  | _ -> Alcotest.fail "expected the named datagram");
  (* Later arrivals from the same sockaddr identify under the real
     name, not a fresh synthetic one. *)
  got_b := [];
  ignore
    (Rt.Udp_link.send link_a ~dst:50 ~dst_port:6001 ~src_port:6000
       (Bytebuf.of_string "again"));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_b <> []));
  (match !got_b with
  | [ (s, p, "again") ] ->
      Alcotest.(check int) "arrival identifies under the upgrade" 9 s;
      Alcotest.(check int) "with the real port" 6000 p
  | _ -> Alcotest.fail "expected the again datagram");
  Rt.Udp_link.close link_a;
  Rt.Udp_link.close link_b

(* --- Udp_link words: a send to a registered peer costs no GC word; a
   received datagram costs [recvfrom_words] and [view_words]. --- *)

let test_udp_link_words () =
  let loop = Rt.Loop.create () in
  let link = Rt.Udp_link.create ~recv_batch:512 ~loop () in
  let got = ref 0 in
  Rt.Udp_link.bind link ~port:5100 (fun ~src:_ ~src_port:_ _ -> incr got);
  Rt.Udp_link.bind link ~port:5101 (fun ~src:_ ~src_port:_ _ -> ());
  let dst = Rt.Udp_link.local_addr link ~port:5100 in
  let payload = Bytebuf.of_string (String.make 80 'w') in
  let send_all n =
    for _ = 1 to n do
      ignore (Rt.Udp_link.send link ~dst ~dst_port:5100 ~src_port:5101 payload)
    done
  in
  send_all 4;
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got >= 4));
  let before = Gc.minor_words () in
  send_all 100;
  Alcotest.(check int) "words over 100 sends" 0
    (int_of_float (Gc.minor_words () -. before));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got >= 104));
  (* One wakeup drains each batch, so the loop's own words cancel out of
     the difference between a batch of 40 and one of 200. *)
  let batch n =
    let want = !got + n in
    send_all n;
    let before = Gc.minor_words () in
    ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got >= want));
    Gc.minor_words () -. before
  in
  ignore (batch 40);
  let small = batch 40 and large = batch 200 in
  Alcotest.(check int) "words per received datagram"
    (recvfrom_words + view_words)
    (int_of_float (Float.round ((large -. small) /. 160.)));
  Rt.Udp_link.close link

(* --- Udp_link staging: one pooled buffer per drain, released when the
   drain ends, also when a handler raises. --- *)

let pool_takes pool =
  let st = Pool.stats pool in
  st.Pool.allocated + st.Pool.reused

(* [k] datagrams sent before the loop runs, so one wakeup drains them. *)
let send_burst link ~port ~from k =
  let dst = Rt.Udp_link.local_addr link ~port in
  for i = 1 to k do
    ignore
      (Rt.Udp_link.send link ~dst ~dst_port:port ~src_port:from
         (Bytebuf.of_string (Printf.sprintf "dgram %d" i)))
  done

let burst k = List.init k (fun i -> Printf.sprintf "dgram %d" (i + 1))

let test_udp_link_staging_per_drain () =
  let loop = Rt.Loop.create () in
  let pool = Pool.create ~buf_size:2048 () in
  let link = Rt.Udp_link.create ~pool ~loop () in
  let got = ref 0 in
  Rt.Udp_link.bind link ~port:5300 (fun ~src:_ ~src_port:_ _ -> incr got);
  Rt.Udp_link.bind link ~port:5301 (fun ~src:_ ~src_port:_ _ -> ());
  let k = 20 in
  let takes = pool_takes pool
  and drains = (Rt.Udp_link.stats link).Rt.Udp_link.recv_batches in
  send_burst link ~port:5300 ~from:5301 k;
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got >= k));
  Alcotest.(check int) "every datagram delivered" k !got;
  let drains = (Rt.Udp_link.stats link).Rt.Udp_link.recv_batches - drains in
  Alcotest.(check int) "one acquisition per drain" drains
    (pool_takes pool - takes);
  Alcotest.(check bool) "fewer drains than datagrams" true (drains < k);
  Alcotest.(check int) "nothing outstanding after a drain" 0
    (Pool.stats pool).Pool.outstanding;
  Rt.Udp_link.bind link ~port:5300 (fun ~src:_ ~src_port:_ _ -> raise Exit);
  send_burst link ~port:5300 ~from:5301 1;
  (match Rt.Loop.run_until loop ~timeout:5.0 (fun () -> false) with
  | _ -> Alcotest.fail "the handler's exception did not reach the loop"
  | exception Exit -> ());
  Alcotest.(check int) "nothing outstanding after a handler raised" 0
    (Pool.stats pool).Pool.outstanding;
  Rt.Udp_link.close link

(* With the pool's one buffer held elsewhere, each drain stages in the
   link's scratch, counts one miss, and still delivers every datagram. *)
let test_udp_link_capped_pool () =
  let loop = Rt.Loop.create () in
  let pool = Pool.create ~max_outstanding:1 ~buf_size:2048 () in
  let held = Pool.acquire pool in
  let link = Rt.Udp_link.create ~pool ~loop () in
  let got = ref [] in
  Rt.Udp_link.bind link ~port:5400 (fun ~src:_ ~src_port:_ p ->
      got := Bytebuf.to_string p :: !got);
  Rt.Udp_link.bind link ~port:5401 (fun ~src:_ ~src_port:_ _ -> ());
  let k = 20 in
  send_burst link ~port:5400 ~from:5401 k;
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> List.length !got >= k));
  Alcotest.(check (list string)) "every datagram delivered" (burst k)
    (List.rev !got);
  let st = Rt.Udp_link.stats link in
  Alcotest.(check int) "one miss per drain" st.Rt.Udp_link.recv_batches
    st.Rt.Udp_link.recv_pool_misses;
  Pool.release pool held;
  Rt.Udp_link.close link

(* [set_peer] after first contact re-points the sockaddr's entry: the
   address it names now routes there and arrivals identify under it, the
   synthetic pair stops routing, and no second entry appears. *)
let test_udp_link_set_peer_repoints () =
  let loop = Rt.Loop.create () in
  let link_a = Rt.Udp_link.create ~loop () in
  let link_b = Rt.Udp_link.create ~loop () in
  let got_a = ref [] and got_b = ref [] in
  Rt.Udp_link.bind link_a ~port:6100 (fun ~src ~src_port p ->
      got_a := (src, src_port, Bytebuf.to_string p) :: !got_a);
  Rt.Udp_link.bind link_b ~port:6101 (fun ~src ~src_port p ->
      got_b := (src, src_port, Bytebuf.to_string p) :: !got_b);
  Rt.Udp_link.set_peer link_a ~addr:70 ~port:6101
    (Rt.Udp_link.local_sockaddr link_b ~port:6101);
  ignore
    (Rt.Udp_link.send link_a ~dst:70 ~dst_port:6101 ~src_port:6100
       (Bytebuf.of_string "first"));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_b <> []));
  let addr =
    match !got_b with
    | [ (s, 0, "first") ] -> s
    | _ -> Alcotest.fail "expected first contact on the synthetic port"
  in
  Rt.Udp_link.set_peer link_b ~addr ~port:6100
    (Rt.Udp_link.local_sockaddr link_a ~port:6100);
  Alcotest.(check bool) "the synthetic pair stops routing" false
    (Rt.Udp_link.send link_b ~dst:addr ~dst_port:0 ~src_port:6101
       (Bytebuf.of_string "x"));
  Alcotest.(check bool) "the address routes under its real port" true
    (Rt.Udp_link.send link_b ~dst:addr ~dst_port:6100 ~src_port:6101
       (Bytebuf.of_string "back"));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_a <> []));
  got_b := [];
  ignore
    (Rt.Udp_link.send link_a ~dst:70 ~dst_port:6101 ~src_port:6100
       (Bytebuf.of_string "again"));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !got_b <> []));
  (match !got_b with
  | [ (s, p, "again") ] ->
      Alcotest.(check int) "same address" addr s;
      Alcotest.(check int) "real port" 6100 p
  | _ -> Alcotest.fail "expected the again datagram");
  Rt.Udp_link.close link_a;
  Rt.Udp_link.close link_b

(* A second [bind] of a port replaces its handler on the same socket. *)
let test_udp_link_rebind_handler () =
  let loop = Rt.Loop.create () in
  let link = Rt.Udp_link.create ~loop () in
  let first = ref 0 and second = ref 0 in
  Rt.Udp_link.bind link ~port:5200 (fun ~src:_ ~src_port:_ _ -> incr first);
  let addr = Rt.Udp_link.local_addr link ~port:5200 in
  let sa = Rt.Udp_link.local_sockaddr link ~port:5200 in
  Rt.Udp_link.bind link ~port:5200 (fun ~src:_ ~src_port:_ _ -> incr second);
  Alcotest.(check bool) "same socket" true
    (Rt.Udp_link.local_sockaddr link ~port:5200 = sa
    && Rt.Udp_link.local_addr link ~port:5200 = addr);
  ignore
    (Rt.Udp_link.send link ~dst:addr ~dst_port:5200 ~src_port:5201
       (Bytebuf.of_string "hi"));
  ignore (Rt.Loop.run_until loop ~timeout:5.0 (fun () -> !second > 0));
  Alcotest.(check (pair int int)) "only the new handler runs" (0, 1)
    (!first, !second);
  Rt.Udp_link.close link

(* --- Backend-parametric transport suite --- *)

type world = {
  w_sched : Rt.Sched.t;
  w_io_a : Dgram.t;  (* sender substrate *)
  w_io_b : Dgram.t;  (* receiver substrate *)
  w_peer : unit -> Packet.addr;  (* receiver address, once bound *)
  w_run : timeout:float -> (unit -> bool) -> unit;
  w_pending : unit -> int;  (* live timers after quiescence *)
  w_horizon : float;
  w_teardown : unit -> unit;
}

let netsim_world ~loss () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:11L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~queue_limit:1024 ~bandwidth_bps:50e6 ~delay:0.002 ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
  {
    w_sched = Engine.sched engine;
    w_io_a = Dgram.of_udp ua;
    w_io_b = Dgram.of_udp ub;
    w_peer = (fun () -> 2);
    w_run =
      (fun ~timeout pred ->
        let deadline = Engine.now engine +. timeout in
        while (not (pred ())) && Engine.now engine < deadline do
          Engine.run ~until:(Engine.now engine +. 0.05) ~max_events:1_000_000
            engine
        done);
    w_pending = (fun () -> Engine.pending engine);
    w_horizon = 120.0;
    w_teardown = ignore;
  }

let rt_world ~loss () =
  let loop = Rt.Loop.create () in
  let link = Rt.Udp_link.create ~loop () in
  let io = Dgram.of_rt link in
  let io_a =
    Alf_chaos.Chaos.lossy_dgram ~rng:(Rng.create ~seed:12L) ~rate:loss io
  in
  {
    w_sched = Rt.Loop.sched loop;
    w_io_a = io_a;
    w_io_b = io;
    w_peer = (fun () -> Rt.Udp_link.local_addr link ~port:7000);
    w_run =
      (fun ~timeout pred -> ignore (Rt.Loop.run_until loop ~timeout pred));
    w_pending = (fun () -> Rt.Loop.pending_timers loop);
    w_horizon = 20.0;
    w_teardown = (fun () -> Rt.Udp_link.close link);
  }

(* One lossy transfer, any backend: everything delivered (recovery on),
   byte-exact, delivered ∪ gone = sent, and — the PR's leak regression —
   zero live timers once both ends have settled. *)
let transfer_suite mkworld () =
  let w = mkworld ~loss:0.05 () in
  let adus = 30 and adu_bytes = 900 in
  let payload i =
    String.init adu_bytes (fun j -> Char.chr (((i * 131) + j) land 0xff))
  in
  let delivered = ref 0 and mismatches = ref 0 in
  let receiver =
    Alf_transport.receiver_io ~sched:w.w_sched ~io:w.w_io_b ~port:7000
      ~stream:1 ~nack_interval:0.02 ~nack_holdoff:0.06 ~nack_budget:30
      ~adu_deadline:5.0 ~giveup_idle:1.0
      ~deliver:(fun adu ->
        incr delivered;
        if Bytebuf.to_string adu.Adu.payload <> payload adu.Adu.name.Adu.index
        then incr mismatches)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:w.w_sched ~io:w.w_io_a ~peer:(w.w_peer ())
      ~peer_port:7000 ~port:7001 ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  for i = 0 to adus - 1 do
    Alf_transport.send_adu sender
      (Adu.make (Adu.name ~stream:1 ~index:i ()) (Bytebuf.of_string (payload i)))
  done;
  Alf_transport.close sender;
  w.w_run ~timeout:w.w_horizon (fun () ->
      (Alf_transport.finished sender || Alf_transport.sender_gave_up sender)
      && (Alf_transport.complete receiver || Alf_transport.abandoned receiver));
  Alcotest.(check bool) "sender finished" true (Alf_transport.finished sender);
  Alcotest.(check bool) "receiver complete" true (Alf_transport.complete receiver);
  Alcotest.(check int) "all delivered" adus !delivered;
  Alcotest.(check int) "byte exact" 0 !mismatches;
  let settled = ref true in
  for i = 0 to adus - 1 do
    if not (Alf_transport.settled receiver i) then settled := false
  done;
  Alcotest.(check bool) "delivered union gone = sent" true !settled;
  Alcotest.(check int) "store released" 0 (Alf_transport.store_footprint sender);
  (* The timer-leak regression: a closed session must leave nothing
     armed — pace, close-retry and NACK timers all cancelled. *)
  Alcotest.(check int) "no timers survive completion" 0 (w.w_pending ());
  w.w_teardown ()

(* No callback runs after completion: once both ends settle, driving the
   backend for a long tail must not move a single receiver counter. *)
let test_no_callbacks_after_close () =
  let w = netsim_world ~loss:0.05 () in
  let receiver =
    Alf_transport.receiver_io ~sched:w.w_sched ~io:w.w_io_b ~port:7000
      ~stream:1 ~nack_interval:0.02 ~nack_holdoff:0.06 ~nack_budget:30
      ~deliver:(fun _ -> ())
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:w.w_sched ~io:w.w_io_a ~peer:(w.w_peer ())
      ~peer_port:7000 ~port:7001 ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  for i = 0 to 9 do
    Alf_transport.send_adu sender
      (Adu.make (Adu.name ~stream:1 ~index:i ()) (Bytebuf.of_string (String.make 500 'x')))
  done;
  Alf_transport.close sender;
  w.w_run ~timeout:60.0 (fun () ->
      Alf_transport.finished sender && Alf_transport.complete receiver);
  Alcotest.(check bool) "settled" true (Alf_transport.finished sender);
  Alcotest.(check int) "quiesced immediately" 0 (w.w_pending ());
  let nacks0 = (Alf_transport.receiver_stats receiver).Alf_transport.nacks_sent in
  (* A long idle tail: the leaked pace/close/NACK closures used to keep
     firing here forever. *)
  w.w_run ~timeout:60.0 (fun () -> false);
  Alcotest.(check int) "still quiesced" 0 (w.w_pending ());
  Alcotest.(check int) "no NACKs after completion" nacks0
    (Alf_transport.receiver_stats receiver).Alf_transport.nacks_sent

(* A long-lived in-order stream: the receiver's per-index tables and the
   reassembler's retired set must stay sized by the reordering window,
   not by the stream — the frontier retires state as it passes. *)
let test_receiver_tables_stay_flat () =
  let w = netsim_world ~loss:0.0 () in
  let adus = 300 and batch = 25 in
  let delivered = ref 0 in
  let receiver =
    Alf_transport.receiver_io ~sched:w.w_sched ~io:w.w_io_b ~port:7000
      ~stream:1 ~nack_interval:0.02 ~nack_holdoff:0.06 ~nack_budget:30
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:w.w_sched ~io:w.w_io_a ~peer:(w.w_peer ())
      ~peer_port:7000 ~port:7001 ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  let max_tables = ref 0 and max_retired = ref 0 in
  let sample () =
    let a, r = Alf_transport.receiver_table_sizes receiver in
    if a + r > !max_tables then max_tables := a + r;
    let ret = Alf_transport.receiver_retired_count receiver in
    if ret > !max_retired then max_retired := ret
  in
  for b = 0 to (adus / batch) - 1 do
    for i = b * batch to ((b + 1) * batch) - 1 do
      Alf_transport.send_adu sender
        (Adu.make
           (Adu.name ~stream:1 ~index:i ())
           (Bytebuf.of_string (String.make 400 'y')))
    done;
    w.w_run ~timeout:10.0 (fun () -> !delivered >= (b + 1) * batch);
    sample ()
  done;
  Alf_transport.close sender;
  w.w_run ~timeout:w.w_horizon (fun () ->
      Alf_transport.finished sender && Alf_transport.complete receiver);
  sample ();
  Alcotest.(check int) "all delivered" adus !delivered;
  Alcotest.(check int) "frontier swept the stream" adus
    (Alf_transport.receiver_frontier receiver);
  (* 300 ADUs through; state never exceeded a small reordering window. *)
  Alcotest.(check bool) "per-index tables stay flat" true (!max_tables <= 8);
  Alcotest.(check bool) "retired set stays flat" true (!max_retired <= 8);
  let a, r = Alf_transport.receiver_table_sizes receiver in
  Alcotest.(check (list int)) "tables empty at completion" [ 0; 0 ] [ a; r ];
  w.w_teardown ()

(* Sender teardown: every exit path — DONE, kill, give-up — must leave
   all three sender tables (outq, queued fragments, gone-announced) and
   the retransmission store empty. *)
let sender_tables name sender =
  let outq, frags, gone = Alf_transport.sender_table_sizes sender in
  Alcotest.(check (list int)) (name ^ ": sender tables cleared") [ 0; 0; 0 ]
    [ outq; frags; gone ];
  Alcotest.(check int) (name ^ ": store released") 0
    (Alf_transport.store_footprint sender)

let test_sender_teardown_on_done () =
  (* No_recovery under loss: NACKs are answered with GONE, so the
     gone-announced table is exercised before the DONE clears it. *)
  let w = netsim_world ~loss:0.1 () in
  let receiver =
    Alf_transport.receiver_io ~sched:w.w_sched ~io:w.w_io_b ~port:7000
      ~stream:1 ~nack_interval:0.02 ~nack_holdoff:0.06 ~nack_budget:30
      ~deliver:(fun _ -> ())
      ()
  in
  let sender =
    Alf_transport.sender_io ~sched:w.w_sched ~io:w.w_io_a ~peer:(w.w_peer ())
      ~peer_port:7000 ~port:7001 ~stream:1 ~policy:Recovery.No_recovery ()
  in
  for i = 0 to 19 do
    Alf_transport.send_adu sender
      (Adu.make (Adu.name ~stream:1 ~index:i ()) (Bytebuf.of_string (String.make 600 'z')))
  done;
  Alf_transport.close sender;
  w.w_run ~timeout:w.w_horizon (fun () ->
      Alf_transport.finished sender && Alf_transport.complete receiver);
  Alcotest.(check bool) "finished via DONE" true (Alf_transport.finished sender);
  sender_tables "done" sender;
  Alcotest.(check int) "no timers left" 0 (w.w_pending ())

let test_sender_teardown_on_kill () =
  let w = netsim_world ~loss:0.0 () in
  let sender =
    Alf_transport.sender_io ~sched:w.w_sched ~io:w.w_io_a ~peer:(w.w_peer ())
      ~peer_port:7000 ~port:7001 ~stream:1 ~policy:Recovery.Transport_buffer
      ~config:
        {
          Alf_transport.default_sender_config with
          Alf_transport.pace_bps = Some 10_000.0;
        }
      ()
  in
  for i = 0 to 9 do
    Alf_transport.send_adu sender
      (Adu.make (Adu.name ~stream:1 ~index:i ()) (Bytebuf.of_string (String.make 900 'k')))
  done;
  (* Pacing at 10 kbps: most of the queue is still waiting. *)
  let outq, frags, _ = Alf_transport.sender_table_sizes sender in
  Alcotest.(check bool) "work queued before the kill" true (outq + frags > 0);
  Alf_transport.kill_sender sender;
  sender_tables "kill" sender;
  Alf_transport.kill_sender sender (* idempotent *);
  sender_tables "kill twice" sender;
  (* The paced-send timers died with the session. *)
  w.w_run ~timeout:5.0 (fun () -> w.w_pending () = 0);
  Alcotest.(check int) "no timers left" 0 (w.w_pending ())

let test_sender_teardown_on_giveup () =
  (* Nobody bound at the far end: every CLOSE goes unanswered and the
     sender must eventually release everything on its own. *)
  let w = netsim_world ~loss:0.0 () in
  let sender =
    Alf_transport.sender_io ~sched:w.w_sched ~io:w.w_io_a ~peer:(w.w_peer ())
      ~peer_port:7000 ~port:7001 ~stream:1 ~policy:Recovery.Transport_buffer
      ~config:
        {
          Alf_transport.default_sender_config with
          Alf_transport.close_retry = 0.05;
          close_attempts = 3;
        }
      ()
  in
  for i = 0 to 4 do
    Alf_transport.send_adu sender
      (Adu.make (Adu.name ~stream:1 ~index:i ()) (Bytebuf.of_string (String.make 500 'g')))
  done;
  Alcotest.(check bool) "store holds the copies" true
    (Alf_transport.store_footprint sender > 0);
  Alf_transport.close sender;
  w.w_run ~timeout:w.w_horizon (fun () -> Alf_transport.sender_gave_up sender);
  Alcotest.(check bool) "gave up" true (Alf_transport.sender_gave_up sender);
  Alcotest.(check bool) "never finished" false (Alf_transport.finished sender);
  sender_tables "give-up" sender;
  Alcotest.(check int) "no timers left" 0 (w.w_pending ())

(* --- Reassembler: retired indices --- *)

let two_frag_adu ~index =
  let payload = Bytebuf.of_string (String.init 300 (fun i -> Char.chr (i land 0xff))) in
  let adu = Adu.make (Adu.name ~stream:1 ~index ()) payload in
  let frags = Framing.fragment ~mtu:200 adu in
  Alcotest.(check int) "fixture is two fragments" 2 (List.length frags);
  frags

(* Push one unsealed fragment datagram, read in place. *)
let push r dg =
  let v = Framing.view () in
  match Framing.read v None dg with
  | Framing.Valid -> Framing.push r v
  | _ -> Alcotest.fail "fragment does not read"

let test_reassembler_retired_duplicates () =
  let delivered = ref 0 in
  let r = Framing.reassembler ~deliver:(fun _ -> incr delivered) () in
  let frags = two_frag_adu ~index:0 in
  List.iter (push r) frags;
  Alcotest.(check int) "delivered once" 1 !delivered;
  let st = Framing.stats r in
  Alcotest.(check int) "completed" 1 st.Framing.completed;
  (* Late retransmissions of a completed ADU: counted and dropped before
     any buffer or copy work — no reopened partial, no reallocation. *)
  let created0 = Bytebuf.created_total () in
  List.iter (push r) frags;
  List.iter (push r) frags;
  Alcotest.(check int) "no re-delivery" 1 !delivered;
  Alcotest.(check int) "duplicates counted" 4 st.Framing.duplicate_frags;
  Alcotest.(check int) "no partial reopened" 0 (Framing.pending_adus r);
  Alcotest.(check int) "completed unchanged" 1 st.Framing.completed;
  Alcotest.(check int) "zero byte-touch: no buffers created" created0
    (Bytebuf.created_total ())

let test_reassembler_forget_retires () =
  let delivered = ref 0 in
  let r = Framing.reassembler ~deliver:(fun _ -> incr delivered) () in
  let frags = two_frag_adu ~index:7 in
  push r (List.hd frags);
  Alcotest.(check int) "partial open" 1 (Framing.pending_adus r);
  Framing.forget r ~index:7;
  Alcotest.(check int) "partial dropped" 0 (Framing.pending_adus r);
  (* The straggler that raced the gone-declaration must not reopen it. *)
  List.iter (push r) frags;
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "no partial reopened" 0 (Framing.pending_adus r);
  Alcotest.(check int) "stragglers counted as duplicates" 2
    (Framing.stats r).Framing.duplicate_frags

let () =
  Alcotest.run "rt"
    [
      ( "timerwheel",
        [
          qcheck prop_timers_match_model;
          Alcotest.test_case "same-deadline FIFO" `Quick
            test_wheel_fifo_same_deadline;
          Alcotest.test_case "past deadline clamps, never overtakes" `Quick
            test_wheel_clamp_never_overtakes;
          Alcotest.test_case "cancellation" `Quick test_wheel_cancel;
          Alcotest.test_case "slot rotation" `Quick test_wheel_rotation;
          Alcotest.test_case "reschedule inside advance" `Quick
            test_wheel_reschedule_in_callback;
        ] );
      ( "sched-contract",
        [
          Alcotest.test_case "engine zero/negative delay FIFO" `Quick
            test_engine_sched_fifo;
          Alcotest.test_case "loop zero/negative delay FIFO" `Quick
            test_loop_sched_fifo;
        ] );
      ( "loop",
        [
          Alcotest.test_case "timers and readable fds" `Quick test_loop_readable;
          Alcotest.test_case "words: run_until whose predicate holds" `Quick
            test_loop_words_pred_holds;
          Alcotest.test_case "words: one wakeup draining 20 datagrams" `Quick
            test_loop_words_one_wakeup;
          Alcotest.test_case "words: a zero-delay timer, scheduled and fired"
            `Quick test_loop_words_zero_delay_timer;
        ] );
      ( "udp-link",
        [
          Alcotest.test_case "loopback round trip" `Quick test_udp_link_roundtrip;
          Alcotest.test_case "first contact, then upgrade in place" `Quick
            test_udp_link_first_contact_upgrade;
          Alcotest.test_case "words per send and receive" `Quick
            test_udp_link_words;
          Alcotest.test_case "one staging buffer per drain" `Quick
            test_udp_link_staging_per_drain;
          Alcotest.test_case "capped pool: one miss per drain" `Quick
            test_udp_link_capped_pool;
          Alcotest.test_case "set_peer re-points after first contact" `Quick
            test_udp_link_set_peer_repoints;
          Alcotest.test_case "second bind replaces the handler" `Quick
            test_udp_link_rebind_handler;
        ] );
      ( "transport-backends",
        [
          Alcotest.test_case "lossy transfer over netsim" `Quick
            (transfer_suite netsim_world);
          Alcotest.test_case "lossy transfer over loopback UDP" `Quick
            (transfer_suite rt_world);
          Alcotest.test_case "no callback runs after close" `Quick
            test_no_callbacks_after_close;
          Alcotest.test_case "streaming receiver tables stay flat" `Quick
            test_receiver_tables_stay_flat;
        ] );
      ( "sender-teardown",
        [
          Alcotest.test_case "DONE clears every table" `Quick
            test_sender_teardown_on_done;
          Alcotest.test_case "kill clears every table" `Quick
            test_sender_teardown_on_kill;
          Alcotest.test_case "give-up clears every table" `Quick
            test_sender_teardown_on_giveup;
        ] );
      ( "reassembler",
        [
          Alcotest.test_case "retired index swallows duplicates" `Quick
            test_reassembler_retired_duplicates;
          Alcotest.test_case "forget retires the index" `Quick
            test_reassembler_forget_retires;
        ] );
    ]
