open Bufkit
open Netsim
open Alf_core

type policy = Transport_buffer | App_recompute | App_recompute_partial | No_recovery

let policy_name = function
  | Transport_buffer -> "buffer"
  | App_recompute -> "recompute"
  | App_recompute_partial -> "recompute-partial"
  | No_recovery -> "none"

type case = {
  label : string;
  seed : int64;
  adus : int;
  adu_bytes : int;
  impair : Impair.t;
  impair_back : Impair.t;
  corrupt_e2e : float;
  policy : policy;
  fec : bool;
  secure : bool;
  rekey_at : int;
  corrupt_tag : float;
  events : Chaos.event list;
  horizon : float;
}

type invariants = {
  quiesced : bool;
  accounted : bool;
  byte_exact : bool;
  footprint_zero : bool;
  counters_consistent : bool;
  stage1_clean : bool;
}

type outcome = {
  case : case;
  inv : invariants;
  delivered : int;
  gone_sender : int;
  gone_local : int;
  corrupt_dropped : int;
  auth_dropped : int;
  nacks_sent : int;
  retransmits : int;
  fec_activated : bool;
  end_time : float;
}

let ok o =
  o.inv.quiesced && o.inv.accounted && o.inv.byte_exact
  && o.inv.footprint_zero && o.inv.counters_consistent && o.inv.stage1_clean

(* Payloads are recomputable from (seed, index, offset) alone, so the
   byte-exact check needs no copy of what was sent — and the
   App_recompute policy regenerates the identical ADU. *)
let payload_byte ~seed ~index ~offset =
  (Int64.to_int seed land 0xff) + (index * 131) + (offset * 7) land 0xff

let expected_payload case index =
  String.init case.adu_bytes (fun j ->
      Char.chr (payload_byte ~seed:case.seed ~index ~offset:j land 0xff))

let make_adu case index =
  Adu.make
    (Adu.name ~dest_off:(index * case.adu_bytes) ~dest_len:case.adu_bytes
       ~stream:1 ~index ())
    (Bytebuf.of_string (expected_payload case index))

(* Both ends of a secure case derive the same base key from the seed;
   each side gets its own Record (fresh epoch counter, own scratch). *)
let record_of case =
  if case.secure then
    Some (Secure.Record.of_int64 (Int64.add case.seed 7L))
  else None

(* Regeneration must reproduce the original wire bytes: seal under the
   epoch the ADU was first sent with (indices at or past [rekey_at] went
   out after the roll), or receiver partials could mix fragments of two
   incarnations. *)
let recompute_encode case rc i =
  let adu = make_adu case i in
  let adu =
    match rc with
    | Some rc ->
        let epoch =
          if case.rekey_at >= 0 && i >= case.rekey_at then 1 else 0
        in
        Secure.Record.seal_adu ~epoch rc adu
    | None -> adu
  in
  Adu.encode adu

let killed_in_plan case =
  List.exists
    (function Chaos.Kill_sender _ -> true | _ -> false)
    case.events

(* What a backend supplies to [drive]. Everything else — counter
   baselines, both endpoints, the policy mapping, the send loop, the
   invariants and the outcome — is one code path for the simulator and
   for real sockets. *)
type substrate = {
  sched : Rt.Sched.t;
  tx_io : Dgram.t;  (* the sender's datagram seam *)
  rx_io : Dgram.t;  (* the receiver's, below the above-checksum corruption *)
  peer : unit -> Packet.addr;  (* asked once the receiver has bound *)
  faults : (unit -> unit) -> unit;
      (* schedule the case's events, given the sender kill switch *)
  run : (unit -> bool) -> bool;
      (* run to the horizon (the real-socket loop may stop once both
         ends have settled), then report quiescence *)
  now : unit -> float;
}

let drive case sub =
  (* Counters are global and shared across cases: invariants compare this
     run's deltas against the endpoint stats records. *)
  let c_delivered = Obs.Registry.counter "alf.receiver.adus_delivered" in
  let c_nacks = Obs.Registry.counter "alf.receiver.nacks_sent" in
  let c_corrupt = Obs.Registry.counter "alf.receiver.frags_corrupt_dropped" in
  let c_gone_local = Obs.Registry.counter "alf.receiver.adus_gone_deadline" in
  let c_auth = Obs.Registry.counter "alf.receiver.auth_dropped" in
  let base_delivered = Obs.Counter.value c_delivered in
  let base_nacks = Obs.Counter.value c_nacks in
  let base_corrupt = Obs.Counter.value c_corrupt in
  let base_gone_local = Obs.Counter.value c_gone_local in
  let base_auth = Obs.Counter.value c_auth in
  let mismatches = ref 0 in
  let rc_tx = record_of case and rc_rx = record_of case in
  (* The receiver's substrate is wrapped with above-checksum corruption:
     UDP filters in-flight damage itself, so this is the only way a
     corrupted transmission unit ever reaches the ALF integrity check.
     [auth_corrupting_dgram] goes one deadlier: it re-trues the CRCs
     over a flipped tag bit, so only the record open can object. *)
  let io_b =
    Chaos.auth_corrupting_dgram
      ~rng:(Rng.create ~seed:(Int64.add case.seed 5L))
      ~rate:case.corrupt_tag ~integrity:(Some Checksum.Kind.Crc32)
      (Chaos.corrupting_dgram
         ~rng:(Rng.create ~seed:(Int64.add case.seed 2L))
         ~rate:case.corrupt_e2e sub.rx_io)
  in
  let receiver =
    Alf_transport.receiver_io ~sched:sub.sched ~io:io_b ~port:7000 ~stream:1
      ~nack_interval:0.02 ~nack_holdoff:0.06 ~nack_budget:30
      ~adu_deadline:5.0 ~giveup_idle:1.0
      ~seed:(Int64.add case.seed 1L) ?secure:rc_rx
      ~deliver:(fun adu ->
        let i = adu.Adu.name.Adu.index in
        if Bytebuf.to_string adu.Adu.payload <> expected_payload case i then
          incr mismatches)
      ()
  in
  let policy =
    match case.policy with
    | Transport_buffer -> Recovery.Transport_buffer
    | App_recompute ->
        Recovery.App_recompute (fun i -> Some (recompute_encode case rc_tx i))
    | App_recompute_partial ->
        (* Odd indices cannot be recomputed: the sender must declare them
           gone — the Recovery.recall = Gone path under real impairment. *)
        Recovery.App_recompute
          (fun i ->
            if i land 1 = 0 then Some (recompute_encode case rc_tx i) else None)
    | No_recovery -> Recovery.No_recovery
  in
  let config =
    {
      Alf_transport.default_sender_config with
      Alf_transport.pace_bps = Some 20e6;
      fec_loss_threshold = (if case.fec then 0.01 else 2.0);
      fec_k = 4;
    }
  in
  let sender =
    Alf_transport.sender_io ~sched:sub.sched ~io:sub.tx_io ~peer:(sub.peer ())
      ~peer_port:7000 ~port:7001 ~stream:1 ~policy ?secure:rc_tx ~config ()
  in
  sub.faults (fun () -> Alf_transport.kill_sender sender);
  for i = 0 to case.adus - 1 do
    (* The mid-stream rekey: ADUs before [rekey_at] are sealed (and, under
       Transport_buffer, retransmitted) at epoch e, the rest at e+1 —
       repairs of old units race the receiver's rolled-forward window. *)
    if case.rekey_at = i then
      Option.iter Secure.Record.rekey rc_tx;
    Alf_transport.send_adu sender (make_adu case i)
  done;
  Alf_transport.close sender;
  let killed = killed_in_plan case in
  let quiesced =
    sub.run (fun () ->
        (Alf_transport.finished sender
        || Alf_transport.sender_gave_up sender
        || killed)
        && (Alf_transport.complete receiver || Alf_transport.abandoned receiver))
  in
  let r_stats = Alf_transport.receiver_stats receiver in
  let s_stats = Alf_transport.sender_stats sender in
  let all_settled = ref true in
  for i = 0 to case.adus - 1 do
    if not (Alf_transport.settled receiver i) then all_settled := false
  done;
  let accounted =
    if killed then
      (* The receiver cannot account for ADUs it never heard named; it
         must still have settled everything it knows about and stopped. *)
      Alf_transport.missing receiver = []
      && (Alf_transport.complete receiver || Alf_transport.abandoned receiver)
    else !all_settled && Alf_transport.complete receiver
  in
  let inv =
    {
      quiesced;
      accounted;
      byte_exact = !mismatches = 0;
      footprint_zero = Alf_transport.store_footprint sender = 0;
      counters_consistent =
        Obs.Counter.value c_delivered - base_delivered
          = r_stats.Alf_transport.adus_delivered
        && Obs.Counter.value c_nacks - base_nacks
           = r_stats.Alf_transport.nacks_sent
        && Obs.Counter.value c_corrupt - base_corrupt
           = r_stats.Alf_transport.frags_corrupt_dropped
        && Obs.Counter.value c_gone_local - base_gone_local
           = r_stats.Alf_transport.adus_gone_local
        && Obs.Counter.value c_auth - base_auth
           = r_stats.Alf_transport.adus_auth_dropped;
      stage1_clean =
        (Alf_transport.reassembly_stats receiver).Framing.corrupt_adus = 0;
    }
  in
  {
    case;
    inv;
    delivered = r_stats.Alf_transport.adus_delivered;
    gone_sender = r_stats.Alf_transport.adus_lost;
    gone_local = r_stats.Alf_transport.adus_gone_local;
    corrupt_dropped = r_stats.Alf_transport.frags_corrupt_dropped;
    auth_dropped = r_stats.Alf_transport.adus_auth_dropped;
    nacks_sent = r_stats.Alf_transport.nacks_sent;
    retransmits = s_stats.Alf_transport.adus_retransmitted;
    fec_activated = Alf_transport.fec_active sender;
    end_time = sub.now ();
  }

(* The simulator: impairment and link faults live in the two-node
   topology, and quiescence means the event queue drained before the
   virtual-time horizon. *)
let run case =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:case.seed in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:case.impair
      ~impair_back:case.impair_back ~queue_limit:1024 ~bandwidth_bps:50e6
      ~delay:0.005 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  drive case
    {
      sched = Netsim.Engine.sched engine;
      tx_io = Dgram.of_udp ua;
      rx_io = Dgram.of_udp ub;
      peer = (fun () -> 2);
      faults =
        (fun kill_sender ->
          Chaos.schedule ~engine ~net ~kill_sender
            { Chaos.seed = case.seed; events = case.events });
      run =
        (fun _settled ->
          Engine.run ~until:case.horizon ~max_events:20_000_000 engine;
          Engine.pending engine = 0);
      now = (fun () -> Engine.now engine);
    }

(* --- The same transfer over real sockets ---

   One [Rt.Loop], one [Rt.Udp_link], both endpoints in-process on
   127.0.0.1. The link cannot drop or corrupt in flight, so the case's
   impairment model is applied at the datagram seam instead:
   [Chaos.lossy_dgram] on each side's sends ([impair].loss forward,
   [impair_back].loss backward) and [Chaos.corrupting_dgram] above the
   receiver, exactly as in the simulator runs. Link-level events
   (outages, bursts) have no real-socket hook and are skipped;
   [Kill_sender] fires off a wall-clock timer. [horizon] and [end_time]
   are wall seconds. *)

let run_udp case =
  let loop = Rt.Loop.create () in
  let sched = Rt.Loop.sched loop in
  let link = Rt.Udp_link.create ~loop () in
  let base_io = Dgram.of_rt link in
  let lossy seed rate =
    let rng = Rng.create ~seed:(Int64.add case.seed seed) in
    Chaos.lossy_dgram ~rng ~rate base_io
  in
  drive case
    {
      sched;
      tx_io = lossy 3L case.impair.Impair.loss;
      rx_io = lossy 4L case.impair_back.Impair.loss;
      peer = (fun () -> Rt.Udp_link.local_addr link ~port:7000);
      faults =
        (fun kill_sender ->
          List.iter
            (function
              | Chaos.Kill_sender { at } ->
                  ignore (Rt.Sched.schedule_after sched at kill_sender)
              | Chaos.Link_down _ | Chaos.Burst_impair _ | Chaos.Pool_squeeze _
              | Chaos.Worker_fault _ ->
                  ())
            case.events);
      run =
        (fun settled ->
          ignore (Rt.Loop.run_until loop ~timeout:case.horizon settled);
          (* One more beat so crossing DONE/CLOSE datagrams drain and the
             endpoints disarm their timers. *)
          Rt.Loop.run_for loop 0.05;
          let quiesced = settled () && Rt.Loop.pending_timers loop = 0 in
          Rt.Udp_link.close link;
          quiesced);
      now = (fun () -> Rt.Loop.now loop);
    }

(* --- The matrix --- *)

let hostile =
  Impair.make ~loss:0.3 ~corrupt:0.05 ~duplicate:0.05 ~reorder:0.2
    ~jitter:0.005 ()

(* (name, forward impair, backward impair, above-checksum corruption) —
   hostile adds the e2e corruption the ALF trailer exists to catch. *)
let impairments =
  [
    ("clean", Impair.none, Impair.none, 0.0);
    ("lossy", Impair.lossy 0.1, Impair.lossy 0.1, 0.0);
    ("hostile", hostile, hostile, 0.05);
  ]

let base_case ~seed ~adus ~adu_bytes ~horizon ?(corrupt_e2e = 0.0)
    ?(secure = false) ?(rekey_at = -1) ?(corrupt_tag = 0.0) ~label ~impair
    ~impair_back ~policy ~fec ~events () =
  {
    label;
    seed;
    adus;
    adu_bytes;
    impair;
    impair_back;
    corrupt_e2e;
    policy;
    fec;
    secure;
    rekey_at;
    corrupt_tag;
    events;
    horizon;
  }

let matrix ?(smoke = false) ~seed () =
  let adus = if smoke then 12 else 40 in
  let adu_bytes = if smoke then 1200 else 3000 in
  let horizon = if smoke then 60.0 else 240.0 in
  let mk = base_case ~seed ~adus ~adu_bytes ~horizon in
  let impairments =
    if smoke then List.filter (fun (n, _, _, _) -> n = "hostile") impairments
    else impairments
  in
  let sweep =
    List.concat_map
      (fun (iname, impair, impair_back, corrupt_e2e) ->
        List.concat_map
          (fun policy ->
            List.map
              (fun fec ->
                mk
                  ~label:
                    (Printf.sprintf "%s/%s%s" iname (policy_name policy)
                       (if fec then "+fec" else ""))
                  ~impair ~impair_back ~corrupt_e2e ~policy ~fec ~events:[] ())
              (if smoke && policy <> Transport_buffer then [ false ]
               else [ false; true ]))
          [ Transport_buffer; App_recompute; No_recovery ])
      impairments
  in
  (* The record-layer cases: a mid-stream rekey racing loss-driven
     retransmissions (the two-epoch window absorbs both the stored
     old-epoch repairs and the recall-time re-seals), and tag-targeted
     corruption that every checksum vouches for — only the record open
     may catch it, as counted auth drops repaired like loss. *)
  let secure_cases =
    [
      mk ~label:"hostile/secure-buffer+rekey" ~impair:hostile
        ~impair_back:hostile ~corrupt_e2e:0.05 ~policy:Transport_buffer
        ~fec:false ~secure:true ~rekey_at:(adus / 2) ~events:[] ();
      mk ~label:"hostile/secure-recompute+rekey" ~impair:hostile
        ~impair_back:hostile ~corrupt_e2e:0.05 ~policy:App_recompute
        ~fec:false ~secure:true ~rekey_at:(adus / 2) ~events:[] ();
      mk ~label:"lossy/secure+tagflip" ~impair:(Impair.lossy 0.1)
        ~impair_back:(Impair.lossy 0.1) ~policy:Transport_buffer ~fec:false
        ~secure:true ~corrupt_tag:0.08 ~events:[] ();
    ]
  in
  let faults =
    [
      mk ~label:"hostile/recompute-partial" ~impair:hostile
        ~impair_back:hostile ~corrupt_e2e:0.05 ~policy:App_recompute_partial
        ~fec:false ~events:[] ();
      mk ~label:"lossy/buffer+kill" ~impair:(Impair.lossy 0.1)
        ~impair_back:(Impair.lossy 0.1) ~policy:Transport_buffer ~fec:false
        ~events:[ Chaos.Kill_sender { at = 0.05 } ] ();
      mk ~label:"clean/buffer+outage" ~impair:Impair.none
        ~impair_back:Impair.none ~policy:Transport_buffer ~fec:false
        ~events:
          [ Chaos.Link_down { dir = Chaos.Forward; at = 0.01; duration = 0.3 } ]
        ();
      mk ~label:"clean/buffer+burst" ~impair:Impair.none
        ~impair_back:Impair.none ~policy:Transport_buffer ~fec:false
        ~events:
          [
            Chaos.Burst_impair
              {
                dir = Chaos.Both;
                at = 0.01;
                duration = 0.4;
                impair = Impair.make ~loss:0.6 ~corrupt:0.1 ();
              };
          ]
        ();
    ]
  in
  sweep
  @ (if smoke then [ List.hd secure_cases; List.nth secure_cases 2 ]
     else secure_cases)
  @ if smoke then [ List.nth faults 1 ] else faults

let outcome_json o =
  let b v = Obs.Json.Bool v in
  let i v = Obs.Json.num_of_int v in
  Obs.Json.Obj
    [
      ("label", Obs.Json.Str o.case.label);
      ("seed", Obs.Json.Str (Int64.to_string o.case.seed));
      ("policy", Obs.Json.Str (policy_name o.case.policy));
      ("fec", b o.case.fec);
      ("secure", b o.case.secure);
      ("rekey_at", i o.case.rekey_at);
      ("ok", b (ok o));
      ("quiesced", b o.inv.quiesced);
      ("accounted", b o.inv.accounted);
      ("byte_exact", b o.inv.byte_exact);
      ("footprint_zero", b o.inv.footprint_zero);
      ("counters_consistent", b o.inv.counters_consistent);
      ("stage1_clean", b o.inv.stage1_clean);
      ("delivered", i o.delivered);
      ("gone_sender", i o.gone_sender);
      ("gone_local", i o.gone_local);
      ("corrupt_dropped", i o.corrupt_dropped);
      ("auth_dropped", i o.auth_dropped);
      ("nacks_sent", i o.nacks_sent);
      ("retransmits", i o.retransmits);
      ("fec_activated", b o.fec_activated);
      ("end_time", Obs.Json.Num o.end_time);
    ]

let to_json outcomes =
  Obs.Json.Obj
    [
      ("ok", Obs.Json.Bool (List.for_all ok outcomes));
      ("cases", Obs.Json.Arr (List.map outcome_json outcomes));
    ]

let write_json path outcomes =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string_pretty (to_json outcomes));
  output_char oc '\n';
  close_out oc

let run_matrix ?smoke ~seed () = List.map run (matrix ?smoke ~seed ())

(* Horizons are wall seconds here, so the UDP matrix is a focused subset:
   every recovery policy under loss, end-to-end corruption, and a
   mid-transfer sender kill. Link-level faults (outage, burst) only exist
   in the simulator and stay in {!matrix}. *)
let udp_matrix ?(smoke = false) ~seed () =
  let adus = if smoke then 12 else 40 in
  let adu_bytes = if smoke then 1200 else 3000 in
  let horizon = 20.0 in
  let mk = base_case ~seed ~adus ~adu_bytes ~horizon in
  let lossy = Impair.lossy 0.1 in
  let cases =
    [
      mk ~label:"udp/clean/buffer" ~impair:Impair.none ~impair_back:Impair.none
        ~policy:Transport_buffer ~fec:false ~events:[] ();
      mk ~label:"udp/lossy/buffer" ~impair:lossy ~impair_back:lossy
        ~policy:Transport_buffer ~fec:false ~events:[] ();
      mk ~label:"udp/lossy/recompute" ~impair:lossy ~impair_back:lossy
        ~policy:App_recompute ~fec:false ~events:[] ();
      mk ~label:"udp/corrupt/buffer" ~impair:Impair.none
        ~impair_back:Impair.none ~corrupt_e2e:0.05 ~policy:Transport_buffer
        ~fec:false ~events:[] ();
      mk ~label:"udp/lossy/none" ~impair:lossy ~impair_back:lossy
        ~policy:No_recovery ~fec:false ~events:[] ();
      mk ~label:"udp/lossy/buffer+kill" ~impair:lossy ~impair_back:lossy
        ~policy:Transport_buffer ~fec:false
        ~events:[ Chaos.Kill_sender { at = 0.05 } ] ();
      mk ~label:"udp/secure/rekey+tagflip" ~impair:lossy ~impair_back:lossy
        ~policy:Transport_buffer ~fec:false ~secure:true ~rekey_at:(adus / 2)
        ~corrupt_tag:0.05 ~events:[] ();
    ]
  in
  if smoke then
    List.filter
      (fun c ->
        List.mem c.label
          [
            "udp/clean/buffer";
            "udp/lossy/buffer";
            "udp/lossy/buffer+kill";
            "udp/secure/rekey+tagflip";
          ])
      cases
  else cases

let run_udp_matrix ?smoke ~seed () = List.map run_udp (udp_matrix ?smoke ~seed ())

let pp_outcome ppf o =
  Format.fprintf ppf
    "%-28s %s  delivered=%d gone=%d+%d corrupt_dropped=%d auth_dropped=%d \
     nacks=%d retx=%d%s"
    o.case.label
    (if ok o then "OK " else "FAIL")
    o.delivered o.gone_sender o.gone_local o.corrupt_dropped o.auth_dropped
    o.nacks_sent o.retransmits
    (if o.fec_activated then " fec" else "")
