open Bufkit
open Netsim

(* Wire dialect — control tags, integrity trailer, message codecs — lives
   in {!Ctl}, shared with the sharded {!Serve} engine; the data datagram
   layout lives in {!Adu} and {!Framing}. *)

type sender_config = {
  mtu : int;
  pace_bps : float option;
  close_retry : float;
  close_attempts : int;
  integrity : Checksum.Kind.t option;
  fec_k : int;
  fec_loss_threshold : float;
}

let default_sender_config =
  {
    mtu = 1472;
    pace_bps = None;
    close_retry = 0.05;
    close_attempts = 64;
    integrity = Some Checksum.Kind.Crc32;
    fec_k = 4;
    fec_loss_threshold = 2.0;
  }

let fec_enabled c = c.fec_loss_threshold <= 1.0 && c.fec_k >= 2

let trailer c = match c.integrity with Some _ -> Ctl.trailer_size | None -> 0

(* Wire budget left for a fragment once the trailer (and, when FEC may
   activate mid-stream, the FEC tag + header + length prefix) is
   reserved. Reserved up front so fragment sizes do not change when FEC
   switches on. *)
let frag_budget c =
  c.mtu - trailer c - if fec_enabled c then 1 + Fec.header_size + 2 else 0

type sender_stats = {
  mutable adus_sent : int;
  mutable frags_sent : int;
  mutable bytes_sent : int;
  mutable nacks_received : int;
  mutable adus_retransmitted : int;
  mutable bytes_retransmitted : int;
  mutable adus_gone : int;
  mutable store_peak : int;
  mutable nack_backoff_resets : int;
}

(* The output queue is a ring of sealed datagrams: slot [i] holds
   [len] bytes at the front of [dg], for ADU [idx]. A [pooled] buffer
   goes back to the sender's tx pool once the send has handed its bytes
   to the substrate ([Dgram.send] borrows them only for the call). Slots
   are reused, so queueing a datagram allocates nothing. *)
type slot = {
  mutable dg : Bytebuf.t;
  mutable len : int;
  mutable idx : int;
  mutable pooled : bool;
}

let empty_slot () = { dg = Bytebuf.empty; len = 0; idx = 0; pooled = false }

(* Registry handles, resolved once at module initialisation: a send, a
   datagram or a delivery bumps a counter and never looks one up. *)
let tx_counter name = Obs.Registry.counter ("alf.sender." ^ name)
let tx_adus_sent = tx_counter "adus_sent"
let tx_bytes_sent = tx_counter "bytes_sent"
let tx_store_peak = Obs.Registry.gauge "alf.sender.store_peak_bytes"
let tx_nacks_received = tx_counter "nacks_received"
let tx_backoff_resets = tx_counter "nack_backoff_resets"
let tx_fec_activated = tx_counter "fec_activated"
let tx_retransmits = tx_counter "retransmits"
let tx_bytes_retransmitted = tx_counter "bytes_retransmitted"
let tx_adus_gone = tx_counter "adus_gone"
let tx_close_gave_up = tx_counter "close_gave_up"
let tx_ctl_corrupt = tx_counter "ctl_corrupt_dropped"
let tx_killed = tx_counter "killed"

type sender = {
  sched : Rt.Sched.t;
  io : Dgram.t;
  peer : Packet.addr;
  peer_port : int;
  port : int;
  stream : int;
  store : Recovery.store;
  config : sender_config;
  stats : sender_stats;
  s_secure : Secure.Record.t option;  (* AEAD record layer, when keyed *)
  tx_pool : Pool.t option;  (* pooled datagram buffers *)
  pool_buf : int;  (* the pool's buffer size; 0 without a pool *)
  mutable ring : slot array;  (* the output queue *)
  mutable head : int;
  mutable queued : int;
  mutable scratch : Bytebuf.t;  (* multi-fragment ADUs and control *)
  queued_frags : (int, int) Hashtbl.t;  (* blocks still queued per index *)
  mutable pacing : bool;  (* a pace event is scheduled *)
  mutable pace_cb : unit -> unit;  (* [pace] on this sender, made once *)
  mutable pace_timer : Rt.Sched.timer option;
  mutable close_timer : Rt.Sched.timer option;
  mutable max_index : int;
  mutable closing : bool;
  mutable done_received : bool;
  mutable close_sent : int;  (* CLOSE transmissions so far *)
  mutable close_shift : int;  (* exponential backoff exponent, capped *)
  mutable s_gave_up : bool;  (* CLOSE budget exhausted, store released *)
  mutable s_killed : bool;  (* chaos: the sending process died *)
  mutable loss_ewma : float;  (* loss estimate from NACK volume *)
  mutable fec_on : bool;  (* sticky once the estimate crosses threshold *)
  mutable next_fec_group : int;  (* monotone across batches, mod 0x10000 *)
  mutable gone_announced : (int, unit) Hashtbl.t;
  mutable s_tracer : (string -> unit) option;
  s_view : Framing.view;  (* the reader's view of each control datagram *)
  (* The compiled transmit plans: [send_adu]'s over a copy of the
     payload, and [send_value]'s behind a marshal source, for the caller
     plan [value_plan]. Each ends in the record seal (when keyed), a
     CRC-32 and the delivering store, and is compiled at its first use. *)
  mutable adu_inst : Ilp.instance option;
  mutable value_inst : Ilp.instance option;
  mutable value_plan : Ilp.plan;
}

let trace tracer fmt =
  match tracer with
  | None -> Format.ikfprintf (fun _ -> ()) Format.std_formatter fmt
  | Some emit -> Format.kasprintf emit fmt

let strace s fmt = trace s.s_tracer fmt

let set_sender_tracer s f = s.s_tracer <- Some f
let sender_stats s = s.stats

let sender_table_sizes s =
  ( s.queued,
    Hashtbl.length s.queued_frags,
    Hashtbl.length s.gone_announced )
let store_footprint s = Recovery.footprint s.store
let finished s = s.done_received
let sender_gave_up s = s.s_gave_up
let fec_active s = s.fec_on

(* A scratch buffer of at least [n] bytes, grown geometrically. Its
   contents are dead between calls: whatever is marshalled or written
   into it is copied into datagrams, or sent, before the call returns. *)
let scratch s n =
  if Bytebuf.length s.scratch < n then
    s.scratch <- Bytebuf.create (max n (2 * Bytebuf.length s.scratch));
  s.scratch

let send_sealed s buf len =
  if not s.s_killed then
    ignore
      (s.io.Dgram.send ~dst:s.peer ~dst_port:s.peer_port ~src_port:s.port
         (if Bytebuf.length buf = len then buf else Bytebuf.take buf len))

(* Control goes out at once, written and sealed in the scratch buffer. *)
let send_ctl_now s ~room write =
  let buf = scratch s (room + Ctl.trailer_size) in
  send_sealed s buf (Ctl.seal_in_place s.config.integrity buf ~len:(write buf))

(* The free slot at the ring's tail, holding a buffer with room for a
   [dlen]-byte datagram: pooled when the pool has one that fits, else
   fresh. Not queued until {!commit}. *)
let reserve s ~dlen =
  if s.queued = Array.length s.ring then begin
    let n = Array.length s.ring in
    s.ring <-
      Array.init (2 * n) (fun i ->
          if i < n then s.ring.((s.head + i) mod n) else empty_slot ());
    s.head <- 0
  end;
  let sl = s.ring.((s.head + s.queued) mod Array.length s.ring) in
  sl.pooled <-
    (match s.tx_pool with
    | Some pool when s.pool_buf >= dlen -> (
        match Pool.acquire pool with
        | b ->
            sl.dg <- b;
            true
        | exception Pool.Exhausted -> false)
    | _ -> false);
  if not sl.pooled then sl.dg <- Bytebuf.create dlen;
  sl

let release_slot s sl =
  (match s.tx_pool with
  | Some pool when sl.pooled -> Pool.release pool sl.dg
  | _ -> ());
  sl.dg <- Bytebuf.empty

let commit s sl ~index ~len =
  sl.idx <- index;
  sl.len <- len;
  s.queued <- s.queued + 1;
  match Hashtbl.find s.queued_frags index with
  | n -> Hashtbl.replace s.queued_frags index (n + 1)
  | exception Not_found -> Hashtbl.add s.queued_frags index 1

let dequeue_and_send s =
  let sl = s.ring.(s.head) in
  s.head <- (s.head + 1) mod Array.length s.ring;
  s.queued <- s.queued - 1;
  (match Hashtbl.find s.queued_frags sl.idx with
  | n when n > 1 -> Hashtbl.replace s.queued_frags sl.idx (n - 1)
  | _ -> Hashtbl.remove s.queued_frags sl.idx
  | exception Not_found -> ());
  send_sealed s sl.dg sl.len;
  release_slot s sl;
  sl.len

let pace s =
  match (s.queued = 0, s.config.pace_bps) with
  | true, _ ->
      s.pacing <- false;
      s.pace_timer <- None
  | false, None ->
      (* Unpaced: drain everything now. *)
      while s.queued > 0 do
        ignore (dequeue_and_send s)
      done;
      s.pacing <- false;
      s.pace_timer <- None
  | false, Some rate ->
      let sent_len = dequeue_and_send s in
      let gap = 8.0 *. float_of_int sent_len /. rate in
      s.pace_timer <- Some (Rt.Sched.schedule_after s.sched gap s.pace_cb)

let kick s =
  if not s.pacing then begin
    s.pacing <- true;
    s.pace_timer <- Some (Rt.Sched.schedule_after s.sched 0.0 s.pace_cb)
  end

(* A finished sender (DONE received, killed, or gave up) must leave no
   timer armed: a closed session's callbacks firing later is exactly the
   leak this cancels. *)
let stop_sender_timers s =
  (match s.pace_timer with Some tm -> Rt.Sched.cancel tm | None -> ());
  s.pace_timer <- None;
  s.pacing <- false;
  (match s.close_timer with Some tm -> Rt.Sched.cancel tm | None -> ());
  s.close_timer <- None

let flush_outq s =
  for i = 0 to s.queued - 1 do
    release_slot s s.ring.((s.head + i) mod Array.length s.ring)
  done;
  s.head <- 0;
  s.queued <- 0;
  Hashtbl.reset s.queued_frags

(* Every sender exit path — DONE received, killed, CLOSE budget exhausted
   — funnels here so no per-index table survives the session: the output
   queue and its per-index fragment counters, the gone-announced dedup
   set, the retransmission store, and both timers. *)
let teardown_sender s =
  flush_outq s;
  stop_sender_timers s;
  Hashtbl.reset s.gone_announced;
  Recovery.release_below s.store (s.max_index + 1)

(* Queue the sealed fragments of one encoded ADU, each copied straight
   from [encoded] into its own datagram buffer. Under FEC the fragments
   are written unsealed into fresh buffers, XOR-protected as a batch,
   and each block goes out with the FEC tag in front, sealed. Group
   numbers stay monotone across batches — otherwise a retransmitted
   ADU's group 0 would collide with the first ADU's at the decoder. *)
let enqueue_frags s ~index encoded ~total_len =
  let mtu = frag_budget s.config in
  if not s.fec_on then begin
    let chunk = mtu - Framing.fragment_header_size in
    for frag_idx = 0 to Framing.fragment_count ~mtu total_len - 1 do
      let len = min chunk (total_len - (frag_idx * chunk)) in
      let dlen = Framing.fragment_header_size + len + trailer s.config in
      let sl = reserve s ~dlen in
      commit s sl ~index
        ~len:
          (Framing.write_fragment s.config.integrity sl.dg ~mtu
             ~stream:s.stream ~index encoded ~total_len ~frag_idx)
    done
  end
  else begin
    let frags =
      Framing.fragment_encoded ~mtu ~stream:s.stream ~index
        (Bytebuf.take encoded total_len)
    in
    let k = s.config.fec_k in
    let blocks = Fec.protect ~first_group:s.next_fec_group ~k frags in
    s.next_fec_group <-
      (s.next_fec_group + Fec.group_count ~k (List.length frags)) land 0xffff;
    List.iter
      (fun b ->
        let n = Bytebuf.length b in
        let sl = reserve s ~dlen:(1 + n + trailer s.config) in
        Bytebuf.set_uint8 sl.dg 0 Ctl.tag_fec;
        Bytebuf.blit ~src:b ~src_pos:0 ~dst:sl.dg ~dst_pos:1 ~len:n;
        commit s sl ~index
          ~len:(Ctl.seal_in_place s.config.integrity sl.dg ~len:(1 + n)))
      blocks
  end;
  kick s

let send_gone s indices =
  match indices with
  | [] -> ()
  | _ ->
      let fresh = List.filter (fun i -> not (Hashtbl.mem s.gone_announced i)) indices in
      List.iter
        (fun i ->
          strace s "declaring ADU %d gone (unrecoverable under %s)" i
            (Recovery.policy_name (Recovery.policy s.store));
          Hashtbl.replace s.gone_announced i ())
        fresh;
      s.stats.adus_gone <- s.stats.adus_gone + List.length fresh;
      Obs.Counter.add tx_adus_gone (List.length fresh);
      send_ctl_now s ~room:(5 + (4 * List.length indices)) (fun buf ->
          Ctl.write_gone buf ~stream:s.stream indices)

let handle_nack s (v : Framing.view) =
  let have_below = v.Framing.have_below and count = v.Framing.count in
  s.stats.nacks_received <- s.stats.nacks_received + 1;
  Obs.Counter.incr tx_nacks_received;
  (* Evidence the receiver is alive: CLOSE announcements can return to
     their base cadence. *)
  if s.close_shift > 0 then begin
    s.close_shift <- 0;
    s.stats.nack_backoff_resets <- s.stats.nack_backoff_resets + 1;
    Obs.Counter.incr tx_backoff_resets
  end;
  Recovery.release_below s.store have_below;
  (* The NACK volume against what is still outstanding is a (noisy) loss
     estimate; an EWMA of it decides when always-send-parity beats
     per-loss round trips. *)
  let outstanding = max 1 (s.max_index + 1 - have_below) in
  let sample = min 1.0 (float_of_int count /. float_of_int outstanding) in
  s.loss_ewma <- (0.8 *. s.loss_ewma) +. (0.2 *. sample);
  if fec_enabled s.config && (not s.fec_on)
     && s.loss_ewma >= s.config.fec_loss_threshold
  then begin
    s.fec_on <- true;
    strace s "loss estimate %.2f >= %.2f: enabling FEC (k=%d)" s.loss_ewma
      s.config.fec_loss_threshold s.config.fec_k;
    Obs.Counter.incr tx_fec_activated
  end;
  let gone = ref [] in
  for i = 0 to count - 1 do
    let index = Framing.index_at v i in
    (* A request for an ADU whose fragments are still waiting in the
       output queue is stale: the data is already on its way. *)
    if not (Hashtbl.mem s.queued_frags index) then
      match Recovery.recall s.store ~index with
      | Recovery.Data encoded ->
          strace s "retransmit ADU %d (%d bytes)" index
            (Bytebuf.length encoded);
          s.stats.adus_retransmitted <- s.stats.adus_retransmitted + 1;
          s.stats.bytes_retransmitted <-
            s.stats.bytes_retransmitted + Bytebuf.length encoded;
          Obs.Counter.incr tx_retransmits;
          Obs.Counter.add tx_bytes_retransmitted (Bytebuf.length encoded);
          enqueue_frags s ~index encoded ~total_len:(Bytebuf.length encoded)
      | Recovery.Gone -> gone := index :: !gone
  done;
  send_gone s (List.rev !gone)

let rec close_loop s =
  if (not s.done_received) && (not s.s_killed) && not s.s_gave_up then begin
    (* Announce the total only once the paced data queue has drained:
       announcing earlier would make everything still queued look lost to
       the receiver. *)
    if s.queued = 0 then begin
      if s.close_sent >= s.config.close_attempts then begin
        (* The receiver has vanished: stop retrying and stop holding
           retransmission copies for a peer that will never ask. *)
        s.s_gave_up <- true;
        strace s "giving up CLOSE after %d attempts; releasing store"
          s.close_sent;
        Obs.Counter.incr tx_close_gave_up;
        teardown_sender s
      end
      else begin
        s.close_sent <- s.close_sent + 1;
        send_ctl_now s ~room:7 (fun buf ->
            Ctl.write_close buf ~stream:s.stream ~total:(s.max_index + 1))
      end
    end;
    if not s.s_gave_up then begin
      (* Back off while unanswered; any NACK resets the cadence. *)
      let delay = s.config.close_retry *. (2.0 ** float_of_int s.close_shift) in
      if s.close_shift < 6 then s.close_shift <- s.close_shift + 1;
      s.close_timer <-
        Some (Rt.Sched.schedule_after s.sched delay (fun () -> close_loop s))
    end
    else s.close_timer <- None
  end
  else s.close_timer <- None

let sender_handle s ~src:_ ~src_port:_ dg =
  if s.s_killed then ()
  else
    let v = s.s_view in
    match Framing.read v s.config.integrity dg with
    | Framing.Bad_crc -> Obs.Counter.incr tx_ctl_corrupt
    | Framing.Valid
      when v.Framing.stream = s.stream && not s.done_received -> (
        (* Malformed or foreign traffic is ignored. *)
        match v.Framing.kind with
        | Framing.Nack -> handle_nack s v
        | Framing.Done ->
            (* Duplicate DONEs (the first one's answer crossed a re-CLOSE)
               are idempotent. Everything is confirmed delivered (or
               gone): the transport no longer needs its retransmission
               copies, its queued retransmissions, its per-index tables,
               or its timers — without the cancel, the CLOSE/pace
               closures keep firing into a dead session. *)
            s.done_received <- true;
            teardown_sender s
        | Framing.Data | Framing.Close | Framing.Gone | Framing.Fec -> ())
    | _ -> ()

let sender_io ~sched ~io ~peer ~peer_port ~port ~stream ~policy ?secure
    ?tx_pool ?(config = default_sender_config) () =
  if frag_budget config <= Framing.fragment_header_size then
    invalid_arg "Alf_transport: mtu too small for integrity/FEC overhead";
  let s =
    {
      sched;
      io;
      peer;
      peer_port;
      port;
      stream;
      store = Recovery.store policy;
      config;
      s_secure = secure;
      tx_pool;
      pool_buf =
        (match tx_pool with Some p -> (Pool.stats p).Pool.buf_size | None -> 0);
      ring = Array.init 16 (fun _ -> empty_slot ());
      head = 0;
      queued = 0;
      scratch = Bytebuf.empty;
      stats =
        {
          adus_sent = 0;
          frags_sent = 0;
          bytes_sent = 0;
          nacks_received = 0;
          adus_retransmitted = 0;
          bytes_retransmitted = 0;
          adus_gone = 0;
          store_peak = 0;
          nack_backoff_resets = 0;
        };
      queued_frags = Hashtbl.create 64;
      pacing = false;
      pace_cb = ignore;
      pace_timer = None;
      close_timer = None;
      max_index = -1;
      closing = false;
      done_received = false;
      close_sent = 0;
      close_shift = 0;
      s_gave_up = false;
      s_killed = false;
      loss_ewma = 0.0;
      fec_on = false;
      next_fec_group = 0;
      gone_announced = Hashtbl.create 16;
      s_tracer = None;
      s_view = Framing.view ();
      adu_inst = None;
      value_inst = None;
      value_plan = [];
    }
  in
  s.pace_cb <- (fun () -> pace s);
  io.Dgram.bind ~port (sender_handle s);
  s

let account_sent s ~index ~encoded_len ~nfrags =
  if index > s.max_index then s.max_index <- index;
  let fp = Recovery.footprint s.store in
  if fp > s.stats.store_peak then begin
    s.stats.store_peak <- fp;
    Obs.Gauge.observe_max tx_store_peak (float_of_int fp)
  end;
  s.stats.adus_sent <- s.stats.adus_sent + 1;
  s.stats.frags_sent <- s.stats.frags_sent + nfrags;
  s.stats.bytes_sent <- s.stats.bytes_sent + encoded_len;
  Obs.Counter.incr tx_adus_sent;
  Obs.Counter.add tx_bytes_sent encoded_len

(* The stages every transmit plan ends in. *)
let tail_stages s =
  let frame = [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ] in
  match s.s_secure with
  | None -> frame
  | Some rc -> Ilp.Aead_seal (Secure.Record.params rc) :: frame

(* Run [inst] with [run] over input [x] into the [n]-byte payload at [pos]
   in [buf]; returns the payload's CRC-32, the plan's last digest. A
   sealed payload is [ct ‖ epoch ‖ tag]: the record trailer is written
   after the run, and the digest extended over it by feeding its 20 bytes
   to the unfinished register, so {!Adu.write_header} folds the whole
   payload's CRC into the header having read the payload once. *)
let fill_payload s inst run x buf ~pos ~n =
  run inst ~dst:(Bytebuf.sub buf ~pos ~len:n) x;
  let crc = Ilp.last_checksum inst in
  match s.s_secure with
  | None -> crc
  | Some rc ->
      let tpos = pos + n in
      Secure.Record.write_trailer rc inst buf ~pos:tpos;
      Checksum.Crc32.finish_int
        (Checksum.Crc32.feed_sub (Checksum.Crc32.resume crc) buf ~pos:tpos
           ~len:Secure.Record.overhead)

(* The one transmit path. [run inst ~dst x] writes the [n]-byte payload
   into [dst] in one pass — {!Ilp.exec} copying an ADU's payload, or
   {!Ilp.exec_marshal} marshalling a value — running the record seal
   (when keyed) and a CRC-32 over it on the way. The seal's params are
   pointed at this record first; the compiled plan reads them as it
   starts.

   A one-fragment ADU is filled straight into its datagram. A longer one
   is filled into the sender's scratch buffer — or into a fresh buffer
   when the recovery policy keeps it — and each fragment is copied from
   there into its own datagram. Either way every queued datagram is
   sealed. *)
let transmit s inst run x (name : Adu.name) ~n =
  let index = name.Adu.index in
  let plen =
    match s.s_secure with
    | None -> n
    | Some rc ->
        ignore (Secure.Record.seal_params rc name);
        n + Secure.Record.overhead
  in
  let encoded_len = Adu.header_size + plen in
  let retains =
    match Recovery.policy s.store with
    | Recovery.Transport_buffer -> true
    | Recovery.App_recompute _ | Recovery.No_recovery -> false
  in
  let nfrags = Framing.fragment_count ~mtu:(frag_budget s.config) encoded_len in
  if nfrags = 1 && (not s.fec_on) && not retains then begin
    let payload = Framing.fragment_header_size + Adu.header_size in
    let sl = reserve s ~dlen:(payload + plen + trailer s.config) in
    (* Compiled sizing can defer a schema/value mismatch to emit time, so
       the fill may raise after the reserve: hand the buffer back. *)
    let payload_crc =
      try fill_payload s inst run x sl.dg ~pos:payload ~n
      with e ->
        release_slot s sl;
        raise e
    in
    commit s sl ~index
      ~len:
        (Framing.seal_single s.config.integrity sl.dg ~stream:s.stream name
           ~plen ~payload_crc);
    kick s
  end
  else begin
    let buf =
      if retains then Bytebuf.create encoded_len else scratch s encoded_len
    in
    let payload_crc = fill_payload s inst run x buf ~pos:Adu.header_size ~n in
    Adu.write_header buf ~pos:0 name ~plen ~payload_crc;
    if retains then Recovery.remember s.store ~index buf;
    enqueue_frags s ~index buf ~total_len:encoded_len
  end;
  account_sent s ~index ~encoded_len ~nfrags

let send_adu s (adu : Adu.t) =
  if s.closing then invalid_arg "Alf_transport.send_adu: sender closed";
  if s.s_killed then invalid_arg "Alf_transport.send_adu: sender killed";
  let inst =
    match s.adu_inst with
    | Some inst -> inst
    | None ->
        let inst = Ilp.compile (tail_stages s) in
        s.adu_inst <- Some inst;
        inst
  in
  let payload = adu.Adu.payload in
  transmit s inst Ilp.exec payload adu.Adu.name ~n:(Bytebuf.length payload)

(* A plan other than the last one given (by identity) is compiled anew. *)
let send_value s ~name ?(plan = []) source =
  if s.closing then invalid_arg "Alf_transport.send_value: sender closed";
  if s.s_killed then invalid_arg "Alf_transport.send_value: sender killed";
  let inst =
    match s.value_inst with
    | Some inst when s.value_plan == plan -> inst
    | _ ->
        let inst = Ilp.compile_marshal (plan @ tail_stages s) in
        s.value_inst <- Some inst;
        s.value_plan <- plan;
        inst
  in
  transmit s inst Ilp.exec_marshal source name ~n:(Ilp.marshal_size source)

let close s =
  if (not s.closing) && not s.s_killed then begin
    s.closing <- true;
    close_loop s
  end

let kill_sender s =
  if not s.s_killed then begin
    s.s_killed <- true;
    (* The process is gone: nothing queued will reach the wire, and the
       retransmission store dies with it. Pooled datagrams still go back
       to their pool — the pool outlives the sender. *)
    teardown_sender s;
    Obs.Counter.incr tx_killed
  end

(* --- Receiver ---

   Stage 1 proper — dedup, admission, reassembly, record open, frontier,
   CLOSE total, completion — is {!Rx}, shared with the serve engine. This
   driver adds what one endpoint needs around it: integrity unsealing and
   sender-address latching, FEC unwrapping below [Rx], statistics and the
   tracer, and an Rto-paced per-index repair loop that gives up on sender
   silence. *)

type receiver_stats = {
  mutable adus_delivered : int;
  mutable bytes_delivered : int;
  mutable out_of_order : int;
  mutable adus_lost : int;
  mutable nacks_sent : int;
  mutable duplicates : int;
  mutable frags_corrupt_dropped : int;
  mutable adus_auth_dropped : int;
  mutable adus_gone_local : int;
}

let rx_counter name = Obs.Registry.counter ("alf.receiver." ^ name)
let rx_delivered = rx_counter "adus_delivered"
let rx_bytes_delivered = rx_counter "bytes_delivered"
let rx_nacks_sent = rx_counter "nacks_sent"
let rx_gone_deadline = rx_counter "adus_gone_deadline"
let rx_abandoned = rx_counter "abandoned"
let rx_auth_dropped = rx_counter "auth_dropped"
let rx_lost = rx_counter "adus_lost"
let rx_corrupt_dropped = rx_counter "frags_corrupt_dropped"

(* Repair state for one missing index. *)
type req = {
  mutable first_missing : float;
  mutable last_nack : float;
  mutable tries : int;
}

type receiver = {
  r_sched : Rt.Sched.t;
  r_io : Dgram.t;
  r_port : int;
  r_stream : int;
  nack_interval : float;
  nack_holdoff : float;  (* base per-index re-request spacing *)
  nack_budget : int;  (* max NACKs for one index before giving up on it *)
  adu_deadline : float;  (* max seconds an index may stay missing *)
  giveup_idle : float;  (* silence after which the sender is presumed dead *)
  r_integrity : Checksum.Kind.t option;
  r_ctl : Bytebuf.t;  (* control scratch *)
  nack_rto : Rt.Rto.t;  (* paces the repair loop *)
  jitter : Rng.t;  (* desynchronises repair rounds, deterministically *)
  reqs : (int, req) Hashtbl.t;
  app_deliver : Adu.t -> unit;
  r_stats : receiver_stats;
  rx : unit Rx.t;
  env : unit Rx.env;
  mutable fec_rx : Fec.decoder option;  (* created on first FEC block *)
  mutable corrupt_single : int;  (* single-fragment ADUs failing the CRC *)
  mutable sender_addr : (Packet.addr * int) option;
  mutable last_rx : float;  (* last integrity-verified datagram *)
  mutable nack_timer : Rt.Sched.timer option;
  mutable last_loop_settled : int;  (* progress marker between rounds *)
  mutable r_abandoned : bool;
  mutable complete_cb : unit -> unit;
  mutable r_tracer : (string -> unit) option;
  r_view : Framing.view;  (* the reader's, for datagrams and FEC blocks *)
}

let rtrace t fmt = trace t.r_tracer fmt

let set_receiver_tracer t f = t.r_tracer <- Some f
let receiver_stats t = t.r_stats
let receiver_frontier t = Rx.frontier t.rx
let receiver_table_sizes t = (Rx.ahead_load t.rx, Hashtbl.length t.reqs)
let receiver_retired_count t = Rx.retired_count t.rx
let reassembly_stats t =
  let st = Rx.reasm_stats t.rx in
  { st with Framing.corrupt_adus = st.Framing.corrupt_adus + t.corrupt_single }

let complete t = Rx.complete t.rx
let abandoned t = t.r_abandoned
let on_complete t f = t.complete_cb <- f
let settled t index = Rx.settled t.rx index
let missing t = Rx.missing t.env t.rx ~cap:max_int

(* Control is written and sealed in the receiver's scratch buffer, which
   fits the largest NACK. *)
let max_nack_indices = 512

let send_ctl t write =
  match t.sender_addr with
  | None -> ()
  | Some (addr, port) ->
      let len = Ctl.seal_in_place t.r_integrity t.r_ctl ~len:(write t.r_ctl) in
      ignore
        (t.r_io.Dgram.send ~dst:addr ~dst_port:port ~src_port:t.r_port
           (Bytebuf.take t.r_ctl len))

let send_done t = send_ctl t (fun buf -> Ctl.write_done buf ~stream:t.r_stream)

(* The stream just completed: answer with one DONE. Nothing more will be
   asked for, so drop all repair bookkeeping (a long-lived receiver must
   not keep per-index state forever) and disarm the repair loop — a
   pending NACK timer firing into a completed session is the other half
   of the timer leak. *)
let completed t =
  Hashtbl.reset t.reqs;
  (match t.nack_timer with Some tm -> Rt.Sched.cancel tm | None -> ());
  t.nack_timer <- None;
  send_done t;
  t.complete_cb ()

let after_settle t = function Rx.Completed -> completed t | _ -> ()

let send_nack t indices =
  let indices = List.filteri (fun i _ -> i < max_nack_indices) indices in
  t.r_stats.nacks_sent <- t.r_stats.nacks_sent + 1;
  Obs.Counter.incr rx_nacks_sent;
  send_ctl t (fun buf ->
      Ctl.write_nack buf ~stream:t.r_stream ~have_below:(Rx.frontier t.rx)
        indices)

(* Local loss declaration: the repair budget or deadline for [index] is
   exhausted, so stop asking and report the loss in application terms —
   exactly what a sender-side GONE does, but decided here. *)
let locally_gone t index reason =
  match Rx.give_up t.rx index with
  | (Rx.Settled | Rx.Completed) as v ->
      Hashtbl.remove t.reqs index;
      t.r_stats.adus_gone_local <- t.r_stats.adus_gone_local + 1;
      Obs.Counter.incr rx_gone_deadline;
      rtrace t "ADU %d locally gone (%s)" index reason;
      after_settle t v
  | _ -> ()

let rec nack_loop t =
  t.nack_timer <- None;
  if Rx.complete t.rx || t.r_abandoned then ()
  else begin
    let now = Rt.Sched.now t.r_sched in
    let current = missing t in
    List.iter
      (fun i ->
        if not (Hashtbl.mem t.reqs i) then
          Hashtbl.replace t.reqs i
            { first_missing = now; last_nack = neg_infinity; tries = 0 })
      current;
    (* Budget/deadline: an index we have asked for [nack_budget] times, or
       that has been missing for [adu_deadline], is not coming. *)
    List.iter
      (fun i ->
        match Hashtbl.find_opt t.reqs i with
        | Some r when now -. r.first_missing >= t.adu_deadline ->
            locally_gone t i "deadline"
        | Some r when r.tries >= t.nack_budget ->
            locally_gone t i "retry budget"
        | Some _ | None -> ())
      current;
    if Rx.complete t.rx then ()
    else if now -. t.last_rx >= t.giveup_idle then begin
      (* Dead air: the sender has vanished (or never appeared). Settle
         what is outstanding as locally gone and stop the loop so the
         scheduler can quiesce; a verified datagram revives us. *)
      List.iter (fun i -> locally_gone t i "sender silent") (missing t);
      if not (Rx.complete t.rx) then begin
        t.r_abandoned <- true;
        Hashtbl.reset t.reqs;
        rtrace t "sender silent for %.3fs: abandoning repair" t.giveup_idle;
        Obs.Counter.incr rx_abandoned
      end
    end
    else begin
      (* An index must stay missing a full interval before it is reported
         (it may simply still be in flight) and is re-requested with
         per-index exponential spacing — a repair needs at least a round
         trip, and re-requesting sooner only multiplies retransmissions. *)
      let due i =
        match Hashtbl.find_opt t.reqs i with
        | None -> false
        | Some r ->
            now -. r.first_missing >= t.nack_interval
            && now -. r.last_nack
               >= t.nack_holdoff *. (2.0 ** float_of_int (min r.tries 6))
      in
      (match List.filter due (missing t) with
      | [] -> ()
      | gaps when t.sender_addr <> None ->
          rtrace t "NACK for %d missing ADUs (frontier %d)" (List.length gaps)
            (Rx.frontier t.rx);
          List.iter
            (fun i ->
              match Hashtbl.find_opt t.reqs i with
              | Some r ->
                  r.last_nack <- now;
                  r.tries <- r.tries + 1
              | None -> ())
            gaps;
          send_nack t gaps;
          (* Rounds that keep asking without anything settling widen the
             loop (Rto backoff); a clean repair sample resets it. The
             marker must be monotone — stats counters, not table sizes,
             which shrink as the frontier retires entries. *)
          let settled_now =
            t.r_stats.adus_delivered + t.r_stats.adus_lost
            + t.r_stats.adus_gone_local
          in
          if settled_now = t.last_loop_settled then
            Rt.Rto.backoff t.nack_rto;
          t.last_loop_settled <- settled_now
      | _ -> ());
      let delay =
        Rt.Rto.rto t.nack_rto
        +. Rng.uniform t.jitter ~lo:0.0 ~hi:(0.5 *. t.nack_interval)
      in
      t.nack_timer <-
        Some (Rt.Sched.schedule_after t.r_sched delay (fun () -> nack_loop t))
    end
  end

(* Runs inside {!Rx} once the ADU is marked and the frontier has moved,
   so an index still above the frontier completed out of order. *)
let deliver_complete t adu =
  let index = adu.Adu.name.Adu.index in
  (match Hashtbl.find_opt t.reqs index with
  | Some r ->
      (* A repair answered on the first ask is an unambiguous RTT
         sample (Karn: multiply-requested ones are not). *)
      if r.tries = 1 then
        Rt.Rto.sample t.nack_rto (Rt.Sched.now t.r_sched -. r.last_nack);
      Hashtbl.remove t.reqs index
  | None -> ());
  if index > Rx.frontier t.rx then begin
    t.r_stats.out_of_order <- t.r_stats.out_of_order + 1;
    rtrace t "ADU %d complete out of order (frontier %d)" index
      (Rx.frontier t.rx)
  end;
  t.r_stats.adus_delivered <- t.r_stats.adus_delivered + 1;
  t.r_stats.bytes_delivered <-
    t.r_stats.bytes_delivered + Bytebuf.length adu.Adu.payload;
  Obs.Counter.incr rx_delivered;
  Obs.Counter.add rx_bytes_delivered (Bytebuf.length adu.Adu.payload);
  t.app_deliver adu

(* One datagram the reader took, or one block an FEC decoder handed back.
   Traffic for another stream, indices outside the stream (beyond the
   CLOSE total) and bad ADUs are ignored: the repair loop fetches
   whatever is still missing. *)
let rec handle t (v : Framing.view) =
  match v.Framing.kind with
  | Framing.Fec ->
      (* Bytes 1-2 of an FEC block are its group, not a stream. *)
      Fec.push (fec_decoder t)
        (Bytebuf.sub v.Framing.dg ~pos:v.Framing.chunk_off ~len:v.Framing.chunk_len)
  | _ when v.Framing.stream <> t.r_stream -> ()
  | Framing.Data -> (
      match Rx.fragment t.env t.rx v with
      | Rx.Completed -> completed t
      | Rx.Duplicate -> t.r_stats.duplicates <- t.r_stats.duplicates + 1
      | Rx.Auth ->
          (* Forged or tag-damaged data that slipped past the stage-1
             checksum: a counted drop that behaves like a lost datagram. *)
          t.r_stats.adus_auth_dropped <- t.r_stats.adus_auth_dropped + 1;
          Obs.Counter.incr rx_auth_dropped;
          rtrace t "ADU %d failed record authentication: dropped"
            v.Framing.index
      | Rx.Bad_adu when v.Framing.nfrags = 1 ->
          (* The reassembler counts the multi-fragment ones. *)
          t.corrupt_single <- t.corrupt_single + 1
      | Rx.Pending | Rx.Settled | Rx.Already_complete | Rx.Window | Rx.Bad_adu
      | Rx.Bad_frag ->
          ())
  | Framing.Close -> (
      match Rx.close t.rx v.Framing.total with
      | Rx.Completed -> completed t
      | Rx.Already_complete ->
          (* A re-CLOSE after completion means our DONE was lost. *)
          send_done t
      | _ -> ())
  | Framing.Gone ->
      for i = 0 to v.Framing.count - 1 do
        let index = Framing.index_at v i in
        match Rx.gone t.env t.rx index with
        | (Rx.Settled | Rx.Completed) as r ->
            Hashtbl.remove t.reqs index;
            t.r_stats.adus_lost <- t.r_stats.adus_lost + 1;
            Obs.Counter.incr rx_lost;
            after_settle t r
        | _ -> ()
      done
  | Framing.Done | Framing.Nack -> ()

and fec_decoder t =
  match t.fec_rx with
  | Some d -> d
  | None ->
      let v = t.r_view in
      let d =
        Fec.decoder
          ~deliver:(fun block ->
            (* Source and recovered blocks alike are unsealed fragments,
               read once the datagram that carried them is done with the
               view. *)
            match Framing.read v None block with
            | Framing.Valid when v.Framing.kind = Framing.Data -> handle t v
            | _ -> ())
          ()
      in
      t.fec_rx <- Some d;
      d

let receiver_handle t ~src ~src_port dg =
  match Framing.read t.r_view t.r_integrity dg with
  | Framing.Bad_crc ->
      (* Stage-1 integrity: a flipped bit anywhere in the datagram stops
         here, before it can poison reassembly or forge control. *)
      t.r_stats.frags_corrupt_dropped <- t.r_stats.frags_corrupt_dropped + 1;
      Obs.Counter.incr rx_corrupt_dropped
  | verdict -> (
      (* Only integrity-verified traffic counts as liveness or identifies
         the sender — garbage must not latch a spoofed repair address. *)
      t.last_rx <- Rt.Sched.now t.r_sched;
      if t.sender_addr = None then t.sender_addr <- Some (src, src_port);
      if t.r_abandoned && not (Rx.complete t.rx) then begin
        t.r_abandoned <- false;
        nack_loop t
      end;
      match verdict with Framing.Valid -> handle t t.r_view | _ -> ())

let receiver_io ~sched ~io ~port ~stream ?(nack_interval = 0.02)
    ?(nack_holdoff = 0.06) ?(nack_budget = 50) ?(adu_deadline = 10.0)
    ?(giveup_idle = 3.0) ?(integrity = Some Checksum.Kind.Crc32) ?secure ?seed
    ?reasm_pool ~deliver () =
  if nack_budget < 1 then
    invalid_arg "Alf_transport: nack_budget must be >= 1";
  let seed =
    match seed with
    | Some s -> s
    | None ->
        (* Deterministic per endpoint, so runs stay reproducible without
           the caller threading a seed. *)
        Int64.of_int ((port * 65539) + (stream * 7919) + 0x5EED)
  in
  let on_deliver = ref (fun (_ : Adu.t) -> ()) in
  let t =
    {
      r_sched = sched;
      r_io = io;
      r_port = port;
      r_stream = stream;
      nack_interval;
      nack_holdoff;
      nack_budget;
      adu_deadline;
      giveup_idle;
      r_integrity = integrity;
      r_ctl = Bytebuf.create (9 + (4 * max_nack_indices) + Ctl.trailer_size);
      nack_rto =
        Rt.Rto.create ~initial_rto:nack_interval
          ~min_rto:nack_interval ~max_rto:1.0 ();
      jitter = Rng.create ~seed;
      reqs = Hashtbl.create 64;
      app_deliver = deliver;
      r_stats =
        {
          adus_delivered = 0;
          bytes_delivered = 0;
          out_of_order = 0;
          adus_lost = 0;
          nacks_sent = 0;
          duplicates = 0;
          frags_corrupt_dropped = 0;
          adus_auth_dropped = 0;
          adus_gone_local = 0;
        };
      rx = Rx.create ();
      (* One endpoint, one stream: no admission window beyond the total. *)
      env =
        Rx.env ~window:max_int ?pool:reasm_pool ?secure
          ~deliver:(fun () adu -> !on_deliver adu)
          ();
      fec_rx = None;
      corrupt_single = 0;
      sender_addr = None;
      last_rx = Rt.Sched.now sched;
      nack_timer = None;
      last_loop_settled = 0;
      r_abandoned = false;
      complete_cb = (fun () -> ());
      r_tracer = None;
      r_view = Framing.view ();
    }
  in
  on_deliver := deliver_complete t;
  nack_loop t;
  io.Dgram.bind ~port (receiver_handle t);
  t

(* --- Delivery adapters: stage 2 over the borrowed payload --- *)

let deliver_values ?(plan = []) ~sink f =
  let c_failed = Obs.Registry.counter "alf.receiver.unmarshal_failed" in
  fun (adu : Adu.t) ->
    (* In place over the borrowed payload view: decrypt + verify + parse
       in one pass, done before stage 1 reclaims the buffer. *)
    match Ilp.run_unmarshal ~dst:adu.Adu.payload plan sink adu.Adu.payload with
    | r -> f adu.Adu.name r.Ilp.value
    | exception (Wire.Ber.Decode_error _ | Wire.Xdr.Error _) ->
        Obs.Counter.incr c_failed

let deliver_views ?(plan = []) ~prog f =
  let c_invalid = Obs.Registry.counter "alf.receiver.view_invalid" in
  fun (adu : Adu.t) ->
    (* Transform in place over the borrowed payload, then hand out a
       validated lazy view instead of materializing a Value.t — the
       application decodes only the fields it touches, and only copies
       what it wants to keep. Total on hostile payloads. *)
    let r = Ilp.run_view ~dst:adu.Adu.payload plan prog adu.Adu.payload in
    match r.Ilp.view with
    | Ok (view, _) -> f adu.Adu.name view
    | Error _ -> Obs.Counter.incr c_invalid
