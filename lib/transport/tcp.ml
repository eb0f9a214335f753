open Bufkit
open Netsim

type config = {
  mss : int;
  recv_capacity : int;
  initial_cwnd_mss : int;
  ack_delay : float;
  proto : int;
  isn : int;
  peer_isn : int;
}

let default_config =
  {
    mss = 1460;
    recv_capacity = 65536;
    initial_cwnd_mss = 4;
    ack_delay = 0.0;
    proto = 6;
    isn = 0;
    peer_isn = 0;
  }

type stats = {
  mutable segs_sent : int;
  mutable segs_received : int;
  mutable segs_discarded : int;
  mutable acks_sent : int;
  mutable acks_received : int;
  mutable dup_acks : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  mutable bytes_sent : int;
  mutable bytes_retransmitted : int;
  mutable bytes_acked : int;
  mutable bytes_delivered : int;
  mutable control_ops : int;
  mutable manip_checksum_bytes : int;
  mutable manip_copy_bytes : int;
}

let fresh_stats () =
  {
    segs_sent = 0;
    segs_received = 0;
    segs_discarded = 0;
    acks_sent = 0;
    acks_received = 0;
    dup_acks = 0;
    retransmits = 0;
    timeouts = 0;
    fast_retransmits = 0;
    bytes_sent = 0;
    bytes_retransmitted = 0;
    bytes_acked = 0;
    bytes_delivered = 0;
    control_ops = 0;
    manip_checksum_bytes = 0;
    manip_copy_bytes = 0;
  }

(* A segment the sender may have to retransmit. *)
type inflight = {
  off : int;  (* absolute stream offset *)
  len : int;
  data : Bytebuf.t;
  is_fin : bool;
  mutable sent_at : float;
  mutable rexmits : int;
}

type t = {
  engine : Engine.t;
  node : Node.t;
  peer : Packet.addr;
  config : config;
  stats : stats;
  next_id : unit -> int;
  rto : Rt.Rto.t;
  (* Sender state. *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable send_q : Bytebuf.t list;  (* not yet segmented, oldest first *)
  mutable send_q_bytes : int;
  mutable inflight : inflight list;  (* ascending offset *)
  mutable cwnd : float;  (* bytes *)
  mutable ssthresh : float;
  mutable rwnd : int;  (* peer's advertised window *)
  mutable dupack_count : int;
  mutable rto_timer : Engine.timer option;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable fin_acked : bool;
  (* Receiver state. *)
  reorder : Reorder.t;
  mutable deliver : Bytebuf.t -> unit;
  mutable close_cb : unit -> unit;
  mutable peer_fin_off : int option;
  mutable peer_closed : bool;
  mutable ack_timer : Engine.timer option;
  mutable ack_due : bool;
  mutable tracer : (string -> unit) option;
}

let trace t fmt =
  match t.tracer with
  | None -> Format.ikfprintf (fun _ -> ()) Format.std_formatter fmt
  | Some emit -> Format.kasprintf emit fmt

let control t = t.stats.control_ops <- t.stats.control_ops + 1
let set_tracer t f = t.tracer <- Some f

let stats t = t.stats
let rcv_nxt t = Reorder.rcv_nxt t.reorder
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let buffered_bytes t = Reorder.buffered_bytes t.reorder
let send_queue_bytes t = t.send_q_bytes
let cwnd t = int_of_float t.cwnd
let closed t = t.peer_closed

let unacked_bytes t =
  List.fold_left (fun acc seg -> acc + seg.len) 0 t.inflight

let all_acked t =
  t.send_q_bytes = 0 && t.inflight = []
  && (not t.fin_queued || t.fin_acked)

let on_deliver t f = t.deliver <- f
let on_close t f = t.close_cb <- f

(* --- wire out --- *)

let emit t (seg : Segment.t) =
  let buf = Segment.encode seg in
  let n = Bytebuf.length buf in
  t.stats.manip_checksum_bytes <- t.stats.manip_checksum_bytes + n;
  (* Handing the segment to the network interface is the unavoidable
     "moving to the net" manipulation. *)
  t.stats.manip_copy_bytes <- t.stats.manip_copy_bytes + n;
  let pkt =
    Packet.make ~id:(t.next_id ()) ~src:(Node.addr t.node) ~dst:t.peer
      ~proto:t.config.proto ~born:(Engine.now t.engine) buf
  in
  ignore (Node.send t.node pkt)

let current_ack t =
  let base = Reorder.rcv_nxt t.reorder in
  match t.peer_fin_off with
  | Some fin when base = fin -> base + 1 (* the FIN consumes one number *)
  | Some _ | None -> base

let send_ack t =
  control t (* acknowledgement computation *);
  t.ack_due <- false;
  (match t.ack_timer with
  | Some timer ->
      Engine.cancel timer;
      t.ack_timer <- None
  | None -> ());
  t.stats.acks_sent <- t.stats.acks_sent + 1;
  emit t
    {
      Segment.seq = Seq32.of_int t.snd_nxt;
      ack = Seq32.of_int (current_ack t);
      flags = { Segment.no_flags with ack = true };
      wnd = Reorder.window t.reorder;
      payload = Bytebuf.empty;
    }

let schedule_ack t =
  if t.config.ack_delay <= 0.0 then send_ack t
  else if t.ack_due then send_ack t (* every second segment: ack now *)
  else begin
    t.ack_due <- true;
    t.ack_timer <-
      Some (Engine.schedule_after t.engine t.config.ack_delay (fun () ->
                t.ack_timer <- None;
                if t.ack_due then send_ack t))
  end

(* --- retransmission timer --- *)

let rec arm_rto t =
  (match t.rto_timer with
  | Some timer -> Engine.cancel timer
  | None -> ());
  if t.inflight = [] then t.rto_timer <- None
  else begin
    control t (* timer management is in-band control *);
    t.rto_timer <-
      Some (Engine.schedule_after t.engine (Rt.Rto.rto t.rto) (fun () -> on_rto t))
  end

and on_rto t =
  t.rto_timer <- None;
  match t.inflight with
  | [] -> ()
  | seg :: _ ->
      t.stats.timeouts <- t.stats.timeouts + 1;
      Obs.Counter.incr (Obs.Registry.counter "tcp.rto_backoffs");
      trace t "RTO fired: rexmit seq=%d len=%d (rto now %.3fs)" seg.off seg.len
        (Rt.Rto.rto t.rto);
      Rt.Rto.backoff t.rto;
      (* Multiplicative decrease: collapse to one segment. *)
      let flight = float_of_int (t.snd_nxt - t.snd_una) in
      t.ssthresh <- Float.max (flight /. 2.0) (2.0 *. float_of_int t.config.mss);
      t.cwnd <- float_of_int t.config.mss;
      t.dupack_count <- 0;
      retransmit t seg;
      arm_rto t

and retransmit t seg =
  t.stats.retransmits <- t.stats.retransmits + 1;
  t.stats.bytes_retransmitted <- t.stats.bytes_retransmitted + seg.len;
  Obs.Counter.incr (Obs.Registry.counter "tcp.retransmits");
  Obs.Counter.add (Obs.Registry.counter "tcp.bytes_retransmitted") seg.len;
  seg.rexmits <- seg.rexmits + 1;
  seg.sent_at <- Engine.now t.engine;
  t.stats.segs_sent <- t.stats.segs_sent + 1;
  emit t
    {
      Segment.seq = Seq32.of_int seg.off;
      ack = Seq32.of_int (current_ack t);
      flags = { Segment.no_flags with ack = true; fin = seg.is_fin };
      wnd = Reorder.window t.reorder;
      payload = seg.data;
    }

(* --- segmentation and transmission --- *)

(* Pull up to [n] bytes off the send queue into one fresh buffer. *)
let dequeue_bytes t n =
  let out = Bytebuf.create n in
  let filled = ref 0 in
  while !filled < n do
    match t.send_q with
    | [] -> assert false
    | chunk :: rest ->
        let take = min (n - !filled) (Bytebuf.length chunk) in
        Bytebuf.blit ~src:chunk ~src_pos:0 ~dst:out ~dst_pos:!filled ~len:take;
        filled := !filled + take;
        if take = Bytebuf.length chunk then t.send_q <- rest
        else t.send_q <- Bytebuf.shift chunk take :: rest
  done;
  t.send_q_bytes <- t.send_q_bytes - n;
  t.stats.manip_copy_bytes <- t.stats.manip_copy_bytes + n;
  out

let rec pump t =
  control t (* window computation *);
  let window = min (int_of_float t.cwnd) t.rwnd in
  let in_flight = t.snd_nxt - t.snd_una in
  let room = window - in_flight in
  if t.send_q_bytes > 0 && room > 0 then begin
    let len = min (min t.config.mss room) t.send_q_bytes in
    let data = dequeue_bytes t len in
    let seg =
      {
        off = t.snd_nxt;
        len;
        data;
        is_fin = false;
        sent_at = Engine.now t.engine;
        rexmits = 0;
      }
    in
    t.inflight <- t.inflight @ [ seg ];
    t.snd_nxt <- t.snd_nxt + len;
    t.stats.segs_sent <- t.stats.segs_sent + 1;
    t.stats.bytes_sent <- t.stats.bytes_sent + len;
    trace t "send seq=%d len=%d cwnd=%d" seg.off len (int_of_float t.cwnd);
    emit t
      {
        Segment.seq = Seq32.of_int seg.off;
        ack = Seq32.of_int (current_ack t);
        flags = { Segment.no_flags with ack = true };
        wnd = Reorder.window t.reorder;
        payload = data;
      };
    if t.rto_timer = None then arm_rto t;
    pump t
  end
  else if t.send_q_bytes = 0 && t.fin_queued && not t.fin_sent then begin
    (* Send FIN once the queue has drained (it may still share the window
       with inflight data). *)
    let seg =
      {
        off = t.snd_nxt;
        len = 1;
        data = Bytebuf.empty;
        is_fin = true;
        sent_at = Engine.now t.engine;
        rexmits = 0;
      }
    in
    t.fin_sent <- true;
    t.inflight <- t.inflight @ [ seg ];
    t.snd_nxt <- t.snd_nxt + 1;
    t.stats.segs_sent <- t.stats.segs_sent + 1;
    emit t
      {
        Segment.seq = Seq32.of_int seg.off;
        ack = Seq32.of_int (current_ack t);
        flags = { Segment.no_flags with ack = true; fin = true };
        wnd = Reorder.window t.reorder;
        payload = Bytebuf.empty;
      };
    if t.rto_timer = None then arm_rto t
  end

(* --- inbound processing --- *)

let process_ack t (seg : Segment.t) =
  t.stats.acks_received <- t.stats.acks_received + 1;
  control t (* ack comparison against local state *);
  let ack_abs = Seq32.unwrap ~near:t.snd_una seg.Segment.ack in
  t.rwnd <- seg.Segment.wnd;
  if ack_abs > t.snd_una then begin
    let advanced = ack_abs - t.snd_una in
    t.stats.bytes_acked <- t.stats.bytes_acked + advanced;
    t.snd_una <- ack_abs;
    t.dupack_count <- 0;
    (* Retire covered segments; sample RTT per Karn. *)
    let rec retire = function
      | seg :: rest when seg.off + seg.len <= ack_abs ->
          let rtt = Engine.now t.engine -. seg.sent_at in
          (* The estimator itself enforces Karn's rule; the histogram only
             records unambiguous samples. *)
          if seg.rexmits = 0 then
            Obs.Histogram.record
              (Obs.Registry.histogram "tcp.rtt_ns")
              (rtt *. 1e9);
          Rt.Rto.sample ~retransmitted:(seg.rexmits > 0) t.rto rtt;
          if seg.is_fin then t.fin_acked <- true;
          retire rest
      | rest -> rest
    in
    t.inflight <- retire t.inflight;
    control t (* congestion window update *);
    if t.cwnd < t.ssthresh then
      t.cwnd <- t.cwnd +. float_of_int (min advanced t.config.mss)
    else
      t.cwnd <-
        t.cwnd
        +. (float_of_int (t.config.mss * t.config.mss) /. Float.max t.cwnd 1.0);
    arm_rto t;
    pump t
  end
  else if
    Bytebuf.length seg.Segment.payload = 0
    && (not seg.Segment.flags.Segment.fin)
    && t.inflight <> []
  then begin
    t.stats.dup_acks <- t.stats.dup_acks + 1;
    t.dupack_count <- t.dupack_count + 1;
    if t.dupack_count = 3 then begin
      (* Fast retransmit + simplified Reno halving. *)
      t.stats.fast_retransmits <- t.stats.fast_retransmits + 1;
      Obs.Counter.incr (Obs.Registry.counter "tcp.fast_retransmits");
      trace t "fast retransmit at snd_una=%d (3 dup acks)" t.snd_una;
      let flight = float_of_int (t.snd_nxt - t.snd_una) in
      t.ssthresh <- Float.max (flight /. 2.0) (2.0 *. float_of_int t.config.mss);
      t.cwnd <- t.ssthresh;
      (match t.inflight with
      | seg :: _ -> retransmit t seg
      | [] -> ());
      arm_rto t
    end
    else pump t (* the window may have opened *)
  end
  else pump t

let process_data t (seg : Segment.t) =
  let payload_len = Bytebuf.length seg.Segment.payload in
  if payload_len = 0 && not seg.Segment.flags.Segment.fin then ()
  else begin
    control t (* in-order test against rcv_nxt *);
    let seq_abs = Seq32.unwrap ~near:(Reorder.rcv_nxt t.reorder) seg.Segment.seq in
    if seg.Segment.flags.Segment.fin then
      t.peer_fin_off <- Some (seq_abs + payload_len);
    let before = Reorder.rcv_nxt t.reorder in
    let ready =
      if payload_len > 0 then Reorder.offer t.reorder ~off:seq_abs seg.Segment.payload
      else []
    in
    List.iter
      (fun chunk ->
        let n = Bytebuf.length chunk in
        t.stats.bytes_delivered <- t.stats.bytes_delivered + n;
        (* Moving into application space: the final unavoidable copy. *)
        t.stats.manip_copy_bytes <- t.stats.manip_copy_bytes + n;
        t.deliver chunk)
      ready;
    let buffered = float_of_int (Reorder.buffered_bytes t.reorder) in
    Obs.Gauge.set (Obs.Registry.gauge "tcp.reorder.buffered_bytes") buffered;
    Obs.Gauge.observe_max
      (Obs.Registry.gauge "tcp.reorder.buffered_peak_bytes")
      buffered;
    let after = Reorder.rcv_nxt t.reorder in
    (if (not t.peer_closed) && t.peer_fin_off = Some after then begin
       t.peer_closed <- true;
       t.close_cb ()
     end);
    if after = before && payload_len > 0 && seq_abs <> before then begin
      (* Out of order: duplicate ACK right away, as TCP does. *)
      trace t "out-of-order seq=%d (expecting %d, %d B parked)" seq_abs before
        (Reorder.buffered_bytes t.reorder);
      send_ack t
    end
    else schedule_ack t
  end

let handle_packet t (pkt : Packet.t) =
  control t (* demultiplexed to this connection *);
  t.stats.manip_checksum_bytes <-
    t.stats.manip_checksum_bytes + Bytebuf.length pkt.Packet.payload;
  match Segment.decode pkt.Packet.payload with
  | Error _ -> t.stats.segs_discarded <- t.stats.segs_discarded + 1
  | Ok seg ->
      t.stats.segs_received <- t.stats.segs_received + 1;
      if seg.Segment.flags.Segment.ack then process_ack t seg;
      process_data t seg

let create ~engine ~node ~peer ?(config = default_config) () =
  let t =
    {
      engine;
      node;
      peer;
      config;
      stats = fresh_stats ();
      next_id = Packet.counter ();
      rto = Rt.Rto.create ();
      snd_una = config.isn;
      snd_nxt = config.isn;
      send_q = [];
      send_q_bytes = 0;
      inflight = [];
      cwnd = float_of_int (config.initial_cwnd_mss * config.mss);
      ssthresh = infinity;
      rwnd = config.recv_capacity;
      dupack_count = 0;
      rto_timer = None;
      fin_queued = false;
      fin_sent = false;
      fin_acked = false;
      reorder =
        Reorder.create ~capacity:config.recv_capacity
          ~initial_offset:config.peer_isn;
      deliver = (fun _ -> ());
      close_cb = (fun () -> ());
      peer_fin_off = None;
      peer_closed = false;
      ack_timer = None;
      ack_due = false;
      tracer = None;
    }
  in
  Node.attach node ~proto:config.proto (handle_packet t);
  t

let send t data =
  if t.fin_queued then invalid_arg "Tcp.send: already finished";
  if Bytebuf.length data > 0 then begin
    t.send_q <- t.send_q @ [ data ];
    t.send_q_bytes <- t.send_q_bytes + Bytebuf.length data;
    pump t
  end

let send_string t s = send t (Bytebuf.of_string s)

let finish t =
  if not t.fin_queued then begin
    t.fin_queued <- true;
    pump t
  end
