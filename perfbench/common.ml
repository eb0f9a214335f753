(* What every workload shares: the per-round record, the measurement
   brackets around a timed phase, and the latency sample store. *)

type round = {
  traced : bool;
  mutable setup_ns : int;  (* first constructor call to first ADU sent *)
  mutable wall_ns : int;  (* the timed phase *)
  mutable cpu_s : float;  (* process user + system CPU in the timed phase *)
  mutable words : float;  (* Gc.minor_words delta in the timed phase *)
  mutable promoted : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable attempted : int;  (* ADUs the generator set out to deliver *)
  mutable intact : int;  (* distinct ADUs delivered intact *)
  mutable wire_bytes : int;  (* handed to the substrate, both directions *)
  mutable lat_p50_us : float;  (* over this round's ADUs *)
  mutable lat_p99_us : float;
  mutable factor : float;  (* host-speed correction of this round ({!Calib}) *)
  mutable probe_us : float array;  (* mean time of each probe kernel *)
  mutable violations : string list;
  counts : (string, float) Hashtbl.t;  (* raw per-layer numbers *)
}

let new_round ~traced =
  {
    traced;
    setup_ns = 0;
    wall_ns = 0;
    cpu_s = 0.;
    words = 0.;
    promoted = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    attempted = 0;
    intact = 0;
    wire_bytes = 0;
    lat_p50_us = 0.;
    lat_p99_us = 0.;
    factor = 1.;
    probe_us = [||];
    violations = [];
    counts = Hashtbl.create 64;
  }

let seti r key v = Hashtbl.replace r.counts key (float_of_int v)
let get r key = Option.value (Hashtbl.find_opt r.counts key) ~default:0.

(* Set by [--inject-mismatch]: each workload's application treats the
   first ADU of a round as corrupted, so the smoke test can prove that a
   failed check fails the run. *)
let inject_mismatch = ref false

let fail r fmt =
  Printf.ksprintf (fun s -> r.violations <- s :: r.violations) fmt

let check r ok fmt =
  Printf.ksprintf (fun s -> if not ok then r.violations <- s :: r.violations) fmt

(* ---- instruments shared by the workloads ---- *)

(* The substrate as the round sees it: every byte handed to [send] is
   counted as wire bytes, each send runs inside [send_span], and with
   [handler_span] each bound handler runs inside that span. *)
let counting_io r ~send_span ?handler_span (io : Alf_core.Dgram.t) =
  let send ~dst ~dst_port ~src_port buf =
    r.wire_bytes <- r.wire_bytes + Bufkit.Bytebuf.length buf;
    Span.enter send_span ~session:(-1) ~index:(-1);
    let ok = io.Alf_core.Dgram.send ~dst ~dst_port ~src_port buf in
    Span.leave ();
    ok
  in
  let bind =
    match handler_span with
    | None -> io.Alf_core.Dgram.bind
    | Some span ->
        fun ~port handler ->
          io.Alf_core.Dgram.bind ~port (fun ~src ~src_port buf ->
              Span.enter span ~session:(-1) ~index:(-1);
              handler ~src ~src_port buf;
              Span.leave ())
  in
  { io with Alf_core.Dgram.send; bind }

(* Traced rounds only: every callback an endpoint schedules (harvest,
   pacing, CLOSE retry, NACK loop) runs inside [span]. *)
let timer_sched span (s : Rt.Sched.t) =
  {
    s with
    Rt.Sched.schedule =
      (fun delay f ->
        s.Rt.Sched.schedule delay (fun () ->
            Span.enter span ~session:(-1) ~index:(-1);
            f ();
            Span.leave ()));
  }

(* ---- measurement brackets ---- *)

type mark = {
  m_ns : int;
  m_probe_ns : int;
  m_probe_words : float;
  m_cpu : float;
  m_words : float;
  m_promoted : float;
  m_minor : int;
  m_major : int;
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let mark_start () =
  Calib.reset ();
  Calib.sample ();
  let g = Gc.quick_stat () in
  let c = cpu () in
  let w = Gc.minor_words () in
  {
    m_probe_ns = !Calib.spent_ns;
    m_probe_words = Float.Array.get Calib.spent_words 0;
    m_ns = Clock.now_ns ();
    m_cpu = c;
    m_words = w;
    m_promoted = g.Gc.promoted_words;
    m_minor = g.Gc.minor_collections;
    m_major = g.Gc.major_collections;
  }

(* Closes a timed phase opened by [mark_start] into the round. The probe
   samples taken inside it, between windows, are taken back out of its
   wall time, CPU time and allocation; one sample on each side of it,
   outside, completes the round's host-speed factor. *)
let mark_stop r m =
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let c1 = cpu () in
  let g = Gc.quick_stat () in
  let probe_ns = !Calib.spent_ns - m.m_probe_ns in
  let probe_words = Float.Array.get Calib.spent_words 0 -. m.m_probe_words in
  Calib.sample ();
  r.factor <- Calib.factor ();
  r.probe_us <- Calib.means_us ();
  r.wall_ns <- r.wall_ns + (t1 - m.m_ns - probe_ns);
  r.cpu_s <- r.cpu_s +. (c1 -. m.m_cpu) -. (float_of_int probe_ns /. 1e9);
  r.words <- r.words +. (w1 -. m.m_words -. probe_words);
  r.promoted <- r.promoted +. (g.Gc.promoted_words -. m.m_promoted);
  r.minor_gcs <- r.minor_gcs + (g.Gc.minor_collections - m.m_minor);
  r.major_gcs <- r.major_gcs + (g.Gc.major_collections - m.m_major)

(* Between rounds, outside every timed phase: return the previous
   round's engine, pools and sockets to the allocator so each round
   starts from the same heap. *)
let quiesce () =
  Gc.full_major ();
  Gc.compact ()

(* ---- latency samples (microseconds) ----

   The store holds one round's samples. It is emptied and grown between
   rounds ({!reserve}), never inside one, so recording a sample is a
   bounds check and an unboxed store. *)

let lat = ref (Float.Array.make 0 0.)
let lat_n = ref 0
let recording = ref false

(* Empties the store and makes room for [k] samples. *)
let reserve k =
  lat_n := 0;
  if Float.Array.length !lat < k then lat := Float.Array.make k 0.

let[@inline] add_latency ns =
  if !recording then begin
    let n = !lat_n in
    if n < Float.Array.length !lat then begin
      Float.Array.unsafe_set !lat n (float_of_int ns /. 1e3);
      lat_n := n + 1
    end
  end

(* Nearest-rank quantiles over the samples recorded since {!reserve}. *)
let quantiles qs =
  let n = !lat_n in
  let a = Array.init n (fun i -> Float.Array.get !lat i) in
  Array.sort Float.compare a;
  List.map
    (fun q ->
      if n = 0 then 0.
      else
        let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
        a.(max 0 (min (n - 1) k)))
    qs

(* ---- process facts ---- *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v
