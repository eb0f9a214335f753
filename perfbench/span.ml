(* Spans at public-call boundaries, recorded into preallocated arrays.

   A span is opened and closed around one call into the program (a
   [Dgram.t] send, a bound handler, a loop run, a [Server.pump]...). Each
   close adds the span's wall time and [Gc.minor_words] delta to its
   name's totals and to its parent's child totals, so a name's {e self}
   cost is its duration minus its children's. Nothing here allocates on
   the open/close path, and both are a single branch when tracing is
   off. The first [log_cap] spans of the logged window are also kept
   individually for the Chrome-trace file. *)

let names =
  [|
    "gen.step";
    "gen.handle";
    "rt.poll";
    "rt.send";
    "netsim.run";
    "netsim.send";
    "serve.ingest";
    "serve.pump";
    "serve.harvest";
    "app.deliver";
    "tx.send_value";
    "tx.timer";
    "rx.stage1";
    "rx.stage2";
    "rx.timer";
  |]

let gen_step = 0
let gen_handle = 1
let rt_poll = 2
let rt_send = 3
let netsim_run = 4
let netsim_send = 5
let serve_ingest = 6
let serve_pump = 7
let serve_harvest = 8
let app_deliver = 9
let tx_send_value = 10
let tx_timer = 11
let rx_stage1 = 12
let rx_stage2 = 13
let rx_timer = 14
let n = Array.length names
let on = ref false

(* The open-span stack. *)
let max_depth = 64
let depth = ref 0
let st_id = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_w0 = Float.Array.make max_depth 0.
let st_child_ns = Array.make max_depth 0
let st_child_w = Float.Array.make max_depth 0.
let st_ev = Array.make max_depth (-1)

(* Per-name totals. *)
let count = Array.make n 0
let incl_ns = Array.make n 0
let self_ns = Array.make n 0
let incl_w = Float.Array.make n 0.
let self_w = Float.Array.make n 0.
let top_ns = ref 0

(* The individual-span log, allocated only when a traced run asks. *)
type log = {
  l_id : int array;
  l_t0 : int array;
  l_t1 : int array;
  l_parent : int array;
  l_session : int array;
  l_index : int array;
  mutable l_n : int;
  mutable l_dropped : int;
}

let log_cap = 200_000
let log : log option ref = ref None
let logging = ref false

let start_log () =
  (match !log with
  | Some _ -> ()
  | None ->
      log :=
        Some
          {
            l_id = Array.make log_cap 0;
            l_t0 = Array.make log_cap 0;
            l_t1 = Array.make log_cap 0;
            l_parent = Array.make log_cap (-1);
            l_session = Array.make log_cap (-1);
            l_index = Array.make log_cap (-1);
            l_n = 0;
            l_dropped = 0;
          });
  logging := true

let stop_log () = logging := false

let enter id ~session ~index =
  if !on then begin
    let d = !depth in
    st_id.(d) <- id;
    st_child_ns.(d) <- 0;
    Float.Array.set st_child_w d 0.;
    (if !logging then
       match !log with
       | Some l when l.l_n < log_cap ->
           let e = l.l_n in
           l.l_n <- e + 1;
           l.l_id.(e) <- id;
           l.l_parent.(e) <- (if d > 0 then st_ev.(d - 1) else -1);
           l.l_session.(e) <- session;
           l.l_index.(e) <- index;
           st_ev.(d) <- e
       | Some l ->
           l.l_dropped <- l.l_dropped + 1;
           st_ev.(d) <- -1
       | None -> st_ev.(d) <- -1
     else st_ev.(d) <- -1);
    depth := d + 1;
    Float.Array.set st_w0 d (Gc.minor_words ());
    let t0 = Clock.now_ns () in
    st_t0.(d) <- t0;
    let e = st_ev.(d) in
    if e >= 0 then match !log with Some l -> l.l_t0.(e) <- t0 | None -> ()
  end

let leave () =
  if !on then begin
    let t1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    let d = !depth - 1 in
    depth := d;
    let id = st_id.(d) in
    let dt = t1 - st_t0.(d) in
    let dw = w1 -. Float.Array.get st_w0 d in
    count.(id) <- count.(id) + 1;
    incl_ns.(id) <- incl_ns.(id) + dt;
    self_ns.(id) <- self_ns.(id) + dt - st_child_ns.(d);
    Float.Array.set incl_w id (Float.Array.get incl_w id +. dw);
    Float.Array.set self_w id
      (Float.Array.get self_w id +. dw -. Float.Array.get st_child_w d);
    if d > 0 then begin
      st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dt;
      Float.Array.set st_child_w (d - 1) (Float.Array.get st_child_w (d - 1) +. dw)
    end
    else top_ns := !top_ns + dt;
    let e = st_ev.(d) in
    if e >= 0 then match !log with Some l -> l.l_t1.(e) <- t1 | None -> ()
  end

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome path =
  match !log with
  | None -> ()
  | Some l ->
      let oc = open_out path in
      let base = if l.l_n > 0 then l.l_t0.(0) else 0 in
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
      for e = 0 to l.l_n - 1 do
        if e > 0 then output_string oc ",\n";
        Printf.fprintf oc
          "{\"name\":\"%s\",\"cat\":\"alfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"session\":%d,\"index\":%d}}"
          names.(l.l_id.(e))
          (float_of_int (l.l_t0.(e) - base) /. 1e3)
          (float_of_int (max 0 (l.l_t1.(e) - l.l_t0.(e))) /. 1e3)
          e l.l_parent.(e) l.l_session.(e) l.l_index.(e)
      done;
      Printf.fprintf oc "\n],\"otherData\":{\"spans_logged\":%d,\"spans_not_logged\":%d}}\n"
        l.l_n l.l_dropped;
      close_out oc
