(* The host-speed probe, and the correction every reported time gets.

   On a shared host the core's speed moves with what other tenants run.
   On the 2-vCPU VM this benchmark was written on, serve-small rounds of
   identical work took anywhere from 450 to 1050 ms, in states lasting
   seconds to minutes; ten runs of one workload spread by up to 27%
   between their quartiles. So the benchmark samples fixed probe
   kernels between closed-loop windows, when nothing is in flight, and
   scales each round's times by how fast the probes ran in that round:

     reported time = measured time * factor,
     factor = geometric mean over the probes p of (reference_p / mean_p)

   so a round run while the host is half as fast as the reference is
   reported at reference speed. The probes are frozen code that shares
   nothing with the program, so a change to the program cannot move
   them. Each workload samples the kinds of work it does itself: every
   workload allocates, walks hash tables and misses the caches; the
   socket workloads also make syscalls, where the simulator spends that
   share on register arithmetic. On ten-run sets the correction brought
   the quartile spread of goodput from 0.27 to 0.04 on serve-small,
   from 0.24 to 0.05 on stream-sealed and from 0.06 to 0.03 on
   serve-lossy. The raw times are printed beside the corrected ones,
   and the probe time, CPU and allocation are taken back out of the
   timed phase. *)

type probe = Alu | Mem | Sys | Churn

let index = function Alu -> 0 | Mem -> 1 | Sys -> 2 | Churn -> 3

(* Nanoseconds per sample on the reference core: the host above in its
   common state. They only fix the unit; any constant would do. *)
let reference = [| 35_000.; 100_000.; 25_000.; 60_000. |]

(* A multiply/xorshift chain; with [loads] each step also loads from the
   4 MB table at a data-dependent index (past L2, into a shared L3). *)
let table_words = 1 lsl 19
let table = lazy (Array.init table_words (fun i -> i * 2654435761 land (table_words - 1)))

let chain ~loads n =
  let table = Lazy.force table in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to n do
    let v = !x in
    let v = v lxor (v lsl 13) land 0xffffffff in
    let v = v lxor (v lsr 7) in
    let v = v * 0x9E3779B1 land 0xffffffff in
    x := v;
    if loads then
      acc := !acc + Array.unsafe_get table ((v + !acc) land (table_words - 1))
    else acc := !acc + (v lsr 3)
  done;
  !acc

(* Loopback round trips of a 123-byte datagram on a private socket. *)
type sock = { fd : Unix.file_descr; addr : Unix.sockaddr; buf : Bytes.t }

let sock =
  lazy
    (let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
     { fd; addr = Unix.getsockname fd; buf = Bytes.create 128 })

let round_trips n =
  let s = Lazy.force sock in
  for _ = 1 to n do
    ignore (Unix.sendto s.fd s.buf 0 123 [] s.addr);
    ignore (Unix.recv s.fd s.buf 0 128 [])
  done;
  0

(* Allocation and hash-table traffic, like the engines' session tables;
   emptied at the end of each sample so nothing it allocates survives
   into the program's collections. *)
type entry = { key : int; mutable hits : int }

let churn_table : (int, entry) Hashtbl.t = Hashtbl.create 4096

let churn n =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to n do
    x := ((!x * 1103515245) + 12345) land 0xffffff;
    let k = !x land 2047 in
    match Hashtbl.find_opt churn_table k with
    | Some e ->
        e.hits <- e.hits + 1;
        acc := !acc + e.key;
        if e.hits > 3 then Hashtbl.remove churn_table k
    | None -> Hashtbl.replace churn_table k { key = !x; hits = 0 }
  done;
  Hashtbl.clear churn_table;
  !acc

let run = function
  | Alu -> chain ~loads:false 6000
  | Mem -> chain ~loads:true 400
  | Sys -> round_trips 4
  | Churn -> churn 750

let all = [| Alu; Mem; Sys; Churn |]

(* The kernels the factor uses; every sample times all four, so the
   round table shows each one. *)
let probes = ref [||]
let totals = Array.make 4 0
let samples = ref 0
let spent_ns = ref 0  (* wall time of every sample since [reset] *)
let spent_words = Float.Array.make 1 0.  (* their minor words, unboxed *)

let init ps =
  probes := ps;
  ignore (Lazy.force table, Lazy.force sock);
  Array.iter (fun p -> ignore (run p)) all

let reset () =
  Array.fill totals 0 4 0;
  samples := 0;
  spent_ns := 0;
  Float.Array.set spent_words 0 0.

let sample () =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  Array.iter
    (fun p ->
      let t = Clock.now_ns () in
      ignore (Sys.opaque_identity (run p));
      totals.(index p) <- totals.(index p) + (Clock.now_ns () - t))
    all;
  spent_ns := !spent_ns + (Clock.now_ns () - t0);
  Float.Array.set spent_words 0
    (Float.Array.get spent_words 0 +. (Gc.minor_words () -. w0));
  incr samples

(* One probe sample every eighth closed-loop turn: about 1.5% of a serve
   turn, all of it taken back out of the timed phase. *)
let turns = ref 0

let tick () =
  incr turns;
  if !turns land 7 = 0 then sample ()

(* The factor for the samples since [reset] (1 without samples). *)
let factor () =
  let ps = !probes in
  if !samples = 0 || Array.length ps = 0 then 1.
  else
    let n = float_of_int !samples in
    let logs =
      Array.fold_left
        (fun acc p ->
          let mean = float_of_int (max 1 totals.(index p)) /. n in
          acc +. log (reference.(index p) /. mean))
        0. ps
    in
    exp (logs /. float_of_int (Array.length ps))

(* Mean microseconds per sample of each kernel, in [all] order. *)
let means_us () =
  Array.map
    (fun p -> float_of_int totals.(index p) /. float_of_int (max 1 !samples) /. 1e3)
    all

let close () = if Lazy.is_val sock then Unix.close (Lazy.force sock).fd
