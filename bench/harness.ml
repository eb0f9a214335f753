(* Shared measurement and table-printing helpers for the experiment
   harness. Micro-benchmarks go through Bechamel (OLS over run counts);
   macro experiments that execute a whole data path once use the
   process-time stopwatch. *)

open Bechamel
open Toolkit

let quota = ref 0.5

(* --- Machine-readable results --- *)

(* Every throughput measurement is also appended here and dumped as one
   JSON array at the end of the run (BENCH_ilp.json), so results can be
   diffed across revisions. Measurement names repeat between experiments
   ("copy" is measured by E1, E2 and E3), so entries are qualified as
   "<experiment>/<measurement>" by [set_experiment]. *)
let experiment = ref ""
let set_experiment name = experiment := name

let records : Obs.Json.t list ref = ref []

let record_measurement ~name ~bytes ~ns ~mbps =
  if Float.is_finite ns && Float.is_finite mbps then begin
    let qualified =
      if !experiment = "" then name else !experiment ^ "/" ^ name
    in
    records :=
      Obs.Json.Obj
        [
          ("name", Obs.Json.Str qualified);
          ("bytes", Obs.Json.num_of_int bytes);
          ("mbps", Obs.Json.Num mbps);
          ("ns_per_run", Obs.Json.Num ns);
        ]
      :: !records
  end

(* Append a custom machine-readable row alongside the throughput
   measurements — experiments use this to carry non-throughput gate
   fields (allocation and GC-word counts) into the JSON output.
   Qualified like measurements: "<experiment>/<name>". *)
let record_row ~name fields =
  let qualified = if !experiment = "" then name else !experiment ^ "/" ^ name in
  records :=
    Obs.Json.Obj (("name", Obs.Json.Str qualified) :: fields) :: !records

let recorded_count () = List.length !records

let write_json path =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string_pretty (Obs.Json.Arr (List.rev !records)));
  output_char oc '\n';
  close_out oc

(* Nanoseconds per run of [fn], by linear regression. *)
let ns_per_run name fn =
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second !quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimate = ref nan in
  Hashtbl.iter
    (fun _ o ->
      match Analyze.OLS.estimates o with
      | Some (e :: _) -> estimate := e
      | Some [] | None -> ())
    results;
  !estimate

(* How many times faster [fast] runs than [slow], from seven pairs of
   adjacent windows, alternating which side goes first, reduced to the
   median ratio. Timing the two sides in separate back-to-back windows
   lets one host-speed swing land between them and skew the ratio; paired
   and medianed, a swing spoils at most the pair it falls in. *)
let paired_speedup ~name fast slow =
  let pairs = 7 in
  let ratios =
    Array.init pairs (fun i ->
        if i mod 2 = 0 then
          let f = ns_per_run name fast in
          ns_per_run name slow /. f
        else
          let s = ns_per_run name slow in
          s /. ns_per_run name fast)
  in
  Array.sort Float.compare ratios;
  ratios.(pairs / 2)

(* Megabits of payload per second given bytes processed per run. *)
let mbps ~bytes ~ns = 8.0 *. float_of_int bytes /. ns *. 1000.0

let measure_mbps name ~bytes fn =
  let ns = ns_per_run name fn in
  let v = mbps ~bytes ~ns in
  record_measurement ~name ~bytes ~ns ~mbps:v;
  v

(* One-shot stopwatch over a macro operation repeated [runs] times;
   returns seconds per run of CPU time. *)
let seconds_per_run ?(runs = 5) fn =
  fn () (* warm up *);
  let t0 = Sys.time () in
  for _ = 1 to runs do
    fn ()
  done;
  (Sys.time () -. t0) /. float_of_int runs

(* --- Table printing --- *)

let heading title =
  Printf.printf "\n=== %s ===\n" title

let subheading text = Printf.printf "--- %s ---\n" text

let row_header cols =
  Printf.printf "%-34s" "";
  List.iter (fun c -> Printf.printf "%18s" c) cols;
  print_newline ();
  Printf.printf "%s\n" (String.make (34 + (18 * List.length cols)) '-')

let row label cells =
  Printf.printf "%-34s" label;
  List.iter (fun v -> Printf.printf "%18s" v) cells;
  print_newline ()

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
let note fmt = Printf.printf fmt
