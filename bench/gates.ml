(* Every bound `perfcheck` holds the bench outputs to, and the one checker
   that reads them. A gate holds one field of the rows it names (one row,
   every row, or every row that carries a given field) to one bound, and
   says why in one line. A missing row or field, or a value of the wrong
   type, fails the gate: nothing is skipped. The ratios are medians of
   interleaved timing pairs that the bench records in gate rows, so host
   speed and quota cancel out. *)

type group = Ilp | Schema | Secure | Udp | Serve | Hostile

type rows =
  | Row of string  (** the row of this name *)
  | Every  (** every row, at least one *)
  | Carrying of string * int  (** every row with this field, at least n *)

type bound =
  | At_least of float
  | Above of float
  | At_most of float
  | Below of float
  | Zero
  | Is_true

type gate = {
  group : group;
  rows : rows;
  field : string;
  bound : bound;
  why : string;
}

let g group rows field bound why = { group; rows; field; bound; why }

let marshal codec =
  let r = Row ("ilp-marshal/" ^ codec ^ "/gate") in
  [
    g Ilp r "fused_vs_serial" (At_least 1.5)
      "E15: fused marshal+checksum+deliver beats encode, checksum, copy";
    g Ilp r "fused_vs_encode_only" (At_least 0.8)
      "E15: near the bare cursor encode, as the paper's 28 -> 24 Mb/s";
    g Ilp r "fused_vs_marshal_only" (At_least 0.7)
      "E15: the stages cost at most 30% over the bare in-place marshal";
  ]

let e14 = Row "ilp-compile/3stage/gate"
let schema = Row "schema-marshal/gate"
let secure = Row "secure-record/gate"
let udp = Row "udp/fused-send"
let hostile = Carrying ("hostile_ratio", 2)

(* Only one-domain rows carry it: [Gc.minor_words] sees one domain. *)
let one_domain = Carrying ("steady_words_per_adu", 1)

let all =
  [
    g Ilp (Row "ilp-fusion/fused-vs-serial") "median_speedup" (At_least 1.0)
      "E2: the fused copy+checksum loop beats its serial composition";
    g Ilp e14 "compiled_vs_serial" (At_least 2.0)
      "E14: the compiled 3-stage plan doubles serial layered execution";
    g Ilp e14 "compiled_vs_interpreted" (At_least 1.0)
      "E14: the compiled plan beats the per-byte interpreter";
  ]
  @ marshal "xdr" @ marshal "ber"
  @ [
      g Schema schema "compiled_vs_interp" (At_least 1.0)
        "E19: the schema op-program is no slower than tag dispatch";
      g Schema schema "view_vs_decode" (At_least 1.0)
        "E19: the lazy view is no slower than the eager decode";
      g Schema schema "tx_words_per_run" (At_most 90.)
        "E19: GC words per fused marshal stay fixed, whatever the length";
      g Schema schema "rx_words_per_run" (At_most 84.)
        "E19: GC words per view of the 90 KB value stay fixed";
      g Schema schema "steady_allocs" Zero "E19: the marshal makes no Bytebuf";
      g Schema schema "rx_steady_allocs" Zero "E19: the view makes no Bytebuf";
      g Secure secure "fused_vs_serial" (At_least 1.5)
        "E20: the one-pass seal beats the layered encrypt, MAC, checksum";
      g Secure secure "fused_vs_serial_words" (At_least 0.85)
        "E20: the seal is within noise of the word-grain layered bound";
      g Secure secure "open_fused_vs_serial" (At_least 1.3)
        "E20: the one-pass open beats the layered stack";
      g Secure secure "open_fused_vs_words" (At_least 0.8)
        "E20: the open is within noise of the word-grain layered bound";
      g Secure secure "steady_allocs" Zero "E20: the seal makes no Bytebuf";
      g Secure secure "rx_steady_allocs" Zero "E20: the open makes no Bytebuf";
      g Secure secure "rx_words_per_record" (At_most 32.)
        "E20: the record open allocates a few words, whatever its length";
      g Udp udp "mbps" (Above 0.) "E16: the real-socket stream moves data";
      g Udp (Row "netsim/fused-send") "mbps" (Above 0.)
        "E16: the same stream moves through the simulator";
      g Udp udp "steady_allocs_per_adu" Zero "E16: the send makes no Bytebuf";
      g Udp udp "steady_words_per_adu" (At_most 56.)
        "E16: a fixed handful of GC words per 1 KB ADU, not words per byte";
      g Udp udp "ok" Is_true "E16: the stream holds its invariants";
      g Serve Every "ok" Is_true
        "E17: every session DONE, delivered + gone = sent, peak = sessions";
      g Serve Every "adus_per_s" (Above 0.) "E17: every point moves data";
      g Serve Every "pool_allocs_steady" Zero
        "E17: no fresh pool buffer in steady state";
      g Serve one_domain "steady_words_per_adu" (At_most 192.)
        "E17: fewer GC words per 64 B ADU than one per payload byte";
      g Hostile Every "ok" Is_true
        "E18: honest sessions exact, pool flat, every drop reason-coded";
      g Hostile hostile "hostile_ratio" (At_least 0.3)
        "E18: both backends ran at least 30% byzantine traffic";
      g Hostile hostile "dispatch_errors" Zero
        "E18: nothing reached the last-resort dispatch guard";
      g Hostile one_domain "steady_words_per_adu" (At_most 384.)
        "E18: fewer GC words per honest ADU than one per payload byte";
      g Hostile (Row "hostile/stage0-overhead") "overhead_frac" (Below 0.03)
        "E18: stage-0 validation costs under 3% of the clean path";
    ]

let of_group group = List.filter (fun x -> x.group = group) all

let name row =
  match Obs.Json.member "name" row with Some (Obs.Json.Str n) -> n | _ -> "?"

let rows_text = function
  | Row n -> n
  | Every -> "every row"
  | Carrying (f, _) -> "every row with " ^ f

let bound_text = function
  | At_least x -> Printf.sprintf ">= %g" x
  | Above x -> Printf.sprintf "> %g" x
  | At_most x -> Printf.sprintf "<= %g" x
  | Below x -> Printf.sprintf "< %g" x
  | Zero -> "= 0"
  | Is_true -> "true"

(* One row against the gate: [Ok] or [Error] with what it read. *)
let judge gate row =
  let value = Obs.Json.member gate.field row in
  let holds =
    match (gate.bound, value) with
    | Is_true, Some (Obs.Json.Bool b) -> b
    | At_least x, Some (Obs.Json.Num v) -> v >= x
    | Above x, Some (Obs.Json.Num v) -> v > x
    | At_most x, Some (Obs.Json.Num v) -> v <= x
    | Below x, Some (Obs.Json.Num v) -> v < x
    | Zero, Some (Obs.Json.Num v) -> v = 0.
    | _ -> false
  in
  let text =
    match value with
    | None -> "missing"
    | Some (Obs.Json.Num v) -> Printf.sprintf "%g" v
    | Some v -> Obs.Json.to_string v
  in
  if holds then Ok text else Error text

(* The gate over the rows of one file: [Ok] with what it read, or [Error]
   with what failed where. *)
let eval rows gate =
  match gate.rows with
  | Row n -> (
      match List.find_opt (fun r -> name r = n) rows with
      | Some r -> judge gate r
      | None -> Error (Printf.sprintf "no row %S" n))
  | Every | Carrying _ -> (
      let chosen, need =
        match gate.rows with
        | Carrying (f, n) ->
            (List.filter (fun r -> Obs.Json.member f r <> None) rows, n)
        | _ -> (rows, 1)
      in
      let failure r =
        match judge gate r with
        | Ok _ -> None
        | Error v -> Some (Printf.sprintf "%s in %s" v (name r))
      in
      let count = List.length chosen in
      match List.find_map failure chosen with
      | Some e -> Error e
      | None when count < need ->
          Error (Printf.sprintf "%d rows, %d needed" count need)
      | None -> Ok (Printf.sprintf "%d rows" count))
