(* The perfcheck gate list (bench/gates.ml). For each group the test
   builds rows in memory that put every gate's field exactly at its bound,
   or just inside a strict one; every gate must pass on them, and each must
   fail when its value crosses its bound, when its field is missing or not
   a number, and when its row is missing. *)

open Gates

let groups =
  [
    ("ilp", Ilp);
    ("schema", Schema);
    ("secure", Secure);
    ("udp", Udp);
    ("serve", Serve);
    ("hostile", Hostile);
  ]

let num x = Obs.Json.Num x

(* The value at or just inside a bound, and one just past it. *)
let safe = function
  | At_least x | At_most x -> num x
  | Above x -> num (Float.succ x)
  | Below x -> num (Float.pred x)
  | Zero -> num 0.
  | Is_true -> Obs.Json.Bool true

let past = function
  | At_least x -> num (Float.pred x)
  | At_most x -> num (Float.succ x)
  | Above x | Below x -> num x
  | Zero -> num (Float.succ 0.)
  | Is_true -> Obs.Json.Bool false

let applies gate n =
  match gate.rows with
  | Row m -> m = n
  | Every -> true
  | Carrying (f, _) -> String.starts_with ~prefix:f n

(* Rows named after the gates' selectors: each named row, [n] rows for a
   field that [n] rows must carry, and one more that only [Every] reads. *)
let rows_for gates =
  let names =
    List.concat_map
      (fun g ->
        match g.rows with
        | Row n -> [ n ]
        | Carrying (f, k) -> List.init k (fun i -> f ^ string_of_int i)
        | Every -> [ "plain" ])
      gates
    |> List.sort_uniq compare
  in
  List.map
    (fun n ->
      let fields =
        List.concat_map
          (fun g ->
            if applies g n then [ (g.field, safe g.bound) ] else [])
          gates
      in
      Obs.Json.Obj (("name", Obs.Json.Str n) :: fields))
    names

let edit n f rows =
  List.map
    (fun r ->
      match r with
      | Obs.Json.Obj fields when name r = n -> Obs.Json.Obj (f fields)
      | r -> r)
    rows

let set n field v =
  edit n (List.map (fun (k, x) -> (k, if k = field then v else x)))

let remove n field = edit n (List.filter (fun (k, _) -> k <> field))
let passes rows g = Result.is_ok (eval rows g)

(* The last row a gate reads, so a gate that stopped at its first row
   would miss the change. *)
let target rows g =
  List.filter (fun r -> applies g (name r)) rows |> List.rev |> List.hd |> name

let describe g =
  Printf.sprintf "%s %s %s" (rows_text g.rows) g.field (bound_text g.bound)

let check_only gates rows g what =
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: %s" (describe g) what (describe o))
        (o != g) (passes rows o))
    gates

let test_passes group () =
  let gates = of_group group in
  Alcotest.(check bool) "the group has gates" true (gates <> []);
  let rows = rows_for gates in
  List.iter
    (fun g ->
      match eval rows g with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s fails at its bound: %s" (describe g) e)
    gates

let test_crossing group () =
  let gates = of_group group in
  let rows = rows_for gates in
  List.iter
    (fun g ->
      let n = target rows g in
      check_only gates (set n g.field (past g.bound) rows) g "past its bound";
      check_only gates (set n g.field (Obs.Json.Str "1") rows) g "not a number")
    gates

let test_missing group () =
  let gates = of_group group in
  let rows = rows_for gates in
  List.iter
    (fun g ->
      let n = target rows g in
      Alcotest.(check bool)
        (describe g ^ " fails without its field")
        false
        (passes (remove n g.field rows) g);
      let without_row = List.filter (fun r -> name r <> n) rows in
      let without_row = if g.rows = Every then [] else without_row in
      Alcotest.(check bool)
        (describe g ^ " fails without its row")
        false (passes without_row g))
    gates

let test_no_rows group () =
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (describe g ^ " fails on no rows")
        false (passes [] g))
    (of_group group)

let test_one_hostile_row () =
  let gates = of_group Hostile in
  let rows = rows_for gates in
  let one = List.filter (fun r -> name r <> "hostile_ratio1") rows in
  Alcotest.(check bool) "two hostile rows pass" true
    (List.for_all (passes rows) gates);
  List.iter
    (fun g ->
      match g.rows with
      | Carrying ("hostile_ratio", _) ->
          Alcotest.(check bool) (describe g ^ " fails on one hostile row") false
            (passes one g)
      | _ -> ())
    gates

let () =
  Alcotest.run "perfcheck"
    (List.map
       (fun (label, group) ->
         ( label,
           [
             Alcotest.test_case "every gate passes at its bound" `Quick
               (test_passes group);
             Alcotest.test_case "each gate fails alone past its bound" `Quick
               (test_crossing group);
             Alcotest.test_case "each gate fails without its field or row"
               `Quick (test_missing group);
           ] ))
       groups
    @ [
        ( "row counts",
          [
            Alcotest.test_case "--serve fails on zero rows" `Quick
              (test_no_rows Serve);
            Alcotest.test_case "--hostile fails on zero rows" `Quick
              (test_no_rows Hostile);
            Alcotest.test_case "--hostile fails on one hostile row" `Quick
              test_one_hostile_row;
          ] );
      ])
