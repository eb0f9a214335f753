(* Performance gate over the machine-readable bench output: evaluates one
   group of the gates in bench/gates.ml against one JSON file, prints a
   line per gate and exits 1 when any fails. With no flag the group is
   E2, E14 and E15 over BENCH_ilp.json; each flag picks another group and
   the file it reads when none is named. *)

let flags =
  [
    ("--schema", Gates.Schema, "BENCH_ilp.json");
    ("--secure", Gates.Secure, "BENCH_ilp.json");
    ("--hostile", Gates.Hostile, "BENCH_hostile.json");
    ("--serve", Gates.Serve, "BENCH_scale.json");
    ("--udp", Gates.Udp, "BENCH_udp.json");
  ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfcheck: " ^ s);
      exit 1)
    fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let group, default =
    match List.find_opt (fun (f, _, _) -> List.mem f args) flags with
    | Some (_, g, file) -> (g, file)
    | None -> (Gates.Ilp, "BENCH_ilp.json")
  in
  let is_flag a = List.exists (fun (f, _, _) -> f = a) flags in
  let path =
    match List.filter (fun a -> not (is_flag a)) args with
    | p :: _ -> p
    | [] -> default
  in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> die "cannot read %s (%s)" path msg
  in
  let rows =
    match Obs.Json.parse text with
    | Ok (Obs.Json.Arr rows) -> rows
    | Ok _ -> die "%s: expected a top-level JSON array" path
    | Error e -> die "%s: %s" path e
  in
  let gates = Gates.of_group group in
  let failed =
    List.fold_left
      (fun failed (g : Gates.gate) ->
        let verdict, reading, failed =
          match Gates.eval rows g with
          | Ok r -> ("ok", r, failed)
          | Error r -> ("FAIL", r, failed + 1)
        in
        Printf.printf "perfcheck: %-4s %s %s %s [%s]: %s\n" verdict
          (Gates.rows_text g.rows) g.field (Gates.bound_text g.bound) reading
          g.why;
        failed)
      0 gates
  in
  let total = List.length gates in
  if failed > 0 then die "%d of %d gates failed in %s" failed total path;
  Printf.printf "perfcheck: all %d gates hold in %s\n" total path
