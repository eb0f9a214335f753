type t = {
  mutable running : bool;
  mutable count : int;
  mutable bytes : int;
}

let stop t = t.running <- false
let emitted t = t.count
let emitted_bytes t = t.bytes

let make_source ~engine ~until ~payload_bytes ~emit ~next_gap =
  let t = { running = true; count = 0; bytes = 0 } in
  let expired () =
    match until with Some horizon -> Engine.now engine >= horizon | None -> false
  in
  let rec tick () =
    if t.running && not (expired ()) then begin
      emit (Bufkit.Bytebuf.create payload_bytes);
      t.count <- t.count + 1;
      t.bytes <- t.bytes + payload_bytes;
      ignore (Engine.schedule_after engine (next_gap ()) tick)
    end
  in
  ignore (Engine.schedule_after engine 0.0 tick);
  t

let cbr ~engine ~rate_bps ~payload_bytes ?until ~emit () =
  if rate_bps <= 0.0 then invalid_arg "Workload.cbr: rate must be positive";
  let gap = 8.0 *. float_of_int payload_bytes /. rate_bps in
  make_source ~engine ~until ~payload_bytes ~emit ~next_gap:(fun () -> gap)

let poisson ~engine ~rng ~mean_rate_pps ~payload_bytes ?until ~emit () =
  if mean_rate_pps <= 0.0 then invalid_arg "Workload.poisson: rate must be positive";
  let mean = 1.0 /. mean_rate_pps in
  make_source ~engine ~until ~payload_bytes ~emit ~next_gap:(fun () ->
      Rng.exponential rng ~mean)

let on_off ~engine ~rng ~rate_bps ~payload_bytes ~mean_on ~mean_off ?until
    ~emit () =
  if rate_bps <= 0.0 then invalid_arg "Workload.on_off: rate must be positive";
  if mean_on <= 0.0 || mean_off <= 0.0 then
    invalid_arg "Workload.on_off: periods must be positive";
  let gap = 8.0 *. float_of_int payload_bytes /. rate_bps in
  (* Remaining ON time before the next silence; replenished when spent. *)
  let on_left = ref (Rng.exponential rng ~mean:mean_on) in
  let next_gap () =
    if !on_left >= gap then begin
      on_left := !on_left -. gap;
      gap
    end
    else begin
      let off = Rng.exponential rng ~mean:mean_off in
      on_left := Rng.exponential rng ~mean:mean_on;
      gap +. off
    end
  in
  make_source ~engine ~until ~payload_bytes ~emit ~next_gap
