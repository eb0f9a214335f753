(* alfnet - drive the simulator from the command line.

   Subcommands:
     transfer   move data through a lossy network with either transport
     atm        carry ADUs over ATM cells through an adaptation layer
     syntax     encode a sample value in each transfer syntax
     parallel   shard a batch of ADUs across worker domains (stage 2)
     ilp        compile a manipulation plan and race the three executors
     marshal    fuse presentation conversion into the stage plan (one pass)
     metrics    run an instrumented workload and dump the metrics registry
     soak       sweep impairment x recovery-policy x FEC under fault plans
     udp        the same transport over real loopback UDP sockets (Rt loop)
     secure     the fused AEAD record layer: soak selftest and zero-alloc gate
     serve      the sharded many-session server engine under a load generator

   Examples:
     alfnet transfer --transport alf --loss 0.05 --size 500000
     alfnet transfer --transport tcp --loss 0.05 --reorder 0.2 --jitter 0.01
     alfnet atm --aal 5 --cell-loss 0.002 --adus 200
     alfnet syntax --ints 16
     alfnet parallel --domains 4 --adus 128 --plan decrypt
     alfnet parallel --plan rc4   # demonstrates the in-order degradation
     alfnet ilp --plan swab,crc32,copy --size 1048576
     alfnet ilp --plan xor:42@1000,internet,fletcher32,copy
     alfnet marshal --codec xdr --plan rc4:key,internet,copy
     alfnet soak --smoke --seed 42
     alfnet soak --out BENCH_soak.json
     alfnet udp --adus 10000
     alfnet udp --bench --out BENCH_udp.json
     alfnet udp --soak --smoke
     alfnet secure --smoke
     alfnet serve --sessions 100000 --backend both
     alfnet serve --bench --out BENCH_scale.json
     alfnet serve --hostile --backend both --sessions 4000
     alfnet serve --bench --hostile --out BENCH_hostile.json *)

open Bufkit
open Netsim
open Alf_core
open Cmdliner

(* --- shared network options --- *)

type net_opts = {
  loss : float;
  corrupt : float;
  reorder : float;
  jitter : float;
  bandwidth : float;
  delay : float;
  seed : int;
}

let net_opts_term =
  let loss =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Packet loss probability.")
  in
  let corrupt =
    Arg.(value & opt float 0.0 & info [ "corrupt" ] ~docv:"P" ~doc:"Payload corruption probability.")
  in
  let reorder =
    Arg.(value & opt float 0.0 & info [ "reorder" ] ~docv:"P" ~doc:"Probability of extra jitter delay (reordering).")
  in
  let jitter =
    Arg.(value & opt float 0.0 & info [ "jitter" ] ~docv:"SECONDS" ~doc:"Maximum extra jitter delay.")
  in
  let bandwidth =
    Arg.(value & opt float 10e6 & info [ "bandwidth" ] ~docv:"BPS" ~doc:"Link bandwidth, bits/second.")
  in
  let delay =
    Arg.(value & opt float 0.005 & info [ "delay" ] ~docv:"SECONDS" ~doc:"One-way propagation delay.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed (runs are deterministic per seed).")
  in
  let make loss corrupt reorder jitter bandwidth delay seed =
    { loss; corrupt; reorder; jitter; bandwidth; delay; seed }
  in
  Term.(const make $ loss $ corrupt $ reorder $ jitter $ bandwidth $ delay $ seed)

let build_net opts engine =
  let rng = Rng.create ~seed:(Int64.of_int opts.seed) in
  let impair =
    Impair.make ~loss:opts.loss ~corrupt:opts.corrupt ~reorder:opts.reorder
      ~jitter:opts.jitter ()
  in
  Topology.point_to_point ~engine ~rng ~impair ~queue_limit:1024
    ~bandwidth_bps:opts.bandwidth ~delay:opts.delay ~a:1 ~b:2 ()

(* --- transfer --- *)

let run_transfer transport substrate opts size adu_size policy_name verbose
    show_trace negotiate stripes =
  let engine = Engine.create () in
  let net = build_net opts engine in
  let trace = Trace.create ~capacity:40 engine in
  let data = Bytebuf.create size in
  Rng.fill_bytes (Rng.create ~seed:0xDA7AL) data;
  let crc = Checksum.Crc32.digest data in
  Printf.printf
    "transfer: %d bytes via %s | loss=%.3g corrupt=%.3g reorder=%.3g | %.3g Mb/s, %.1f ms\n"
    size transport opts.loss opts.corrupt opts.reorder (opts.bandwidth /. 1e6)
    (opts.delay *. 1000.0);
  match transport with
  | "tcp" ->
      let sender = Transport.Tcp.create ~engine ~node:net.Topology.a ~peer:2 () in
      let receiver = Transport.Tcp.create ~engine ~node:net.Topology.b ~peer:1 () in
      if show_trace then begin
        Transport.Tcp.set_tracer sender (fun msg -> Trace.log trace "snd" "%s" msg);
        Transport.Tcp.set_tracer receiver (fun msg -> Trace.log trace "rcv" "%s" msg)
      end;
      let out = Bytebuf.create size in
      let pos = ref 0 in
      Transport.Tcp.on_deliver receiver (fun chunk ->
          Bytebuf.blit ~src:chunk ~src_pos:0 ~dst:out ~dst_pos:!pos
            ~len:(Bytebuf.length chunk);
          pos := !pos + Bytebuf.length chunk);
      let done_at = ref nan in
      Transport.Tcp.on_close receiver (fun () -> done_at := Engine.now engine);
      Transport.Tcp.send sender data;
      Transport.Tcp.finish sender;
      Engine.run ~until:3600.0 engine;
      let s = Transport.Tcp.stats sender in
      let r = Transport.Tcp.stats receiver in
      Printf.printf "completed at t=%.3fs, goodput %.3f Mb/s\n" !done_at
        (8.0 *. float_of_int size /. !done_at /. 1e6);
      Printf.printf
        "segments: %d sent, %d retransmitted (%d timeouts, %d fast), %d discarded by checksum\n"
        s.Transport.Tcp.segs_sent s.Transport.Tcp.retransmits
        s.Transport.Tcp.timeouts s.Transport.Tcp.fast_retransmits
        r.Transport.Tcp.segs_discarded;
      if verbose then
        Printf.printf "control ops: %d | manipulation bytes: %d\n"
          (s.Transport.Tcp.control_ops + r.Transport.Tcp.control_ops)
          (s.Transport.Tcp.manip_checksum_bytes + s.Transport.Tcp.manip_copy_bytes
          + r.Transport.Tcp.manip_checksum_bytes + r.Transport.Tcp.manip_copy_bytes);
      let ok = Checksum.Crc32.digest (Bytebuf.take out !pos) = crc && !pos = size in
      Printf.printf "integrity: %s\n" (if ok then "OK" else "FAILED");
      if show_trace then begin
        Printf.printf "\nlast protocol events:\n";
        Format.printf "%a@?" Trace.dump trace
      end;
      if ok then `Ok () else `Error (false, "transfer corrupted")
  | "alf" ->
      let policy =
        match policy_name with
        | "buffer" -> Recovery.Transport_buffer
        | "none" -> Recovery.No_recovery
        | other -> failwith ("unknown policy " ^ other)
      in
      let stripe_ios () =
        (* N parallel paths; each stripe is its own duplex link, so they
           reorder freely against each other. *)
        let nets = List.init stripes (fun _ -> build_net opts engine) in
        let side pick =
          Dgram.striped
            (List.map
               (fun n -> Dgram.of_udp (Netsim.Udp.create ~engine ~node:(pick n) ()))
               nets)
        in
        (side (fun n -> n.Topology.a), side (fun n -> n.Topology.b))
      in
      let io_a, io_b =
        if stripes > 1 then stripe_ios ()
        else
        match substrate with
        | "atm" ->
            (* Cells on the wire: the impairments apply per 53-byte cell. *)
            ( Atmsim.Bearer.dgram (Atmsim.Bearer.create ~engine ~node:net.Topology.a ()),
              Atmsim.Bearer.dgram (Atmsim.Bearer.create ~engine ~node:net.Topology.b ()) )
        | _ ->
            ( Dgram.of_udp (Netsim.Udp.create ~engine ~node:net.Topology.a ()),
              Dgram.of_udp (Netsim.Udp.create ~engine ~node:net.Topology.b ()) )
      in
      let out = Sink.create ~size in
      let receiver =
        Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:io_b ~port:7 ~stream:1
          ~deliver:(fun adu ->
            match Sink.write_adu out adu with
            | Ok () -> ()
            | Error e -> prerr_endline e)
          ()
      in
      let done_at = ref nan in
      Alf_transport.on_complete receiver (fun () -> done_at := Engine.now engine);
      if show_trace then
        Alf_transport.set_receiver_tracer receiver (fun msg ->
            Trace.log trace "alf-rcv" "%s" msg);
      let sender =
        (* Pace fragments at the link rate: the paper's out-of-band rate
           control, keeping self-induced queueing (and spurious loss
           reports) out of the picture. *)
        let config =
          { Alf_transport.default_sender_config with
            Alf_transport.pace_bps =
              Some (opts.bandwidth *. float_of_int (max 1 stripes) *. 0.95) }
        in
        Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:io_a ~peer:2 ~peer_port:7 ~port:8
          ~stream:1 ~policy ~config ()
      in
      if show_trace then
        Alf_transport.set_sender_tracer sender (fun msg ->
            Trace.log trace "alf-snd" "%s" msg);
      let start_data_phase () =
        List.iter (Alf_transport.send_adu sender)
          (Framing.frames_of_buffer ~stream:1 ~adu_size data);
        Alf_transport.close sender
      in
      if negotiate then begin
        (* Out-of-band setup first: agree syntax/rate/policy, then move
           data. The receiver side advertises a rate cap. *)
        let _responder =
          Session.listen ~io:io_b ~port:99 ~supported:[ "raw"; "ber" ]
            ~max_rate_bps:(opts.bandwidth *. 0.95)
            ~on_session:(fun ~peer:_ g ->
              Printf.printf
                "session: accepted stream %d, syntax=%s, rate=%.3g Mb/s\n"
                g.Session.g_stream g.Session.g_syntax
                (g.Session.g_rate_bps /. 1e6))
            ()
        in
        Session.initiate ~sched:(Engine.sched engine) ~io:io_a ~port:98 ~peer:2 ~peer_port:99
          ~offer:
            { Session.stream = 1; syntaxes = [ "raw" ];
              rate_bps = opts.bandwidth *. 2.0; policy = policy_name;
              ciphers = [ "chacha20" ] }
          ~on_result:(fun result ->
            match result with
            | Some _ -> start_data_phase ()
            | None -> prerr_endline "session setup failed")
          ()
      end
      else start_data_phase ();
      Engine.run ~until:3600.0 engine;
      let s = Alf_transport.sender_stats sender in
      let r = Alf_transport.receiver_stats receiver in
      Printf.printf "completed at t=%.3fs, goodput %.3f Mb/s\n" !done_at
        (8.0 *. float_of_int size /. !done_at /. 1e6);
      Printf.printf
        "ADUs: %d sent (%d B each), %d retransmitted, %d declared gone; %d delivered (%d out of order)\n"
        s.Alf_transport.adus_sent adu_size s.Alf_transport.adus_retransmitted
        s.Alf_transport.adus_gone r.Alf_transport.adus_delivered
        r.Alf_transport.out_of_order;
      if verbose then
        Printf.printf "NACKs: %d sent | store peak: %d bytes\n"
          r.Alf_transport.nacks_sent s.Alf_transport.store_peak;
      if show_trace then begin
        Printf.printf "\nlast protocol events:\n";
        Format.printf "%a@?" Trace.dump trace
      end;
      let ok =
        r.Alf_transport.adus_lost > 0
        || (Sink.complete out && Int32.equal (Sink.crc32 out) crc)
      in
      Printf.printf "integrity: %s%s\n"
        (if ok then "OK" else "FAILED")
        (if r.Alf_transport.adus_lost > 0 then
           Printf.sprintf " (%d ADUs lost under no-recovery, as configured)"
             r.Alf_transport.adus_lost
         else "");
      if ok then `Ok () else `Error (false, "transfer corrupted")
  | other -> `Error (true, "unknown transport " ^ other)

let transfer_cmd =
  let transport =
    Arg.(value & opt string "alf" & info [ "transport" ] ~docv:"tcp|alf" ~doc:"Transport to use.")
  in
  let size =
    Arg.(value & opt int 200_000 & info [ "size" ] ~docv:"BYTES" ~doc:"Bytes to transfer.")
  in
  let adu_size =
    Arg.(value & opt int 4000 & info [ "adu-size" ] ~docv:"BYTES" ~doc:"ADU size (alf only).")
  in
  let policy =
    Arg.(value & opt string "buffer" & info [ "policy" ] ~docv:"buffer|none" ~doc:"ALF recovery policy.")
  in
  let substrate =
    Arg.(
      value & opt string "udp"
      & info [ "substrate" ] ~docv:"udp|atm"
          ~doc:"Datagram substrate for the ALF transport (atm = AAL5 over 53-byte cells).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"More counters.") in
  let show_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Dump the last protocol events (tcp only).")
  in
  let negotiate =
    Arg.(
      value & flag
      & info [ "negotiate" ]
          ~doc:"Run out-of-band session setup (syntax/rate/policy) before the data phase (alf only).")
  in
  let stripes =
    Arg.(
      value & opt int 1
      & info [ "stripes" ] ~docv:"N"
          ~doc:"Stripe the ALF transport round-robin across N parallel links (alf only).")
  in
  let run transport substrate opts size adu_size policy verbose show_trace
      negotiate stripes =
    run_transfer transport substrate opts size adu_size policy verbose
      show_trace negotiate stripes
  in
  Cmd.v
    (Cmd.info "transfer" ~doc:"Move data through a simulated lossy network.")
    Term.(
      ret
        (const run $ transport $ substrate $ net_opts_term $ size $ adu_size
       $ policy $ verbose $ show_trace $ negotiate $ stripes))

(* --- atm --- *)

let run_atm aal cell_loss n_adus adu_size seed =
  let open Atmsim in
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let delivered = ref 0 in
  let cells = ref 0 in
  Printf.printf "atm: %d ADUs of %d B over AAL%s, cell loss %.3g%%\n" n_adus
    adu_size aal (cell_loss *. 100.0);
  let reasm5 = Aal5.reassembler ~deliver:(fun _ -> incr delivered) () in
  let reasm34 = Aal34.reassembler ~deliver:(fun ~mid:_ _ -> incr delivered) in
  for i = 0 to n_adus - 1 do
    let adu =
      Adu.make
        (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1 ~index:i ())
        (Bytebuf.create adu_size)
    in
    let encoded = Adu.encode adu in
    match aal with
    | "5" ->
        List.iter
          (fun (payload, eof) ->
            incr cells;
            if not (Rng.bool rng ~p:cell_loss) then Aal5.push reasm5 payload ~eof)
          (Aal5.segment encoded)
    | "34" ->
        List.iter
          (fun pdu ->
            incr cells;
            if not (Rng.bool rng ~p:cell_loss) then Aal34.push reasm34 pdu)
          (Aal34.segment ~mid:(i land 0x3FF) encoded)
    | _ -> ()
  done;
  match aal with
  | "5" | "34" ->
      let payload_bytes = n_adus * adu_size in
      Printf.printf "cells on the wire: %d (%d B) for %d B of payload: %.1f%% efficiency\n"
        !cells (!cells * Cell.cell_size) payload_bytes
        (100.0 *. float_of_int payload_bytes /. float_of_int (!cells * Cell.cell_size));
      Printf.printf "delivered: %d/%d ADUs (%.1f%%)\n" !delivered n_adus
        (100.0 *. float_of_int !delivered /. float_of_int n_adus);
      (match aal with
      | "5" ->
          let s = Aal5.stats reasm5 in
          Printf.printf "aborts: %d crc, %d oversize\n" s.Aal5.aborted_crc
            s.Aal5.aborted_oversize
      | _ ->
          let s = Aal34.stats reasm34 in
          Printf.printf "aborts: %d gap, %d crc, %d format\n" s.Aal34.aborted_gap
            s.Aal34.aborted_crc s.Aal34.aborted_format);
      `Ok ()
  | other -> `Error (true, "unknown AAL " ^ other)

let atm_cmd =
  let aal = Arg.(value & opt string "5" & info [ "aal" ] ~docv:"5|34" ~doc:"Adaptation layer.") in
  let cell_loss =
    Arg.(value & opt float 0.001 & info [ "cell-loss" ] ~docv:"P" ~doc:"Cell loss probability.")
  in
  let adus = Arg.(value & opt int 100 & info [ "adus" ] ~docv:"N" ~doc:"Number of ADUs.") in
  let adu_size =
    Arg.(value & opt int 1000 & info [ "adu-size" ] ~docv:"BYTES" ~doc:"ADU payload size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "atm" ~doc:"Carry ADUs over ATM cells through an adaptation layer.")
    Term.(ret (const run_atm $ aal $ cell_loss $ adus $ adu_size $ seed))

(* --- syntax --- *)

let run_syntax n_ints =
  let ints = Array.init n_ints (fun i -> (i * i) - (7 * i) + 3) in
  let value = Wire.Value.int_array ints in
  Printf.printf "sample value: %d integers; abstract size %d bytes\n\n" n_ints
    (Wire.Value.abstract_size value);
  List.iter
    (fun name ->
      match Wire.Syntax.for_value name value with
      | None -> Printf.printf "%-6s cannot carry this value\n" name
      | Some syntax ->
          let encoded = Wire.Syntax.encode syntax value in
          Printf.printf "%-6s %4d bytes on the wire (%.2fx expansion)\n" name
            (Bytebuf.length encoded)
            (float_of_int (Bytebuf.length encoded)
            /. float_of_int (Wire.Value.abstract_size value)))
    [ "raw"; "ber"; "xdr"; "lwts" ];
  `Ok ()

let syntax_cmd =
  let ints = Arg.(value & opt int 16 & info [ "ints" ] ~docv:"N" ~doc:"Integers in the sample array.") in
  Cmd.v
    (Cmd.info "syntax" ~doc:"Show a value in each transfer syntax.")
    Term.(ret (const run_syntax $ ints))

(* --- parallel --- *)

let run_parallel domains n_adus adu_size plan_name =
  let plan_fn =
    match plan_name with
    | "checksum" ->
        Some
          (fun (_ : Adu.t) ->
            [ Ilp.Checksum Checksum.Kind.Internet; Ilp.Deliver_copy ])
    | "decrypt" -> Some (fun adu -> Stage2.decrypt_verify_at ~key:0xA5A5L adu)
    | "swab" ->
        Some
          (fun (_ : Adu.t) ->
            [
              Ilp.Byteswap32;
              Ilp.Checksum Checksum.Kind.Fletcher32;
              Ilp.Deliver_copy;
            ])
    | "rc4" ->
        Some
          (fun (_ : Adu.t) ->
            [ Ilp.Rc4_stream { key = "alfnet" }; Ilp.Deliver_copy ])
    | _ -> None
  in
  match plan_fn with
  | None ->
      `Error
        ( true,
          Printf.sprintf "unknown plan %S (try checksum, decrypt, swab, rc4)"
            plan_name )
  | Some _ when adu_size mod 4 <> 0 ->
      `Error (true, "--adu-size must be a multiple of 4 (Byteswap32 plans)")
  | Some plan_of_name -> begin
    let rng = Rng.create ~seed:0x9AFL in
    let adus =
      Array.init n_adus (fun i ->
          let payload = Bytebuf.create adu_size in
          Rng.fill_bytes rng payload;
          Adu.make
            (Adu.name ~dest_off:(i * adu_size) ~dest_len:adu_size ~stream:1
               ~index:i ())
            payload)
    in
    let dst = Bytebuf.create (n_adus * adu_size) in
    Printf.printf
      "parallel stage-2: %d ADUs x %d B, plan=%s, pool of %d domain(s) (host has %d)\n"
      n_adus adu_size plan_name domains
      (Domain.recommended_domain_count ());
    let t0 = Obs.Clock.now_ns () in
    let outcome =
      Par.Pool.with_pool ~domains (fun pool ->
          Ilp_par.run ~pool ~dst ~plan:plan_of_name adus)
    in
    let dt = (Obs.Clock.now_ns () -. t0) /. 1e9 in
    let bytes = n_adus * adu_size in
    Printf.printf "processed %d bytes in %.3f ms (%.1f Mb/s)\n" bytes
      (dt *. 1000.0)
      (8.0 *. float_of_int bytes /. dt /. 1e6);
    Printf.printf "parallel ADUs: %d, serial fallback (in-order plan): %d\n"
      outcome.Ilp_par.parallel_adus outcome.Ilp_par.serial_fallback;
    if outcome.Ilp_par.serial_fallback > 0 then
      Printf.printf
        "note: plan %S needs in-order processing, so the batch degraded to\n\
         the serial path (paper section 6: a sequential cipher poisons\n\
         out-of-order ADU processing).\n"
        plan_name;
    List.iter
      (fun (kind, v) ->
        Printf.printf "merged %s over all ADUs: 0x%08x\n"
          (Checksum.Kind.to_string kind) v)
      outcome.Ilp_par.merged_checksums;
    (* Cross-check against the layered single-domain reference. *)
    let reference =
      Array.map
        (fun (a : Adu.t) -> Ilp.run_layered (plan_of_name a) a.Adu.payload)
        adus
    in
    let ok = ref true in
    Array.iteri
      (fun i (r : Ilp.result) ->
        if not (Bytebuf.equal r.Ilp.output reference.(i).Ilp.output) then
          ok := false)
      outcome.Ilp_par.results;
    Printf.printf "byte-identical to the layered serial reference: %b\n" !ok;
    if !ok then `Ok () else `Error (false, "parallel output diverged")
  end

let parallel_cmd =
  let domains =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains in the pool.")
  in
  let adus =
    Arg.(value & opt int 64 & info [ "adus" ] ~docv:"N" ~doc:"ADUs in the batch.")
  in
  let adu_size =
    Arg.(
      value & opt int 16384
      & info [ "adu-size" ] ~docv:"BYTES" ~doc:"Payload bytes per ADU.")
  in
  let plan =
    Arg.(
      value & opt string "checksum"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Stage-2 plan: $(b,checksum), $(b,decrypt), $(b,swab), or \
             $(b,rc4) (sequential cipher - demonstrates the serial \
             degradation).")
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:"Shard a batch of ADUs across worker domains (the \\u{00a7}7 parallel sink).")
    Term.(ret (const run_parallel $ domains $ adus $ adu_size $ plan))

(* --- ilp: compile one declarative plan and race the three executors --- *)

let parse_stage s =
  let lower = String.lowercase_ascii s in
  match String.index_opt lower ':' with
  | None -> (
      match lower with
      | "swab" | "byteswap32" -> Ok Ilp.Byteswap32
      | "copy" | "deliver" -> Ok Ilp.Deliver_copy
      | "xor" -> Ok (Ilp.Xor_pad { key = 0xA5A5L; pos = 0L })
      | "rc4" -> Ok (Ilp.Rc4_stream { key = "alfnet" })
      | name -> (
          match Checksum.Kind.of_string name with
          | Some k -> Ok (Ilp.Checksum k)
          | None -> Error (Printf.sprintf "unknown stage %S" s)))
  | Some i -> (
      let head = String.sub lower 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "cksum" | "checksum" -> (
          match Checksum.Kind.of_string arg with
          | Some k -> Ok (Ilp.Checksum k)
          | None -> Error (Printf.sprintf "unknown checksum kind %S" arg))
      | "rc4" -> Ok (Ilp.Rc4_stream { key = arg })
      | "xor" -> (
          let key, pos =
            match String.index_opt arg '@' with
            | None -> (arg, "0")
            | Some j ->
                ( String.sub arg 0 j,
                  String.sub arg (j + 1) (String.length arg - j - 1) )
          in
          match (Int64.of_string_opt key, Int64.of_string_opt pos) with
          | Some key, Some pos when pos >= 0L -> Ok (Ilp.Xor_pad { key; pos })
          | _ ->
              Error
                (Printf.sprintf "bad xor spec %S (expected xor:KEY[@POS])" arg))
      | _ -> Error (Printf.sprintf "unknown stage %S" s))

let run_ilp plan_spec size =
  let specs =
    String.split_on_char ',' plan_spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match
    List.fold_left
      (fun acc s ->
        match (acc, parse_stage s) with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok stages, Ok st -> Ok (st :: stages))
      (Ok []) specs
  with
  | Error e -> `Error (true, e)
  | Ok rev_stages -> (
      let plan = List.rev rev_stages in
      match Ilp.validate plan with
      | Error msg -> `Error (false, "plan does not validate: " ^ msg)
      | Ok () when List.mem Ilp.Byteswap32 plan && size mod 4 <> 0 ->
          `Error (true, "--size must be a multiple of 4 with swab")
      | Ok () ->
          let input = Bytebuf.create size in
          Rng.fill_bytes (Rng.create ~seed:0x11FL) input;
          Printf.printf "plan: [%s], %d bytes%s\n"
            (String.concat "; " (List.map Ilp.stage_name plan))
            size
            (if Ilp.needs_in_order plan then
               " (sequential cipher: ADUs must stay in order)"
             else "");
          let layered = Ilp.run_layered plan input in
          let interp = Ilp.run_fused_interpreted plan input in
          let fused = Ilp.run_fused plan input in
          let agree =
            Bytebuf.equal fused.Ilp.output layered.Ilp.output
            && Bytebuf.equal fused.Ilp.output interp.Ilp.output
            && fused.Ilp.checksums = layered.Ilp.checksums
            && fused.Ilp.checksums = interp.Ilp.checksums
          in
          let time name f =
            ignore (f ()) (* warm *);
            let t0 = Obs.Clock.now_ns () in
            let runs = ref 0 in
            let dt = ref 0.0 in
            while !dt < 5e7 do
              ignore (f ());
              incr runs;
              dt := Obs.Clock.now_ns () -. t0
            done;
            let ns = !dt /. float_of_int !runs in
            let mbps = 8.0 *. float_of_int size /. ns *. 1000.0 in
            Printf.printf "  %-22s %10.1f Mb/s (%d passes over the data)\n"
              name mbps
              (match name with "layered" -> layered.Ilp.passes | _ -> 1);
            mbps
          in
          let l = time "layered" (fun () -> Ilp.run_layered plan input) in
          let i =
            time "fused-interpreted" (fun () ->
                Ilp.run_fused_interpreted plan input)
          in
          let c = time "fused-compiled" (fun () -> Ilp.run_fused plan input) in
          Printf.printf
            "compiled = %.2fx layered, %.2fx interpreted; compiled dispatch: %b\n"
            (c /. l) (c /. i) fused.Ilp.compiled;
          List.iter
            (fun (kind, v) ->
              Printf.printf "checksum %s = 0x%08x\n"
                (Checksum.Kind.to_string kind)
                v)
            fused.Ilp.checksums;
          Printf.printf "executors byte- and checksum-identical: %b\n" agree;
          if agree then `Ok ()
          else `Error (false, "executors disagree - this is a bug"))

let ilp_cmd =
  let plan =
    Arg.(
      value
      & opt string "xor:42,internet,copy"
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated stages: $(b,swab), $(b,xor:KEY[@POS]), \
             $(b,rc4:KEY), $(b,copy), or a checksum kind \
             ($(b,internet), $(b,fletcher16), $(b,fletcher32), \
             $(b,adler32), $(b,crc32)).")
  in
  let size =
    Arg.(
      value & opt int 262144
      & info [ "size" ] ~docv:"BYTES" ~doc:"Input buffer size.")
  in
  Cmd.v
    (Cmd.info "ilp"
       ~doc:
         "Compile a declarative manipulation plan and race the three \
          executors: layered passes, per-byte interpreted fusion, and the \
          block-at-a-time compiled loop (paper \\u{00a7}8).")
    Term.(ret (const run_ilp $ plan $ size))

(* --- marshal: fused presentation conversion on the send path --- *)

let run_marshal codec plan_spec records =
  let specs =
    String.split_on_char ',' plan_spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match
    List.fold_left
      (fun acc s ->
        match (acc, parse_stage s) with
        | Error e, _ -> Error e
        | _, Error e -> Error e
        | Ok stages, Ok st -> Ok (st :: stages))
      (Ok []) specs
  with
  | Error e -> `Error (true, e)
  | Ok rev_stages -> (
      let plan = List.rev rev_stages in
      let value =
        Wire.Value.List
          (List.init records (fun i ->
               Wire.Value.Record
                 [
                   ("seq", Wire.Value.Int i);
                   ("stamp", Wire.Value.Int64 (Int64.of_int (i * 1_000_003)));
                   ("tag", Wire.Value.Utf8 "sensor");
                   ("payload", Wire.Value.int_array [| i; i + 1; i + 2; i + 3 |]);
                 ]))
      in
      let source, encode =
        match codec with
        | "xdr" ->
            let schema = Wire.Xdr.schema_of_value value in
            ( Ilp.Marshal_prog (Wire.Schema.prog_of_xdr schema, value),
              fun () -> Wire.Xdr.encode schema value )
        | _ -> (Ilp.Marshal_ber value, fun () -> Wire.Ber.encode value)
      in
      let n = Ilp.marshal_size source in
      match Ilp.run_marshal source plan with
      | exception Invalid_argument msg -> `Error (false, msg)
      | fused ->
          let serial = Ilp.run_layered plan (encode ()) in
          let agree =
            Bytebuf.equal fused.Ilp.output serial.Ilp.output
            && fused.Ilp.checksums = serial.Ilp.checksums
          in
          Printf.printf "codec: %s, %d records, %d bytes on the wire\n" codec
            records n;
          Printf.printf "plan: [%s]\n"
            (String.concat "; " (List.map Ilp.stage_name plan));
          let time name f =
            ignore (f ()) (* warm *);
            let t0 = Obs.Clock.now_ns () in
            let runs = ref 0 in
            let dt = ref 0.0 in
            while !dt < 5e7 do
              ignore (f ());
              incr runs;
              dt := Obs.Clock.now_ns () -. t0
            done;
            let ns = !dt /. float_of_int !runs in
            let mbps = 8.0 *. float_of_int n /. ns *. 1000.0 in
            Printf.printf "  %-38s %10.1f Mb/s (%d passes)\n" name mbps
              (match name with
              | "serial: encode; layered stages" -> 1 + serial.Ilp.passes
              | _ -> 1);
            mbps
          in
          let s =
            time "serial: encode; layered stages" (fun () ->
                Ilp.run_layered plan (encode ()))
          in
          let dst = Bytebuf.create n in
          let f =
            time "fused: marshal+stages, one pass" (fun () ->
                Ilp.run_marshal ~dst source plan)
          in
          Printf.printf "fused = %.2fx serial\n" (f /. s);
          List.iter
            (fun (kind, v) ->
              Printf.printf "checksum %s = 0x%08x\n"
                (Checksum.Kind.to_string kind)
                v)
            fused.Ilp.checksums;
          Printf.printf "serial and fused byte- and checksum-identical: %b\n"
            agree;
          if agree then `Ok ()
          else `Error (false, "serial and fused disagree - this is a bug"))

let marshal_cmd =
  let codec =
    Arg.(
      value
      & opt (enum [ ("ber", "ber"); ("xdr", "xdr") ]) "ber"
      & info [ "codec" ] ~docv:"CODEC"
          ~doc:"Transfer syntax: $(b,ber) or $(b,xdr).")
  in
  let plan =
    Arg.(
      value
      & opt string "internet,copy"
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated stages applied to the encoded bytes as they \
             are produced: $(b,xor:KEY[@POS]), $(b,rc4:KEY), $(b,copy), or \
             a checksum kind ($(b,internet), $(b,fletcher16), \
             $(b,fletcher32), $(b,adler32), $(b,crc32)). $(b,swab) is \
             rejected: a marshalling source already fixes byte order.")
  in
  let records =
    Arg.(
      value & opt int 2048
      & info [ "records" ] ~docv:"N"
          ~doc:"Records in the sample telemetry value.")
  in
  Cmd.v
    (Cmd.info "marshal"
       ~doc:
         "Marshal a sample value with the stage plan fused into the \
          encoder - encode, checksum and cipher in one pass - and race it \
          against the serial encode-then-stages composition (paper \
          \\u{00a7}4's presentation conversion as an ILP stage).")
    Term.(ret (const run_marshal $ codec $ plan $ records))

(* --- metrics --- *)

let run_metrics opts size =
  (* Exercise each instrumented subsystem once — an ALF transfer feeding
     the two-stage receive path, a TCP transfer over the same impaired
     network, and the three ILP execution modes — then dump the whole
     registry as JSON. *)
  let engine = Engine.create () in
  let net = build_net opts engine in
  let data = Bytebuf.create size in
  Rng.fill_bytes (Rng.create ~seed:0xDA7AL) data;
  (* ALF: deliver through Stage2 so the ILP receive plan runs per ADU. *)
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let stage =
    Stage2.create
      ~plan:(fun _ -> Stage2.decrypt_verify ~key:0xA5A5L)
      ~deliver:(fun _ -> ())
      ()
  in
  let receiver =
    Alf_transport.receiver_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ub) ~port:7 ~stream:1
      ~deliver:(Stage2.deliver_fn stage) ()
  in
  ignore (Alf_transport.receiver_stats receiver);
  let sender =
    Alf_transport.sender_io ~sched:(Netsim.Engine.sched engine) ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:7
      ~port:8 ~stream:1 ~policy:Recovery.Transport_buffer ()
  in
  List.iter (Alf_transport.send_adu sender)
    (Framing.frames_of_buffer ~stream:1 ~adu_size:4000 data);
  Alf_transport.close sender;
  Engine.run ~until:3600.0 engine;
  (* TCP over a fresh network with the same impairments. *)
  let engine2 = Engine.create () in
  let net2 = build_net opts engine2 in
  let tcp_s = Transport.Tcp.create ~engine:engine2 ~node:net2.Topology.a ~peer:2 () in
  let tcp_r = Transport.Tcp.create ~engine:engine2 ~node:net2.Topology.b ~peer:1 () in
  Transport.Tcp.on_deliver tcp_r (fun _ -> ());
  Transport.Tcp.send tcp_s data;
  Transport.Tcp.finish tcp_s;
  Engine.run ~until:3600.0 engine2;
  ignore (Transport.Tcp.stats tcp_s);
  (* The three ILP modes over one plan. *)
  let plan = Stage2.decrypt_verify ~key:0xA5A5L in
  let chunk = Bytebuf.take data (min size 65536) in
  ignore (Ilp.run_layered plan chunk);
  ignore (Ilp.run_fused_interpreted plan chunk);
  ignore (Ilp.run_fused plan chunk);
  (* One fused marshal round-trip so the ilp.marshal.* counters (runs,
     bytes encoded/decoded) are live in the dump. *)
  let v = Wire.Value.Record [ ("n", Wire.Value.Int size) ] in
  let enc = Ilp.run_marshal (Ilp.Marshal_ber v) [ Ilp.Deliver_copy ] in
  ignore (Ilp.run_unmarshal [ Ilp.Deliver_copy ] Ilp.Unmarshal_ber enc.Ilp.output);
  (* And one compiled-schema marshal plus a validate-view pass over one
     held program, so ilp.view.* is live in the dump. *)
  let prog = Wire.Schema.prog_of_xdr (Wire.Xdr.schema_of_value v) in
  let xe = Ilp.run_marshal (Ilp.Marshal_prog (prog, v)) [ Ilp.Deliver_copy ] in
  ignore (Ilp.run_view [ Ilp.Deliver_copy ] prog xe.Ilp.output);
  (* One sealed round trip through the AEAD record layer, a wrong-key
     open, and an epoch roll, so cipher.{sealed,opened,auth_fail,rekeys}
     are live in the dump. *)
  let rc_tx = Secure.Record.of_int64 0xC1B3EL in
  let rc_rx = Secure.Record.of_int64 0xC1B3EL in
  let adu = Adu.make (Adu.name ~stream:9 ~index:0 ()) (Wire.Ber.encode v) in
  let sealed = Secure.Record.seal_adu rc_tx adu in
  ignore (Secure.Record.open_adu rc_rx sealed);
  ignore (Secure.Record.open_adu (Secure.Record.of_int64 0xBAD0L) sealed);
  Secure.Record.rekey rc_tx;
  ignore
    (Secure.Record.open_adu rc_rx
       (Secure.Record.seal_adu rc_tx
          (Adu.make (Adu.name ~stream:9 ~index:1 ()) (Wire.Ber.encode v))));
  (* The serve engine's adversarial-ingress surface: a small sharded
     server under mixed honest and byzantine load on the default
     registry, so serve.shard*.{arrivals,drop.*}, serve.drop.* and
     serve.load_state all appear in the dump with live values. *)
  let module Sv = Alf_serve.Server in
  let module Lg = Alf_serve.Loadgen in
  let module Hs = Alf_chaos.Hostile in
  let engine3 = Engine.create () in
  let rng3 = Rng.create ~seed:0x5E12EL in
  let net3 =
    Topology.point_to_point ~engine:engine3 ~rng:rng3 ~impair:Impair.none
      ~queue_limit:1_000_000 ~bandwidth_bps:1e9 ~delay:1e-4 ~a:1 ~b:2 ()
  in
  let ua3 = Netsim.Udp.create ~engine:engine3 ~node:net3.Topology.a () in
  let ub3 = Netsim.Udp.create ~engine:engine3 ~node:net3.Topology.b () in
  let server =
    Sv.create ~sched:(Engine.sched engine3) ~io:(Dgram.of_udp ub3) ()
  in
  let gen =
    Lg.create ~io:(Dgram.of_udp ua3)
      {
        Lg.default_config with
        Lg.sessions = 200;
        adus_per_session = 2;
        payload_len = 64;
        server = 2;
      }
  in
  let hclient =
    Hs.create ~io:(Dgram.of_udp ua3)
      { Hs.default_config with Hs.server = 2; payload_len = 64 }
  in
  let rounds = ref 0 in
  while (not (Lg.finished gen)) && !rounds < 200 do
    incr rounds;
    let sent = Lg.step gen ~budget:256 in
    ignore (Hs.step hclient ~budget:96);
    Engine.run ~until:(Engine.now engine3 +. 0.005) ~max_events:1_000_000
      engine3;
    Sv.pump server;
    Engine.run ~until:(Engine.now engine3 +. 0.005) ~max_events:1_000_000
      engine3;
    if sent = 0 && not (Lg.finished gen) then begin
      Sv.harvest server;
      Engine.run ~until:(Engine.now engine3 +. 0.05) ~max_events:1_000_000
        engine3;
      Sv.pump server;
      Lg.nudge gen
    end
  done;
  Sv.pump server;
  Sv.stop server;
  print_endline (Obs.Json.to_string_pretty (Obs.Registry.to_json ()));
  `Ok ()

let metrics_cmd =
  let size =
    Arg.(value & opt int 200_000 & info [ "size" ] ~docv:"BYTES" ~doc:"Bytes to transfer.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a small instrumented workload and dump the metrics registry as JSON.")
    Term.(ret (const run_metrics $ net_opts_term $ size))

(* --- soak --- *)

let run_soak smoke seed out =
  let module Soak = Alf_chaos.Soak in
  let outcomes = Soak.run_matrix ~smoke ~seed:(Int64.of_int seed) () in
  List.iter (fun o -> Format.printf "%a@." Soak.pp_outcome o) outcomes;
  Soak.write_json out outcomes;
  let failed = List.filter (fun o -> not (Soak.ok o)) outcomes in
  Format.printf "soak: %d/%d cases ok -> %s@."
    (List.length outcomes - List.length failed)
    (List.length outcomes) out;
  if failed = [] then `Ok ()
  else
    `Error
      ( false,
        Printf.sprintf "%d soak case(s) violated invariants (see %s)"
          (List.length failed) out )

let soak_cmd =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Tier-1 subset: hostile impairment only, small ADUs.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Root RNG seed; the same seed reproduces the same report byte for byte.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_soak.json"
      & info [ "out" ] ~docv:"PATH" ~doc:"Where to write the JSON report.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Sweep impairment x recovery-policy x FEC (plus sender-kill, outage \
          and burst fault plans) and check the robustness invariants: \
          quiescence, delivered-or-gone accounting, byte-exact delivery, \
          zero retransmission footprint, counter consistency, and stage-1 \
          corruption filtering.")
    Term.(ret (const run_soak $ smoke $ seed $ out))

(* --- udp: the transport over real sockets --- *)

(* One fused-send workload shared by the loopback stream and its netsim
   twin: identical ADUs (one BER int-array value), identical transport
   parameters, so the BENCH_udp.json rows differ only in what carries the
   datagrams. *)
let udp_workload_value =
  Wire.Value.int_array (Array.init 256 (fun i -> i * 131))

type stream_report = {
  sr_adus : int;
  sr_payload_bytes : int;
  sr_mbps : float;
  sr_steady_allocs : int;  (* Bytebufs created inside the steady window *)
  sr_steady_words : float;  (* GC minor words inside the steady window *)
  sr_measured : int;  (* ADUs inside the steady window *)
  sr_delivered : int;
  sr_mismatches : int;
  sr_complete : bool;
  sr_finished : bool;
  sr_pending_timers : int;
  sr_send_dropped : int;
}

(* Stream [adus] fused-send ADUs sender->receiver over one loopback
   [Rt.Udp_link]. The feeder paces itself: up to 32 ADUs per 1 ms timer
   tick, far below what the (drained-every-wakeup) socket buffer absorbs.
   After [warmup] deliveries the Bytebuf creation counter, the GC's
   minor words and the wall clock are snapshotted; the window closes
   when the last ADU arrives, before CLOSE/DONE go out. The words cover
   the whole process: sender, loop, sockets, receiver and the check of
   each delivered payload, which compares it in place. *)
let run_udp_stream ~adus () =
  let loop = Rt.Loop.create () in
  let sched = Rt.Loop.sched loop in
  let rx_pool = Pool.create ~buf_size:2048 () in
  let link = Rt.Udp_link.create ~loop ~pool:rx_pool () in
  let io = Dgram.of_rt link in
  let v = udp_workload_value in
  let source = Ilp.Marshal_ber v in
  let payload_bytes = Ilp.marshal_size source in
  let expected = Wire.Ber.encode v in
  let delivered = ref 0 and mismatches = ref 0 in
  let reasm_pool = Pool.create ~buf_size:2048 () in
  let receiver =
    Alf_transport.receiver_io ~sched ~io ~port:9000 ~stream:1 ~reasm_pool
      ~deliver:(fun adu ->
        incr delivered;
        if not (Bytebuf.equal adu.Adu.payload expected) then incr mismatches)
      ()
  in
  let tx_pool = Pool.create ~buf_size:2048 () in
  let peer = Rt.Udp_link.local_addr link ~port:9000 in
  (* Recovery by recompute: allocation-free unless a datagram actually
     vanishes (loopback: it does not), unlike Transport_buffer which
     retains a copy of every ADU and would break the zero-alloc gate. *)
  let policy =
    Recovery.App_recompute
      (fun i ->
        Some
          (Adu.encode
             (Adu.make (Adu.name ~stream:1 ~index:i ()) (Wire.Ber.encode v))))
  in
  let sender =
    Alf_transport.sender_io ~sched ~io ~peer ~peer_port:9000 ~port:9001
      ~stream:1 ~policy ~tx_pool ()
  in
  let warmup = max 64 (min 256 (adus / 4)) in
  let sent = ref 0 in
  let rec feeder () =
    let n = min 32 (adus - !sent) in
    for _ = 1 to n do
      Alf_transport.send_value sender
        ~name:(Adu.name ~stream:1 ~index:!sent ())
        source;
      incr sent
    done;
    if !sent < adus then ignore (Rt.Sched.schedule_after sched 0.001 feeder)
  in
  feeder ();
  ignore (Rt.Loop.run_until loop ~timeout:30.0 (fun () -> !delivered >= warmup));
  let alloc0 = Bytebuf.created_total () in
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (Rt.Loop.run_until loop ~timeout:120.0 (fun () -> !delivered >= adus));
  let t1 = Unix.gettimeofday () in
  let words1 = Gc.minor_words () in
  let alloc1 = Bytebuf.created_total () in
  Alf_transport.close sender;
  ignore
    (Rt.Loop.run_until loop ~timeout:10.0 (fun () ->
         Alf_transport.finished sender && Alf_transport.complete receiver));
  Rt.Loop.run_for loop 0.02;
  let measured = !delivered - warmup in
  let mbps =
    if t1 > t0 && measured > 0 then
      float_of_int (measured * payload_bytes) *. 8.0 /. (t1 -. t0) /. 1e6
    else 0.0
  in
  let report =
    {
      sr_adus = adus;
      sr_payload_bytes = payload_bytes;
      sr_mbps = mbps;
      sr_steady_allocs = alloc1 - alloc0;
      sr_steady_words = words1 -. words0;
      sr_measured = measured;
      sr_delivered = !delivered;
      sr_mismatches = !mismatches;
      sr_complete = Alf_transport.complete receiver;
      sr_finished = Alf_transport.finished sender;
      sr_pending_timers = Rt.Loop.pending_timers loop;
      sr_send_dropped = (Rt.Udp_link.stats link).Rt.Udp_link.send_dropped;
    }
  in
  Rt.Udp_link.close link;
  report

(* The same workload through the simulator, timed on the wall clock:
   what a virtual wire costs per byte vs a real one. *)
let run_netsim_stream ~adus () =
  let engine = Engine.create () in
  let sched = Netsim.Engine.sched engine in
  let rng = Rng.create ~seed:42L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:Impair.none ~queue_limit:4096
      ~bandwidth_bps:1e9 ~delay:1e-4 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let v = udp_workload_value in
  let source = Ilp.Marshal_ber v in
  let payload_bytes = Ilp.marshal_size source in
  let delivered = ref 0 in
  let reasm_pool = Pool.create ~buf_size:2048 () in
  let _receiver =
    Alf_transport.receiver_io ~sched ~io:(Dgram.of_udp ub) ~port:9000 ~stream:1 ~reasm_pool
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let tx_pool = Pool.create ~buf_size:2048 () in
  let sender =
    Alf_transport.sender_io ~sched ~io:(Dgram.of_udp ua) ~peer:2 ~peer_port:9000 ~port:9001
      ~stream:1 ~policy:Recovery.No_recovery ~tx_pool ()
  in
  let t0 = Unix.gettimeofday () in
  for i = 0 to adus - 1 do
    Alf_transport.send_value sender ~name:(Adu.name ~stream:1 ~index:i ()) source;
    (* drain between sends, as a live wire would *)
    Engine.run ~until:(Engine.now engine +. 0.001) ~max_events:100_000 engine
  done;
  Alf_transport.close sender;
  Engine.run ~until:(Engine.now engine +. 60.0) ~max_events:20_000_000 engine;
  let t1 = Unix.gettimeofday () in
  let mbps =
    if t1 > t0 then
      float_of_int (!delivered * payload_bytes) *. 8.0 /. (t1 -. t0) /. 1e6
    else 0.0
  in
  (mbps, !delivered, payload_bytes)

let stream_ok r =
  r.sr_mismatches = 0
  && r.sr_delivered = r.sr_adus
  && r.sr_complete && r.sr_finished
  && r.sr_steady_allocs = 0
  && r.sr_pending_timers = 0

let per_adu r x = if r.sr_measured = 0 then nan else x /. float_of_int r.sr_measured

let pp_stream_report ppf r =
  Format.fprintf ppf
    "udp stream: %d ADUs x %dB  %.1f Mb/s  steady allocs %d/%d ADUs  \
     %.1f GC words/ADU  delivered %d  mismatches %d  complete %b finished \
     %b  pending timers %d  send_dropped %d"
    r.sr_adus r.sr_payload_bytes r.sr_mbps r.sr_steady_allocs r.sr_measured
    (per_adu r r.sr_steady_words) r.sr_delivered r.sr_mismatches r.sr_complete r.sr_finished
    r.sr_pending_timers r.sr_send_dropped

let run_udp_selftest adus =
  let r = run_udp_stream ~adus () in
  Format.printf "%a@." pp_stream_report r;
  if stream_ok r then begin
    Format.printf "udp selftest: OK (delivered+gone = sent, zero steady-state \
                   Bytebuf allocations)@.";
    `Ok ()
  end
  else `Error (false, "udp selftest failed (see report line above)")

let run_udp_bench adus out =
  let r = run_udp_stream ~adus () in
  Format.printf "%a@." pp_stream_report r;
  let sim_mbps, sim_delivered, payload_bytes = run_netsim_stream ~adus () in
  Format.printf "netsim stream: %d ADUs x %dB  %.1f Mb/s@." sim_delivered
    payload_bytes sim_mbps;
  let i = Obs.Json.num_of_int in
  let rows =
    Obs.Json.Arr
      [
        Obs.Json.Obj
          [
            ("name", Obs.Json.Str "udp/fused-send");
            ("mbps", Obs.Json.Num r.sr_mbps);
            ("adus", i r.sr_adus);
            ("payload_bytes", i r.sr_payload_bytes);
            ( "steady_allocs_per_adu",
              Obs.Json.Num (per_adu r (float_of_int r.sr_steady_allocs)) );
            ("steady_words_per_adu", Obs.Json.Num (per_adu r r.sr_steady_words));
            ("ok", Obs.Json.Bool (stream_ok r));
          ];
        Obs.Json.Obj
          [
            ("name", Obs.Json.Str "netsim/fused-send");
            ("mbps", Obs.Json.Num sim_mbps);
            ("adus", i sim_delivered);
            ("payload_bytes", i payload_bytes);
          ];
      ]
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string_pretty rows);
  output_char oc '\n';
  close_out oc;
  Format.printf "udp bench -> %s@." out;
  if stream_ok r then `Ok ()
  else `Error (false, "udp stream violated its invariants (see report line)")

let run_udp_soak smoke seed out =
  let module Soak = Alf_chaos.Soak in
  let outcomes = Soak.run_udp_matrix ~smoke ~seed:(Int64.of_int seed) () in
  List.iter (fun o -> Format.printf "%a@." Soak.pp_outcome o) outcomes;
  Soak.write_json out outcomes;
  let failed = List.filter (fun o -> not (Soak.ok o)) outcomes in
  Format.printf "udp soak: %d/%d cases ok -> %s@."
    (List.length outcomes - List.length failed)
    (List.length outcomes) out;
  if failed = [] then `Ok ()
  else
    `Error
      ( false,
        Printf.sprintf "%d udp soak case(s) violated invariants (see %s)"
          (List.length failed) out )

let udp_cmd =
  let bench =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:"Race the loopback stream against its netsim twin and write \
                the two fused-send rows to $(docv).")
  in
  let soak =
    Arg.(
      value & flag
      & info [ "soak" ]
          ~doc:"Run the real-socket soak matrix (loss, corruption and a \
                sender kill at the datagram seam) instead of the selftest.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"With $(b,--soak): the three-case tier-1 subset.")
  in
  let adus =
    Arg.(
      value & opt int 10_000
      & info [ "adus" ] ~docv:"N" ~doc:"ADUs to stream (selftest and bench).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Root RNG seed for $(b,--soak).")
  in
  let out =
    Arg.(
      value & opt string "BENCH_udp.json"
      & info [ "out" ] ~docv:"PATH" ~doc:"Where to write the JSON report.")
  in
  let run bench soak smoke adus seed out =
    if adus < 512 then `Error (false, "--adus must be at least 512 (warmup)")
    else if bench then run_udp_bench adus out
    else if soak then run_udp_soak smoke seed out
    else run_udp_selftest adus
  in
  Cmd.v
    (Cmd.info "udp"
       ~doc:
         "Run the ALF transport over real loopback UDP sockets (the Rt \
          event loop): a zero-allocation streaming selftest by default, a \
          netsim-vs-real-socket bench with $(b,--bench), or the soak matrix \
          on real sockets with $(b,--soak). Needs no privileges: everything \
          stays on 127.0.0.1.")
    Term.(ret (const run $ bench $ soak $ smoke $ adus $ seed $ out))

(* --- secure: the fused AEAD record layer (E20) from the CLI --- *)

(* The E15/E19 presentation-heavy shape that E20 measures, sealed as one
   record. *)
let secure_workload () =
  let value =
    Wire.Value.List
      (List.init 1024 (fun i ->
           Wire.Value.Record
             [
               ("seq", Wire.Value.Int i);
               ("stamp", Wire.Value.Int64 (Int64.of_int (i * 1_000_003)));
               ("tag", Wire.Value.Utf8 "sensor");
               ("payload", Wire.Value.int_array [| i; i + 1; i + 2; i + 3 |]);
             ]))
  in
  let prog = Wire.Schema.prog_of_xdr (Wire.Xdr.schema_of_value value) in
  let source = Ilp.Marshal_prog (prog, value) in
  let n = Ilp.marshal_size source in
  ( source,
    n,
    Secure.Record.of_int64 0x5EC0BE7CA57L,
    Adu.name ~dest_off:0 ~dest_len:n ~stream:1 ~index:0 () )

(* Steady-state Bytebuf deltas and GC minor words per record for the seal
   and the open the transport runs: the sender's compiled marshal instance
   behind {!Secure.Record.seal_params}, trailer included (tx), and the
   receiver's in-place {!Secure.Record.open_encoded} of an encoded ADU
   (rx) — the acceptance gate's created_total check, run directly so the
   CLI can vouch for it without the bench harness. *)
let secure_alloc_gate () =
  let source, n, rc, name = secure_workload () in
  let plen = n + Secure.Record.overhead in
  let enc = Bytebuf.create (Adu.header_size + plen) in
  let dst = Bytebuf.sub enc ~pos:Adu.header_size ~len:n in
  let inst =
    Ilp.compile_marshal
      [
        Ilp.Aead_seal (Secure.Record.params rc);
        Ilp.Checksum Checksum.Kind.Crc32;
        Ilp.Deliver_copy;
      ]
  in
  let seal () =
    ignore (Secure.Record.seal_params rc name);
    Ilp.exec_marshal inst ~dst source;
    Secure.Record.write_trailer rc inst enc ~pos:(Adu.header_size + n)
  in
  let rounds = 50 in
  (* Bytebufs made and this domain's minor words per call of [f]. *)
  let steady f =
    f ();
    let a0 = Bytebuf.created_total () and w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      f ()
    done;
    ( Bytebuf.created_total () - a0,
      (Gc.minor_words () -. w0) /. float_of_int rounds )
  in
  let tx = steady seal in
  (* The sealed record as the receiver reassembles it, header ‖ ct ‖
     epoch ‖ tag, restored after every open so each open sees the same
     ciphertext. *)
  Adu.write_header enc ~pos:0 name ~plen
    ~payload_crc:(Checksum.Crc32.digest_sub enc ~pos:Adu.header_size ~len:plen);
  let h = Adu.header () in
  if not (Adu.read_header h enc ~pos:0 ~len:(Bytebuf.length enc)) then
    failwith "secure selftest: the sealed ADU does not read back";
  let copy = Bytebuf.copy enc in
  let open_once () =
    if not (Secure.Record.open_encoded rc h enc ~pos:0) then
      failwith "secure selftest: the record does not open";
    Bytebuf.blit ~src:copy ~src_pos:0 ~dst:enc ~dst_pos:0
      ~len:(Bytebuf.length enc)
  in
  (tx, steady open_once)

(* The seal, over a held program and marshal instance, and the open in
   place both allocate nothing, whatever the record's length: any word per
   record is a regression. *)
let secure_words_bound = 0.

let run_secure_selftest smoke seed =
  let module Soak = Alf_chaos.Soak in
  let seed = Int64.of_int seed in
  let secure_only = List.filter (fun c -> c.Soak.secure) in
  let sim_cases = secure_only (Soak.matrix ~smoke ~seed ()) in
  let udp_cases = secure_only (Soak.udp_matrix ~smoke ~seed ()) in
  Format.printf "netsim: %d secure soak case(s)@." (List.length sim_cases);
  let sim = List.map Soak.run sim_cases in
  List.iter (fun o -> Format.printf "%a@." Soak.pp_outcome o) sim;
  Format.printf "udp: %d secure soak case(s)@." (List.length udp_cases);
  let udp = List.map Soak.run_udp udp_cases in
  List.iter (fun o -> Format.printf "%a@." Soak.pp_outcome o) udp;
  let (tx_allocs, tx_words), (rx_allocs, rx_words) = secure_alloc_gate () in
  Format.printf
    "steady-state Bytebuf allocs over 50 rounds: tx %d, rx %d (gate 0)@.\
     GC words per record: tx %.1f, rx %.1f (bound %.0f)@."
    tx_allocs rx_allocs tx_words rx_words secure_words_bound;
  let bad = List.filter (fun o -> not (Soak.ok o)) (sim @ udp) in
  let words_ok =
    tx_words <= secure_words_bound && rx_words <= secure_words_bound
  in
  if bad = [] && tx_allocs = 0 && rx_allocs = 0 && words_ok then begin
    Format.printf
      "secure selftest ok: rekey under loss absorbed and tag corruption \
       counted on both backends, zero steady-state allocations@.";
    `Ok ()
  end
  else if bad <> [] then
    `Error
      ( false,
        Printf.sprintf "%d secure soak case(s) violated invariants"
          (List.length bad) )
  else if not words_ok then
    `Error
      ( false,
        Printf.sprintf "GC words per record: tx %.1f rx %.1f (bound %.0f)"
          tx_words rx_words secure_words_bound )
  else
    `Error
      ( false,
        Printf.sprintf "steady-state Bytebuf allocations: tx %d rx %d (want 0)"
          tx_allocs rx_allocs )

let secure_cmd =
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"The tier-1 soak subsets.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Root RNG seed for the soak cases.")
  in
  Cmd.v
    (Cmd.info "secure"
       ~doc:
         "Exercise the fused AEAD record layer: the secure soak cases \
          (mid-stream rekey under loss, tag-targeted corruption) on both \
          the simulator and real loopback UDP plus the zero-allocation \
          steady-state gate for the fused seal and the record open. The \
          fused-vs-layered timings are E20's, in $(b,make secure-smoke).")
    Term.(ret (const run_secure_selftest $ smoke $ seed))

(* --- serve: the sharded many-session engine under a load generator --- *)

module Serve = Alf_serve.Server
module Loadgen = Alf_serve.Loadgen
module Ingress = Alf_serve.Ingress
module Hostile = Alf_chaos.Hostile

type serve_report = {
  sv_backend : string;
  sv_sessions : int;
  sv_adus : int;  (* per session *)
  sv_shards : int;
  sv_domains : int;
  sv_payload : int;
  sv_wall_s : float;
  sv_adus_per_s : float;
  sv_mbps : float;
  sv_peak_live : int;
  sv_done : int;
  sv_delivered : int;
  sv_gone : int;
  sv_arrivals : int;
  sv_dropped : int;
  sv_steady_allocs : int;  (* data-pool allocations inside the window *)
  sv_steady_words : float;  (* this domain's GC words per ADU, same window *)
  sv_fallback_allocs : int;
  sv_max_ahead : int;
  sv_counter_sum_ok : bool;
  sv_finished : bool;
}

let serve_ok r =
  r.sv_finished
  && r.sv_done = r.sv_sessions
  && r.sv_delivered + r.sv_gone = r.sv_sessions * r.sv_adus
  && r.sv_peak_live >= r.sv_sessions
  && r.sv_steady_allocs = 0
  && r.sv_fallback_allocs = 0
  && r.sv_counter_sum_ok

let pp_serve_report ppf r =
  Format.fprintf ppf
    "serve/%s: %d sessions x %d ADUs x %dB  %d shards/%d domains  %.2fs  \
     %.0f ADU/s  %.1f Mb/s  peak live %d  done %d  delivered %d  gone %d  \
     dropped %d  steady allocs %d  %.1f words/ADU  fallback %d  max ahead \
     %d  obs sums %b  finished %b"
    r.sv_backend r.sv_sessions r.sv_adus r.sv_payload r.sv_shards r.sv_domains
    r.sv_wall_s r.sv_adus_per_s r.sv_mbps r.sv_peak_live r.sv_done
    r.sv_delivered r.sv_gone r.sv_dropped r.sv_steady_allocs r.sv_steady_words
    r.sv_fallback_allocs r.sv_max_ahead r.sv_counter_sum_ok r.sv_finished

(* Cross-check the Obs wiring: the per-shard registry counters, summed,
   must reproduce the engine's programmatic totals. *)
let obs_sums_match registry server =
  let totals = Serve.totals server in
  let sum name =
    let acc = ref 0 in
    for sid = 0 to Serve.shard_count server - 1 do
      match
        Obs.Registry.find ~registry (Printf.sprintf "serve.shard%d.%s" sid name)
      with
      | Some (Obs.Registry.Counter c) -> acc := !acc + Obs.Counter.value c
      | _ -> ()
    done;
    !acc
  in
  sum "delivered" = totals.Serve.delivered
  && sum "datagrams" = totals.Serve.datagrams
  && sum "dones" = totals.Serve.dones
  && sum "admitted" = totals.Serve.admitted
  && sum "arrivals" = totals.Serve.arrivals
  && sum "accepted" = totals.Serve.accepted
  && Array.for_all Fun.id
       (Array.mapi
          (fun i r ->
            sum ("drop." ^ Ingress.reason_name r) = totals.Serve.drops.(i))
          Ingress.all_reasons)

(* The common driver skeleton: [emit] pushes a bounded batch of loadgen
   datagrams, [turn] lets the backend carry them (and the replies), pump
   processes, and the steady-allocation window covers the second half of
   the data phase — every staging/reassembly pool is warm by then, and
   the control pool's own warm-up (DONEs, repair NACKs) starts only at
   the CLOSE round, after the window has closed. *)
let drive_serve ~backend ~sessions ~adus ~payload ~shards ~domains ~budget
    ?(hostile : Hostile.t option) ?(hostile_budget = 0) ?(load_hw = ref 0)
    ~(turn : unit -> unit) ~(gen : Loadgen.t) ~(server : Serve.t) ~registry
    ~max_rounds () =
  let data_emissions = sessions * adus in
  let half_data = data_emissions / 2 in
  let window_base = ref None
  and window_closed = ref false
  and window_allocs = ref 0
  and window_words = ref 0. in
  let emitted = ref 0 in
  let peak_live = ref 0 in
  let t0 = Unix.gettimeofday () in
  let rounds = ref 0 in
  let stalls = ref 0 in
  while (not (Loadgen.finished gen)) && !rounds < max_rounds do
    incr rounds;
    let sent = Loadgen.step gen ~budget in
    (match hostile with
    | Some h -> ignore (Hostile.step h ~budget:hostile_budget)
    | None -> ());
    emitted := !emitted + sent;
    (match !window_base with
    | None when !emitted >= half_data && !emitted < data_emissions ->
        window_base :=
          Some (Serve.pool_allocated server, Gc.minor_words (), !emitted)
    | Some (base, words, from)
      when (not !window_closed) && !emitted >= data_emissions ->
        window_allocs := Serve.pool_allocated server - base;
        window_words :=
          (Gc.minor_words () -. words) /. float_of_int (!emitted - from);
        window_closed := true
    | _ -> ());
    turn ();
    Serve.pump server;
    turn ();
    let li = Serve.load_state_index (Serve.load_state server) in
    if li > !load_hw then load_hw := li;
    let live = Serve.live_sessions server in
    if live > !peak_live then peak_live := live;
    if sent = 0 && not (Loadgen.finished gen) then begin
      incr stalls;
      (* Lost CLOSEs or DONEs: harvest runs the repair schedule, nudge
         re-CLOSEs, and the next rounds carry the retries. *)
      Serve.harvest server;
      turn ();
      Serve.pump server;
      turn ();
      if !stalls mod 3 = 0 then Loadgen.nudge gen
    end
  done;
  (* Settle: carry anything still in flight and process what is staged,
     so the conservation check (arrivals = accepted + drops once the
     queues drain) sees an empty inbox. *)
  turn ();
  Serve.pump server;
  let wall = Unix.gettimeofday () -. t0 in
  let totals = Serve.totals server in
  let gstats = Loadgen.stats gen in
  let delivered = totals.Serve.delivered in
  let adus_per_s = if wall > 0. then float_of_int delivered /. wall else 0. in
  let mbps =
    if wall > 0. then
      float_of_int totals.Serve.delivered_bytes *. 8.0 /. wall /. 1e6
    else 0.
  in
  {
    sv_backend = backend;
    sv_sessions = sessions;
    sv_adus = adus;
    sv_shards = shards;
    sv_domains = domains;
    sv_payload = payload;
    sv_wall_s = wall;
    sv_adus_per_s = adus_per_s;
    sv_mbps = mbps;
    sv_peak_live = !peak_live;
    sv_done = Loadgen.done_count gen;
    sv_delivered = delivered;
    sv_gone = totals.Serve.gone + totals.Serve.gone_local;
    sv_arrivals = totals.Serve.arrivals;
    sv_dropped = totals.Serve.dropped + gstats.Loadgen.send_failed;
    sv_steady_allocs = !window_allocs;
    sv_steady_words = !window_words;
    sv_fallback_allocs = totals.Serve.fallback_allocs;
    sv_max_ahead = Serve.max_ahead_load server;
    sv_counter_sum_ok = obs_sums_match registry server;
    sv_finished = Loadgen.finished gen;
  }

(* --- hostile mode: the byzantine client mixed into the drive --- *)

let hostile_base_port = 40_000

(* Under byzantine load the engine totals include hostile deliveries, so
   honest sessions are accounted exactly through the [on_complete] hook:
   the first completion of each honest session (keyed back to its loadgen
   index) contributes its delivered/gone split once — a completed session
   evicted and later re-driven to completion by the repair path would
   otherwise double-count. The hook fires on worker domains; the mutex
   makes it domain-safe. *)
type honest_acct = {
  ha_mu : Mutex.t;
  ha_seen : Bytes.t;
  mutable ha_completions : int;
  mutable ha_delivered_gone : int;
}

let honest_acct ~sessions =
  {
    ha_mu = Mutex.create ();
    ha_seen = Bytes.make sessions '\000';
    ha_completions = 0;
    ha_delivered_gone = 0;
  }

let record_honest acct k ~delivered ~gone =
  let base = Loadgen.default_config.Loadgen.base_port
  and spp = Loadgen.default_config.Loadgen.streams_per_port in
  if k.Serve.peer_port >= base && k.Serve.peer_port < hostile_base_port then begin
    let idx = ((k.Serve.peer_port - base) * spp) + k.Serve.stream - 1 in
    if idx >= 0 && idx < Bytes.length acct.ha_seen then begin
      Mutex.lock acct.ha_mu;
      if Bytes.get acct.ha_seen idx = '\000' then begin
        Bytes.set acct.ha_seen idx '\001';
        acct.ha_completions <- acct.ha_completions + 1;
        acct.ha_delivered_gone <- acct.ha_delivered_gone + delivered + gone
      end;
      Mutex.unlock acct.ha_mu
    end
  end

type hostile_extras = {
  hx_sent : int;
  hx_send_failed : int;
  hx_malformed : int;  (* bad-bytes datagrams injected *)
  hx_wellformed : int;  (* valid-bytes abuse injected *)
  hx_replies : int;
  hx_ratio : float;  (* hostile share of all datagrams sent *)
  hx_malformed_drops : int;
  hx_backpressure : int;
  hx_policy_drops : int;
  hx_dispatch_errors : int;
  hx_auth_drops : int;  (* AEAD record auth failures (secure runs) *)
  hx_drop_account_ok : bool;
  hx_conservation_ok : bool;
  hx_honest_completions : int;
  hx_honest_delivered_gone : int;
  hx_honest_exact : bool;
  hx_pool_growth : int;
  hx_max_load_state : int;
  hx_drops : (string * int) list;  (* reason -> engine total *)
}

(* [lossless] marks a substrate that neither drops nor corrupts in
   flight (netsim with no impairment): there — and only there — every
   injected malformed datagram must be accounted as a malformed-shape
   drop or a backpressure drop, exactly. On real sockets the kernel may
   shed datagrams before ingest ever sees them, so only the lower bound
   holds (nothing the server drops as malformed can outnumber what the
   client injected). *)
let hostile_extras_of ~server ~acct ~sessions ~adus ~gen ~pool_warm ~load_hw
    ~lossless h =
  let hs = Hostile.stats h in
  let totals = Serve.totals server in
  let gstats = Loadgen.stats gen in
  let drop r = totals.Serve.drops.(Ingress.reason_index r) in
  let malformed_drops = Serve.malformed_drops totals in
  let backpressure = drop Ingress.Backpressure in
  (* Auth drops are malformed-shape (the bytes were forged above the
     CRC) but arise from the byzantine client's *wellformed* abuse — on
     a secure run its perfectly formed keyless ADUs all fail the record
     open. Account them separately so the bad-bytes ledger stays exact. *)
  let auth_drops = drop Ingress.Auth in
  let malformed_wo_auth = malformed_drops - auth_drops in
  let honest_sent = gstats.Loadgen.sent_datagrams in
  let all_sent = hs.Hostile.sent + honest_sent in
  {
    hx_sent = hs.Hostile.sent;
    hx_send_failed = hs.Hostile.send_failed;
    hx_malformed = hs.Hostile.malformed;
    hx_wellformed = hs.Hostile.wellformed;
    hx_replies = hs.Hostile.replies_rx;
    hx_ratio =
      (if all_sent = 0 then 0.
       else float_of_int hs.Hostile.sent /. float_of_int all_sent);
    hx_malformed_drops = malformed_drops;
    hx_backpressure = backpressure;
    hx_policy_drops = totals.Serve.dropped - malformed_drops;
    hx_dispatch_errors = drop Ingress.Dispatch_error;
    hx_auth_drops = auth_drops;
    hx_drop_account_ok =
      malformed_wo_auth <= hs.Hostile.malformed
      && auth_drops <= hs.Hostile.wellformed + hs.Hostile.malformed
      && ((not lossless)
         || hs.Hostile.send_failed > 0
         || hs.Hostile.malformed <= malformed_wo_auth + backpressure);
    hx_conservation_ok =
      totals.Serve.arrivals = totals.Serve.accepted + totals.Serve.dropped;
    hx_honest_completions = acct.ha_completions;
    hx_honest_delivered_gone = acct.ha_delivered_gone;
    hx_honest_exact =
      acct.ha_completions = sessions
      && acct.ha_delivered_gone = sessions * adus;
    hx_pool_growth = Serve.pool_allocated server - pool_warm;
    hx_max_load_state = load_hw;
    hx_drops =
      Array.to_list
        (Array.mapi
           (fun i r -> (Ingress.reason_name r, totals.Serve.drops.(i)))
           Ingress.all_reasons);
  }

let hostile_ok (r, hx) =
  r.sv_finished
  && r.sv_done = r.sv_sessions
  && hx.hx_honest_exact
  && r.sv_steady_allocs = 0
  && hx.hx_pool_growth = 0
  && hx.hx_dispatch_errors = 0
  && hx.hx_drop_account_ok
  && hx.hx_conservation_ok
  && hx.hx_ratio >= 0.3
  && r.sv_counter_sum_ok

let pp_hostile_extras ppf hx =
  Format.fprintf ppf
    "  hostile: %d sent (%.0f%% of traffic, %d malformed / %d wellformed)  \
     replies %d  malformed drops %d  auth drops %d  backpressure %d  \
     policy drops %d  dispatch errors %d  honest %d sessions / %d ADUs  \
     pool growth %d  peak load state %d  accounting %b  conservation \
     %b@\n  drops:"
    hx.hx_sent
    (100. *. hx.hx_ratio)
    hx.hx_malformed hx.hx_wellformed hx.hx_replies hx.hx_malformed_drops
    hx.hx_auth_drops hx.hx_backpressure hx.hx_policy_drops
    hx.hx_dispatch_errors
    hx.hx_honest_completions hx.hx_honest_delivered_gone hx.hx_pool_growth
    hx.hx_max_load_state hx.hx_drop_account_ok hx.hx_conservation_ok;
  List.iter
    (fun (name, n) -> if n > 0 then Format.fprintf ppf " %s=%d" name n)
    hx.hx_drops

(* [Gc.minor_words] counts the calling domain only, so a one-domain run's
   window reads the whole process and the gate reads it; a run on more
   domains reports its caller's share under another name. *)
let words_field r =
  ( (if r.sv_domains = 1 then "steady_words_per_adu" else "caller_words_per_adu"),
    Obs.Json.Num r.sv_steady_words )

let hostile_row r hx =
  let i = Obs.Json.num_of_int in
  Obs.Json.Obj
    [
      ( "name",
        Obs.Json.Str
          (Printf.sprintf "hostile/%s/s%d/d%d" r.sv_backend r.sv_sessions
             r.sv_domains) );
      ("sessions", i r.sv_sessions);
      ("adus_per_session", i r.sv_adus);
      ("payload_bytes", i r.sv_payload);
      ("shards", i r.sv_shards);
      ("domains", i r.sv_domains);
      ("wall_s", Obs.Json.Num r.sv_wall_s);
      ("adus_per_s", Obs.Json.Num r.sv_adus_per_s);
      ("arrivals", i r.sv_arrivals);
      ("hostile_sent", i hx.hx_sent);
      ("hostile_malformed", i hx.hx_malformed);
      ("hostile_wellformed", i hx.hx_wellformed);
      ("hostile_ratio", Obs.Json.Num hx.hx_ratio);
      ("malformed_drops", i hx.hx_malformed_drops);
      ("auth_drops", i hx.hx_auth_drops);
      ("backpressure_drops", i hx.hx_backpressure);
      ("policy_drops", i hx.hx_policy_drops);
      ("dispatch_errors", i hx.hx_dispatch_errors);
      ("honest_completions", i hx.hx_honest_completions);
      ("honest_delivered_gone", i hx.hx_honest_delivered_gone);
      ("pool_growth", i hx.hx_pool_growth);
      ("max_load_state", i hx.hx_max_load_state);
      ("steady_allocs", i r.sv_steady_allocs);
      words_field r;
      ("drop_account_ok", Obs.Json.Bool hx.hx_drop_account_ok);
      ("conservation_ok", Obs.Json.Bool hx.hx_conservation_ok);
      ("obs_sums_ok", Obs.Json.Bool r.sv_counter_sum_ok);
      ( "drops",
        Obs.Json.Obj (List.map (fun (n, v) -> (n, i v)) hx.hx_drops) );
      ("ok", Obs.Json.Bool (hostile_ok (r, hx)));
    ]

let serve_secure_seed = 0x5EC0DEA15EC0DEL

let serve_config ?secure ~shards ~rx_buf_size ~per_shard () =
  {
    Serve.default_config with
    Serve.shards;
    secure =
      (if secure = Some true then Some (Secure.Record.of_int64 serve_secure_seed)
       else None);
    rx_buf_size;
    rx_bufs_per_shard = per_shard;
    ctl_bufs_per_shard = per_shard;
    harvest_interval = 0.02;
    nack_holdoff = 0.02;
  }

let serve_rx_buf_size ~payload =
  max 192 (Framing.fragment_header_size + Adu.header_size + payload + 32)

let hostile_config ~server ~payload =
  {
    Hostile.default_config with
    Hostile.server;
    server_port = Serve.default_config.Serve.port;
    base_port = hostile_base_port;
    payload_len = payload;
    integrity = Serve.default_config.Serve.integrity;
  }

let run_serve_netsim ?(hostile = false) ?(secure = false) ~sessions ~adus
    ~payload ~shards ~domains () =
  let engine = Engine.create () in
  let sched = Netsim.Engine.sched engine in
  let rng = Rng.create ~seed:42L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:Impair.none
      ~queue_limit:1_000_000 ~bandwidth_bps:1e9 ~delay:1e-4 ~a:1 ~b:2 ()
  in
  let ua = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let registry = Obs.Registry.create () in
  let pool =
    if domains > 1 then Some (Par.Pool.create ~domains ()) else None
  in
  let rx_buf_size = serve_rx_buf_size ~payload in
  let per_shard = max 512 (2 * 4096 / shards) in
  let acct = honest_acct ~sessions in
  let on_complete = if hostile then Some (record_honest acct) else None in
  let server =
    Serve.create ~sched ?pool ~io:(Dgram.of_udp ub) ~registry ?on_complete
      ~config:(serve_config ~secure ~shards ~rx_buf_size ~per_shard ())
      ()
  in
  let pool_warm = Serve.pool_allocated server in
  let gen =
    Loadgen.create ~io:(Dgram.of_udp ua)
      {
        Loadgen.default_config with
        Loadgen.sessions;
        adus_per_session = adus;
        payload_len = payload;
        server = 2;
        server_port = Serve.default_config.Serve.port;
        secure =
          (if secure then Some (Secure.Record.of_int64 serve_secure_seed)
           else None);
      }
  in
  let hclient =
    if hostile then
      Some (Hostile.create ~io:(Dgram.of_udp ua) (hostile_config ~server:2 ~payload))
    else None
  in
  let budget = max 256 (shards * per_shard / 2) in
  let turn () =
    Engine.run ~until:(Engine.now engine +. 0.005) ~max_events:10_000_000
      engine
  in
  let load_hw = ref 0 in
  let r =
    drive_serve ~backend:"netsim" ~sessions ~adus ~payload ~shards ~domains
      ~budget ?hostile:hclient ~hostile_budget:(budget * 3 / 7) ~load_hw
      ~turn ~gen ~server ~registry
      ~max_rounds:(max 200 (sessions * (adus + 1) * 4 / budget))
      ()
  in
  let hx =
    Option.map
      (hostile_extras_of ~server ~acct ~sessions ~adus ~gen ~pool_warm
         ~load_hw:!load_hw ~lossless:true)
      hclient
  in
  Serve.stop server;
  (match pool with Some p -> Par.Pool.shutdown p | None -> ());
  (r, hx)

let run_serve_rt ?(hostile = false) ?(secure = false) ~sessions ~adus
    ~payload ~shards ~domains () =
  let loop = Rt.Loop.create () in
  let sched = Rt.Loop.sched loop in
  let rx_buf_size = serve_rx_buf_size ~payload in
  let link_pool = Pool.create ~capacity:128 ~buf_size:rx_buf_size () in
  let link =
    Rt.Udp_link.create ~loop ~pool:link_pool ~buf_size:rx_buf_size ()
  in
  let io = Dgram.of_rt link in
  let registry = Obs.Registry.create () in
  let pool =
    if domains > 1 then Some (Par.Pool.create ~domains ()) else None
  in
  let per_shard = max 512 (2 * 4096 / shards) in
  let acct = honest_acct ~sessions in
  let on_complete = if hostile then Some (record_honest acct) else None in
  let server =
    Serve.create ~sched ?pool ~io ~registry ?on_complete
      ~config:(serve_config ~secure ~shards ~rx_buf_size ~per_shard ())
      ()
  in
  let pool_warm = Serve.pool_allocated server in
  let server_addr =
    Rt.Udp_link.local_addr link ~port:Serve.default_config.Serve.port
  in
  let gen =
    Loadgen.create ~io
      {
        Loadgen.default_config with
        Loadgen.sessions;
        adus_per_session = adus;
        payload_len = payload;
        server = server_addr;
        server_port = Serve.default_config.Serve.port;
        secure =
          (if secure then Some (Secure.Record.of_int64 serve_secure_seed)
           else None);
      }
  in
  let hclient =
    if hostile then
      Some (Hostile.create ~io (hostile_config ~server:server_addr ~payload))
    else None
  in
  (* Loopback sockets drop under burst (finite SO_RCVBUF): keep bursts a
     fraction of the 2 MB budget and let the NACK/re-CLOSE repair path
     absorb what still slips. *)
  let budget = 1024 in
  let turn () = Rt.Loop.run_for loop 0.002 in
  let load_hw = ref 0 in
  let r =
    drive_serve ~backend:"rt" ~sessions ~adus ~payload ~shards ~domains
      ~budget ?hostile:hclient ~hostile_budget:(budget * 3 / 7) ~load_hw
      ~turn ~gen ~server ~registry
      ~max_rounds:(max 500 (sessions * (adus + 1) * 8 / budget))
      ()
  in
  let hx =
    Option.map
      (hostile_extras_of ~server ~acct ~sessions ~adus ~gen ~pool_warm
         ~load_hw:!load_hw ~lossless:false)
      hclient
  in
  Serve.stop server;
  Rt.Udp_link.close link;
  (match pool with Some p -> Par.Pool.shutdown p | None -> ());
  (r, hx)

let run_serve_backend ?hostile ?secure backend ~sessions ~adus ~payload
    ~shards ~domains () =
  match backend with
  | "netsim" ->
      run_serve_netsim ?hostile ?secure ~sessions ~adus ~payload ~shards
        ~domains ()
  | "rt" ->
      run_serve_rt ?hostile ?secure ~sessions ~adus ~payload ~shards ~domains
        ()
  | other -> invalid_arg ("unknown serve backend: " ^ other)

(* The clean-path cost gate: stage-0 validation is a fixed header
   inspection per arrival, so its share of honest throughput is
   (ns-per-validate x arrival rate). The cost is measured directly over
   the wire mix a serving port actually carries — a sealed data fragment
   and each control datagram — and scaled by the clean run's own arrival
   rate; the resulting fraction of the clean run's wall clock must stay
   under 3%. *)
let stage0_overhead_row ~payload clean =
  let integrity = Serve.default_config.Serve.integrity in
  let rx_buf_size = serve_rx_buf_size ~payload in
  let view =
    Framing.view ~max_len:rx_buf_size
      ~max_total_len:(Serve.default_config.Serve.max_adu + Adu.header_size)
      ()
  in
  let payload_buf = Bytebuf.create payload in
  Rng.fill_bytes (Rng.create ~seed:0x57A6E0L) payload_buf;
  let adu = Adu.make (Adu.name ~stream:7 ~index:0 ()) payload_buf in
  let dgs =
    Array.of_list
      (List.map (Ctl.seal integrity)
         (Framing.fragment ~mtu:65507 adu
         @ [
             Ctl.build (Ctl.write_close ~stream:7 ~total:2);
             Ctl.build (Ctl.write_done ~stream:7);
             Ctl.build (fun b -> Ctl.write_nack b ~stream:7 ~have_below:0 [ 1; 2 ]);
           ]))
  in
  let k = Array.length dgs in
  let iters = 2_000_000 in
  let sink = ref 0 in
  let spin n =
    for i = 0 to n - 1 do
      match
        Ingress.validate view (Framing.read_layout view integrity dgs.(i mod k))
      with
      | None -> sink := !sink + view.Framing.stream
      | Some _ -> ()
    done
  in
  spin (iters / 10);
  let t0 = Unix.gettimeofday () in
  spin iters;
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
  ignore (Sys.opaque_identity !sink);
  let frac =
    if clean.sv_wall_s > 0. then
      ns *. float_of_int clean.sv_arrivals /. (clean.sv_wall_s *. 1e9)
    else 1.
  in
  Format.printf
    "hostile/stage0-overhead: %.1f ns/validate x %d arrivals over %.2fs \
     clean wall = %.2f%% of the clean path@."
    ns clean.sv_arrivals clean.sv_wall_s (100. *. frac);
  let i = Obs.Json.num_of_int in
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str "hostile/stage0-overhead");
      ("ns_per_validate", Obs.Json.Num ns);
      ("validated", i iters);
      ("arrivals", i clean.sv_arrivals);
      ("clean_wall_s", Obs.Json.Num clean.sv_wall_s);
      ("overhead_frac", Obs.Json.Num frac);
      ("ok", Obs.Json.Bool (frac < 0.03));
    ]

let serve_row r =
  let i = Obs.Json.num_of_int in
  Obs.Json.Obj
    [
      ( "name",
        Obs.Json.Str
          (Printf.sprintf "serve/%s/s%d/d%d" r.sv_backend r.sv_sessions
             r.sv_domains) );
      ("sessions", i r.sv_sessions);
      ("adus_per_session", i r.sv_adus);
      ("payload_bytes", i r.sv_payload);
      ("shards", i r.sv_shards);
      ("domains", i r.sv_domains);
      ("wall_s", Obs.Json.Num r.sv_wall_s);
      ("adus_per_s", Obs.Json.Num r.sv_adus_per_s);
      ("mbps", Obs.Json.Num r.sv_mbps);
      ("peak_sessions", i r.sv_peak_live);
      ("delivered", i r.sv_delivered);
      ("gone", i r.sv_gone);
      ("dropped", i r.sv_dropped);
      ("pool_allocs_steady", i r.sv_steady_allocs);
      words_field r;
      ("fallback_allocs", i r.sv_fallback_allocs);
      ("max_ahead", i r.sv_max_ahead);
      ("obs_sums_ok", Obs.Json.Bool r.sv_counter_sum_ok);
      ("ok", Obs.Json.Bool (serve_ok r));
    ]

let run_serve_selftest ~secure backend sessions adus payload shards domains =
  let backends =
    match backend with "both" -> [ "netsim"; "rt" ] | b -> [ b ]
  in
  let reports =
    List.map
      (fun b ->
        let r, _ =
          run_serve_backend ~secure b ~sessions ~adus ~payload ~shards
            ~domains ()
        in
        Format.printf "%a@." pp_serve_report r;
        r)
      backends
  in
  if List.for_all serve_ok reports then begin
    Format.printf
      "serve selftest: OK (every session DONE, delivered+gone = sent, zero \
       steady-state pool allocations%s)@."
      (if secure then ", AEAD record layer on every ADU" else "");
    `Ok ()
  end
  else `Error (false, "serve selftest failed (see report lines above)")

let run_serve_hostile ~secure backend sessions adus payload shards domains =
  let backends =
    match backend with "both" -> [ "netsim"; "rt" ] | b -> [ b ]
  in
  let results =
    List.map
      (fun b ->
        let r, hx =
          run_serve_backend ~hostile:true ~secure b ~sessions ~adus ~payload
            ~shards ~domains ()
        in
        let hx = Option.get hx in
        Format.printf "%a@.%a@." pp_serve_report r pp_hostile_extras hx;
        (r, hx))
      backends
  in
  let secure_ok (_, hx) =
    (not secure) || (hx.hx_auth_drops > 0 && hx.hx_drop_account_ok)
  in
  if List.for_all hostile_ok results && List.for_all secure_ok results then begin
    Format.printf
      "hostile selftest: OK (every honest session DONE with exact \
       delivered+gone accounting under >= 30%% byzantine traffic, pool \
       budget flat, zero dispatch errors, every drop reason-coded%s)@."
      (if secure then
         ", byzantine ADUs rejected at the record open as counted auth drops"
       else "");
    `Ok ()
  end
  else `Error (false, "hostile selftest failed (see report lines above)")

let run_serve_bench sessions adus payload out =
  (* Always sweep past one domain, even on a core-limited container:
     the multi-domain point exercises the sharded pump's real parallel
     path (the curve is flat without spare cores, but the row proves the
     engine holds its invariants under concurrent shard tasks). *)
  let max_domains = max 2 (min 4 (Domain.recommended_domain_count () - 1)) in
  let domain_points =
    List.sort_uniq compare [ 1; min 2 max_domains; max_domains ]
  in
  let session_points =
    List.sort_uniq compare [ max 1000 (sessions / 10); sessions ]
  in
  let rows = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          let shards = max 4 (2 * d) in
          let r, _ =
            run_serve_netsim ~sessions:s ~adus ~payload ~shards ~domains:d ()
          in
          Format.printf "%a@." pp_serve_report r;
          rows := serve_row r :: !rows)
        domain_points)
    session_points;
  (* One real-socket point at the full session count: the same engine,
     kernel datagrams underneath. *)
  let rt, _ =
    run_serve_rt ~sessions ~adus ~payload ~shards:(max 4 (2 * max_domains))
      ~domains:max_domains ()
  in
  Format.printf "%a@." pp_serve_report rt;
  rows := serve_row rt :: !rows;
  let json = Obs.Json.Arr (List.rev !rows) in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Format.printf "serve bench -> %s@." out;
  if
    List.for_all
      (fun row ->
        match row with
        | Obs.Json.Obj fields -> (
            match List.assoc_opt "ok" fields with
            | Some (Obs.Json.Bool b) -> b
            | _ -> false)
        | _ -> false)
      (List.rev !rows)
  then `Ok ()
  else `Error (false, "a serve bench row violated its invariants (see " ^ out ^ ")")

let rows_all_ok rows =
  List.for_all
    (fun row ->
      match row with
      | Obs.Json.Obj fields -> (
          match List.assoc_opt "ok" fields with
          | Some (Obs.Json.Bool b) -> b
          | _ -> false)
      | _ -> false)
    rows

let run_hostile_bench sessions adus payload out =
  let domains = max 2 (min 4 (Domain.recommended_domain_count () - 1)) in
  let shards = max 4 (2 * domains) in
  (* The clean baseline first, on the same geometry: the stage-0 overhead
     gate scales the measured per-datagram validation cost by this run's
     arrival rate, and its row proves the hardened defaults leave the
     honest path intact. *)
  let clean, _ = run_serve_netsim ~sessions ~adus ~payload ~shards ~domains () in
  Format.printf "%a@." pp_serve_report clean;
  let rows = ref [ serve_row clean ] in
  (* Both backends run on the pool's domains, through the parallel stage-2
     pump. The simulator runs once more on one domain, where the GC-words
     window covers the whole process. *)
  List.iter
    (fun (b, domains) ->
      let r, hx =
        run_serve_backend ~hostile:true b ~sessions ~adus ~payload ~shards
          ~domains ()
      in
      let hx = Option.get hx in
      Format.printf "%a@.%a@." pp_serve_report r pp_hostile_extras hx;
      rows := hostile_row r hx :: !rows)
    [ ("netsim", domains); ("netsim", 1); ("rt", domains) ];
  rows := stage0_overhead_row ~payload clean :: !rows;
  let rows = List.rev !rows in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string_pretty (Obs.Json.Arr rows));
  output_char oc '\n';
  close_out oc;
  Format.printf "hostile bench -> %s@." out;
  if rows_all_ok rows then `Ok ()
  else
    `Error
      (false, "a hostile bench row violated its invariants (see " ^ out ^ ")")

let serve_cmd =
  let bench =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Sweep sessions x domains on the simulator plus one real-socket \
             point and write the scaling rows to $(docv).")
  in
  let secure =
    Arg.(
      value & flag
      & info [ "secure" ]
          ~doc:
            "Run with the ChaCha20/Poly1305 record layer on: the load \
             generator seals every ADU and the server opens it in place \
             before stage 2; on hostile runs, also gates that byzantine \
             data lands in the $(b,drop.auth) ledger exactly.")
  in
  let hostile =
    Arg.(
      value & flag
      & info [ "hostile" ]
          ~doc:
            "Mix a seeded byzantine client (fuzz, truncation, replay, \
             session churn, slow drip, NACK storms, forged CLOSE totals) \
             into the drive at >= 30% of the traffic and gate on the \
             adversarial-ingress invariants; with $(b,--bench), write \
             BENCH_hostile.json including the stage-0 overhead row.")
  in
  let backend =
    Arg.(
      value & opt string "netsim"
      & info [ "backend" ] ~docv:"netsim|rt|both"
          ~doc:"Substrate for the selftest.")
  in
  let sessions =
    Arg.(
      value & opt int 20_000
      & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent ADU streams.")
  in
  let adus =
    Arg.(
      value & opt int 2
      & info [ "adus" ] ~docv:"N" ~doc:"ADUs per session.")
  in
  let payload =
    Arg.(
      value & opt int 64
      & info [ "payload" ] ~docv:"BYTES" ~doc:"Payload bytes per ADU.")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~docv:"N" ~doc:"Session-table shards (selftest).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for stage-2 processing (selftest).")
  in
  let out =
    Arg.(
      value & opt string "BENCH_scale.json"
      & info [ "out" ] ~docv:"PATH" ~doc:"Where to write the JSON report.")
  in
  let run bench secure hostile backend sessions adus payload shards domains
      out =
    if sessions < 1 || adus < 1 || payload < 1 then
      `Error (false, "--sessions, --adus and --payload must be positive")
    else if shards < 1 || domains < 1 then
      `Error (false, "--shards and --domains must be positive")
    else if bench && hostile then
      let out = if out = "BENCH_scale.json" then "BENCH_hostile.json" else out in
      run_hostile_bench sessions adus payload out
    else if bench then run_serve_bench sessions adus payload out
    else if hostile then
      run_serve_hostile ~secure backend sessions adus payload shards domains
    else run_serve_selftest ~secure backend sessions adus payload shards domains
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the domain-sharded many-session server engine under a \
          deterministic load generator: every arrival is demultiplexed to \
          a session shard, reassembled, pushed through the stage-2 \
          manipulation plan, and accounted per shard in the metrics \
          registry. Selftest asserts completion, exact delivered+gone \
          accounting and zero steady-state pool allocations; $(b,--bench) \
          writes sessions x domains scaling curves.")
    Term.(
      ret
        (const run $ bench $ secure $ hostile $ backend $ sessions $ adus
       $ payload $ shards $ domains $ out))

let () =
  let doc = "ALF/ILP protocol laboratory (Clark & Tennenhouse, SIGCOMM 1990)" in
  let info = Cmd.info "alfnet" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            transfer_cmd;
            atm_cmd;
            syntax_cmd;
            parallel_cmd;
            ilp_cmd;
            marshal_cmd;
            metrics_cmd;
            soak_cmd;
            udp_cmd;
            secure_cmd;
            serve_cmd;
          ]))
