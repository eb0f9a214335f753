(* Remote procedure call: presentation conversion into language-level
   variables (paper sections 5 and 6).

   A tiny key-value/calculator service is exported over the datagram
   substrate. Argument values are marshalled in a per-call transfer
   syntax (BER, XDR or LWTS) and, on the server, scattered into the
   procedure's own OCaml refs - the "move to the stack of the application
   process" step the paper argues cannot be outboarded.

     dune exec examples/rpc_demo.exe *)

open Netsim
open Rpcsim

let () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:99L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.15)
      ~impair_back:(Impair.lossy 0.15) ~bandwidth_bps:10e6 ~delay:0.004 ~a:1
      ~b:2 ()
  in
  let udp_client = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let udp_server = Netsim.Udp.create ~engine ~node:net.Topology.b () in

  (* --- Server --- *)
  let server = Rpc.server ~engine ~udp:udp_server ~port:111 in

  (* proc 1: weighted sum. The frame's slots are ordinary OCaml refs; the
     RPC layer scatters each decoded argument into them. *)
  let x = ref 0 and y = ref 0 and scale = ref 0 in
  let sum_frame =
    [ ("x", Stub.Int_slot x); ("y", Stub.Int_slot y); ("scale", Stub.Int_slot scale) ]
  in
  Rpc.register server ~proc:1 ~args:sum_frame (fun _ ->
      Wire.Value.Int ((!x + !y) * !scale));

  (* proc 2: string manipulation, mixing argument types. *)
  let text = ref "" and upper = ref false in
  let text_frame = [ ("text", Stub.String_slot text); ("upper", Stub.Bool_slot upper) ] in
  Rpc.register server ~proc:2 ~args:text_frame (fun _ ->
      let s = if !upper then String.uppercase_ascii !text else String.lowercase_ascii !text in
      Wire.Value.Utf8 s);

  (* --- Client --- *)
  let client =
    Rpc.client ~engine ~udp:udp_client ~port:2000 ~server_addr:2 ~server_port:111
      ~retry_interval:0.05 ~max_retries:20 ()
  in
  let pending = ref 0 in
  let call ~proc ~transfer ~args value show =
    incr pending;
    Rpc.call client ~proc ~transfer ~args value ~reply:(fun reply ->
        decr pending;
        match reply with
        | Some v ->
            Printf.printf "  t=%.3fs  [%s] %s = %s\n" (Engine.now engine)
              (Rpc.transfer_name transfer) show
              (Format.asprintf "%a" Wire.Value.pp v)
        | None ->
            Printf.printf "  t=%.3fs  [%s] %s FAILED\n" (Engine.now engine)
              (Rpc.transfer_name transfer) show)
  in
  Printf.printf "calling through a 15%%-lossy network (both directions)...\n";
  List.iter
    (fun transfer ->
      call ~proc:1 ~transfer ~args:sum_frame
        (Wire.Value.List [ Wire.Value.Int 19; Wire.Value.Int 23; Wire.Value.Int 2 ])
        "sum(19, 23) * 2";
      call ~proc:2 ~transfer ~args:text_frame
        (Wire.Value.List [ Wire.Value.Utf8 "Application Level Framing"; Wire.Value.Bool true ])
        "upper(\"Application Level Framing\")")
    [ Rpc.T_ber; Rpc.T_xdr; Rpc.T_lwts ];

  Engine.run ~until:120.0 engine;

  let cs = Rpc.client_stats client and ss = Rpc.server_stats server in
  Printf.printf
    "\nclient: %d calls, %d retries, %d replies, %d timeouts\n"
    cs.Rpc.calls_sent cs.Rpc.retries cs.Rpc.replies cs.Rpc.timeouts;
  Printf.printf
    "server: %d executions, %d duplicates served from the reply cache\n"
    ss.Rpc.calls_executed ss.Rpc.duplicate_calls;
  Printf.printf
    "\nEach request/reply is one self-contained ADU: decodable on arrival,\n\
     deduplicated by name (xid), retried as a whole - ALF in miniature.\n";
  if !pending <> 0 then exit 1
