open Netsim
open Rpcsim

(* --- Stub --- *)

let test_stub_scatter_gather () =
  let a = ref 0 and b = ref "" and c = ref false in
  let frame =
    [ ("a", Stub.Int_slot a); ("b", Stub.String_slot b); ("c", Stub.Bool_slot c) ]
  in
  (match
     Stub.scatter frame
       (Wire.Value.List [ Wire.Value.Int 42; Wire.Value.Utf8 "hi"; Wire.Value.Bool true ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "int slot" 42 !a;
  Alcotest.(check string) "string slot" "hi" !b;
  Alcotest.(check bool) "bool slot" true !c;
  Alcotest.(check bool) "gather reads back" true
    (Wire.Value.equal (Stub.gather frame)
       (Wire.Value.List [ Wire.Value.Int 42; Wire.Value.Utf8 "hi"; Wire.Value.Bool true ]))

let test_stub_mismatch_leaves_slots () =
  let a = ref 7 in
  let frame = [ ("a", Stub.Int_slot a) ] in
  (match Stub.scatter frame (Wire.Value.List [ Wire.Value.Bool true ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "type mismatch accepted");
  (match Stub.scatter frame (Wire.Value.List [ Wire.Value.Int 1; Wire.Value.Int 2 ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "arity mismatch accepted");
  Alcotest.(check int) "slot untouched" 7 !a

let test_stub_record_args () =
  let a = ref 0 in
  let frame = [ ("a", Stub.Int_slot a) ] in
  (match Stub.scatter frame (Wire.Value.Record [ ("x", Wire.Value.Int 5) ]) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "record positional" 5 !a

let test_stub_schema () =
  let frame =
    [
      ("i", Stub.Int_slot (ref 0));
      ("h", Stub.Int64_slot (ref 0L));
      ("s", Stub.String_slot (ref ""));
    ]
  in
  Alcotest.(check bool) "schema shape" true
    (Stub.schema frame = Wire.Xdr.S_struct [ Wire.Xdr.S_int; Wire.Xdr.S_hyper; Wire.Xdr.S_string ])

(* --- RPC end-to-end --- *)

type rpc_world = {
  engine : Engine.t;
  client : Rpc.client;
  server : Rpc.server;
}

let add_frame () =
  [ ("x", Stub.Int_slot (ref 0)); ("y", Stub.Int_slot (ref 0)) ]

let make_rpc_world ?(loss = 0.0) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:31L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy loss)
      ~impair_back:(Impair.lossy loss) ~bandwidth_bps:10e6 ~delay:0.002 ~a:1 ~b:2 ()
  in
  let uc = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let us = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let server = Rpc.server ~engine ~udp:us ~port:111 in
  Rpc.register server ~proc:1 ~args:(add_frame ()) (fun v ->
      match v with
      | Wire.Value.List [ Wire.Value.Int x; Wire.Value.Int y ] -> Wire.Value.Int (x + y)
      | _ -> Wire.Value.Null);
  let client =
    Rpc.client ~engine ~udp:uc ~port:2000 ~server_addr:2 ~server_port:111 ()
  in
  { engine; client; server }

let call_add w transfer x y =
  let result = ref None in
  Rpc.call w.client ~proc:1 ~transfer ~args:(add_frame ())
    (Wire.Value.List [ Wire.Value.Int x; Wire.Value.Int y ])
    ~reply:(fun r -> result := Some r);
  Engine.run ~until:60.0 w.engine;
  !result

let test_rpc_add_all_syntaxes () =
  List.iter
    (fun transfer ->
      let w = make_rpc_world () in
      match call_add w transfer 20 22 with
      | Some (Some (Wire.Value.Int 42)) -> ()
      | Some (Some v) ->
          Alcotest.fail
            (Format.asprintf "wrong result %a via %s" Wire.Value.pp v
               (Rpc.transfer_name transfer))
      | Some None -> Alcotest.fail ("call failed via " ^ Rpc.transfer_name transfer)
      | None -> Alcotest.fail "no reply at all")
    [ Rpc.T_ber; Rpc.T_xdr; Rpc.T_lwts ]

let test_rpc_lossy_retries () =
  let w = make_rpc_world ~loss:0.3 () in
  (match call_add w Rpc.T_ber 1 2 with
  | Some (Some (Wire.Value.Int 3)) -> ()
  | _ -> Alcotest.fail "lossy call failed");
  let cs = Rpc.client_stats w.client in
  Alcotest.(check bool) "some retries happened" true (cs.Rpc.retries >= 0)

let test_rpc_unknown_proc () =
  let w = make_rpc_world () in
  let result = ref None in
  Rpc.call w.client ~proc:99 ~args:[] (Wire.Value.List [])
    ~reply:(fun r -> result := Some r);
  Engine.run ~until:60.0 w.engine;
  (match !result with
  | Some None -> ()
  | _ -> Alcotest.fail "expected failure reply");
  Alcotest.(check int) "server counted" 1 (Rpc.server_stats w.server).Rpc.unknown_procs

let test_rpc_exactly_once_execution () =
  (* Retry interval shorter than the RTT forces duplicate requests; the
     reply cache must answer them without re-executing. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:32L in
  let net =
    Topology.point_to_point ~engine ~rng ~bandwidth_bps:10e6 ~delay:0.050 ~a:1 ~b:2 ()
  in
  let uc = Netsim.Udp.create ~engine ~node:net.Topology.a () in
  let us = Netsim.Udp.create ~engine ~node:net.Topology.b () in
  let server = Rpc.server ~engine ~udp:us ~port:111 in
  let executions = ref 0 in
  Rpc.register server ~proc:1 ~args:[] (fun _ ->
      incr executions;
      Wire.Value.Int !executions);
  let client =
    Rpc.client ~engine ~udp:uc ~port:2000 ~server_addr:2 ~server_port:111
      ~retry_interval:0.01 ~max_retries:40 ()
  in
  let result = ref None in
  Rpc.call client ~proc:1 ~args:[] (Wire.Value.List []) ~reply:(fun r -> result := Some r);
  Engine.run ~until:60.0 engine;
  (match !result with
  | Some (Some (Wire.Value.Int 1)) -> ()
  | _ -> Alcotest.fail "wrong reply");
  Alcotest.(check int) "executed once" 1 !executions;
  Alcotest.(check bool) "duplicates answered from cache" true
    ((Rpc.server_stats server).Rpc.duplicate_calls > 0)

let test_rpc_timeout () =
  (* 100% loss: the call must give up and report None. *)
  let w = make_rpc_world ~loss:1.0 () in
  (match call_add w Rpc.T_ber 1 1 with
  | Some None -> ()
  | Some (Some _) -> Alcotest.fail "reply through a dead network"
  | None -> Alcotest.fail "no callback at all");
  Alcotest.(check int) "timeout counted" 1 (Rpc.client_stats w.client).Rpc.timeouts

let test_rpc_over_atm () =
  (* The same RPC machinery over AAL5 cells: calls and replies are frames
     segmented into 53-byte cells on the wire. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:33L in
  let net =
    Topology.point_to_point ~engine ~rng ~impair:(Impair.lossy 0.003)
      ~queue_limit:8192 ~bandwidth_bps:50e6 ~delay:0.002 ~a:1 ~b:2 ()
  in
  let io_c = Atmsim.Bearer.dgram (Atmsim.Bearer.create ~engine ~node:net.Topology.a ()) in
  let io_s = Atmsim.Bearer.dgram (Atmsim.Bearer.create ~engine ~node:net.Topology.b ()) in
  let server = Rpc.server_io ~engine ~io:io_s ~port:111 in
  Rpc.register server ~proc:1 ~args:(add_frame ()) (fun v ->
      match v with
      | Wire.Value.List [ Wire.Value.Int x; Wire.Value.Int y ] -> Wire.Value.Int (x * y)
      | _ -> Wire.Value.Null);
  let client =
    Rpc.client_io ~engine ~io:io_c ~port:2000 ~server_addr:2 ~server_port:111
      ~retry_interval:0.1 ~max_retries:20 ()
  in
  let results = ref [] in
  for i = 1 to 8 do
    Rpc.call client ~proc:1 ~transfer:Rpc.T_lwts ~args:(add_frame ())
      (Wire.Value.List [ Wire.Value.Int i; Wire.Value.Int i ])
      ~reply:(fun r ->
        match r with
        | Some (Wire.Value.Int v) -> results := v :: !results
        | _ -> Alcotest.fail "bad reply over atm")
  done;
  Engine.run ~until:120.0 engine;
  Alcotest.(check (list int)) "squares via cells"
    (List.init 8 (fun i -> (8 - i) * (8 - i)))
    !results

let test_rpc_concurrent_calls () =
  let w = make_rpc_world () in
  let results = ref [] in
  for i = 1 to 10 do
    Rpc.call w.client ~proc:1 ~args:(add_frame ())
      (Wire.Value.List [ Wire.Value.Int i; Wire.Value.Int (i * 10) ])
      ~reply:(fun r ->
        match r with
        | Some (Wire.Value.Int v) -> results := v :: !results
        | _ -> Alcotest.fail "bad reply")
  done;
  Engine.run ~until:60.0 w.engine;
  Alcotest.(check (list int)) "all replies, matched by xid"
    (List.init 10 (fun i -> (10 - i) * 11))
    !results

let () =
  Alcotest.run "rpcsim"
    [
      ( "stub",
        [
          Alcotest.test_case "scatter/gather" `Quick test_stub_scatter_gather;
          Alcotest.test_case "mismatch leaves slots" `Quick test_stub_mismatch_leaves_slots;
          Alcotest.test_case "record args" `Quick test_stub_record_args;
          Alcotest.test_case "schema" `Quick test_stub_schema;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "add via every syntax" `Quick test_rpc_add_all_syntaxes;
          Alcotest.test_case "lossy retries" `Quick test_rpc_lossy_retries;
          Alcotest.test_case "unknown proc" `Quick test_rpc_unknown_proc;
          Alcotest.test_case "exactly-once execution" `Quick test_rpc_exactly_once_execution;
          Alcotest.test_case "timeout" `Quick test_rpc_timeout;
          Alcotest.test_case "concurrent calls" `Quick test_rpc_concurrent_calls;
          Alcotest.test_case "rpc over atm cells" `Quick test_rpc_over_atm;
        ] );
    ]
