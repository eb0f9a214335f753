open Netsim

exception Fault of string

type dir = Forward | Backward | Both

type event =
  | Kill_sender of { at : float }
  | Link_down of { dir : dir; at : float; duration : float }
  | Burst_impair of { dir : dir; at : float; duration : float; impair : Impair.t }
  | Pool_squeeze of { at : float; duration : float; hold : int }
  | Worker_fault of { at : float }

type plan = { seed : int64; events : event list }

let none ~seed = { seed; events = [] }

let pp_dir ppf = function
  | Forward -> Format.pp_print_string ppf "fwd"
  | Backward -> Format.pp_print_string ppf "back"
  | Both -> Format.pp_print_string ppf "both"

let pp_event ppf = function
  | Kill_sender { at } -> Format.fprintf ppf "kill-sender@%.3f" at
  | Link_down { dir; at; duration } ->
      Format.fprintf ppf "link-down(%a)@%.3f+%.3f" pp_dir dir at duration
  | Burst_impair { dir; at; duration; impair } ->
      Format.fprintf ppf "burst(%a %a)@%.3f+%.3f" pp_dir dir Impair.pp impair
        at duration
  | Pool_squeeze { at; duration; hold } ->
      Format.fprintf ppf "pool-squeeze(%d)@%.3f+%.3f" hold at duration
  | Worker_fault { at } -> Format.fprintf ppf "worker-fault@%.3f" at

let pp_plan ppf p =
  Format.fprintf ppf "plan(seed=%Ld: %a)" p.seed
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_event)
    p.events

(* UDP and AAL5 both checksum below the ALF layer, so in-flight
   corruption never reaches the transport's own integrity trailer. This
   wrapper is the fault the trailer actually defends against: corruption
   *above* the substrate's check — a checksum-recomputing middlebox, a
   DMA error between verify and delivery. It flips one byte of an
   inbound datagram with probability [rate], after the substrate has
   vouched for it. *)
let corrupting_dgram ~rng ~rate (d : Alf_core.Dgram.t) =
  if rate <= 0.0 then d
  else
    {
      d with
      Alf_core.Dgram.bind =
        (fun ~port handler ->
          d.Alf_core.Dgram.bind ~port (fun ~src ~src_port buf ->
              let buf =
                if Rng.bool rng ~p:rate then Impair.corrupt_payload rng buf
                else buf
              in
              handler ~src ~src_port buf));
    }

(* Corruption aimed *above every checksum*: flip one bit of the
   Poly1305 tag inside an inbound sealed data fragment, then re-true the
   ADU CRC and the datagram integrity trailer over the damaged bytes.
   Stage 1 now vouches for the unit end to end — only the AEAD record
   open can catch it, and it must: a counted auth drop that behaves like
   loss (unretire + NACK repair), never a delivery. Only single-fragment
   data datagrams are touched (the tag and the ADU CRC live in the same
   unit there); control traffic and multi-fragment pieces pass clean. *)
let auth_corrupting_dgram ~rng ~rate ~integrity (d : Alf_core.Dgram.t) =
  if rate <= 0.0 then d
  else
    let open Bufkit in
    let open Alf_core in
    let v = Framing.view () in
    let flip buf =
      (* The layout only: the trailer is about to be re-trued anyway. *)
      match Framing.read_layout v integrity buf with
      | Framing.Valid
        when v.Framing.kind = Framing.Data
             && v.Framing.nfrags = 1
             && v.Framing.chunk_len > Adu.header_size + Secure.Record.overhead
             && Adu.read_header v.Framing.adu buf ~pos:v.Framing.chunk_off
                  ~len:v.Framing.chunk_len ->
          let body = v.Framing.chunk_off + v.Framing.chunk_len in
          let buf = Bytebuf.copy buf in
          (* One bit, somewhere in the 16-byte tag at the very end of the
             sealed payload. *)
          let pos = body - 1 - Rng.int rng ~bound:16 in
          Bytebuf.set_uint8 buf pos
            (Bytebuf.get_uint8 buf pos lxor (1 lsl Rng.int rng ~bound:8));
          (* Re-true the ADU CRC and the datagram trailer over the damaged
             bytes: the same writer the sender used. *)
          let payload = v.Framing.chunk_off + Adu.header_size in
          ignore
            (Framing.seal_single integrity buf ~stream:v.Framing.stream
               (Adu.of_header v.Framing.adu buf ~pos:v.Framing.chunk_off).Adu.name
               ~plen:(body - payload)
               ~payload_crc:
                 (Checksum.Crc32.digest_sub buf ~pos:payload
                    ~len:(body - payload)));
          buf
      | _ -> buf
    in
    {
      d with
      Alf_core.Dgram.bind =
        (fun ~port handler ->
          d.Alf_core.Dgram.bind ~port (fun ~src ~src_port buf ->
              let buf = if Rng.bool rng ~p:rate then flip buf else buf in
              handler ~src ~src_port buf));
    }

(* Wire loss for substrates that cannot drop in flight (real loopback
   UDP): a send vanishes with probability [rate] while still reporting
   success — the sender must not learn, exactly as on a real wire. *)
let lossy_dgram ~rng ~rate (d : Alf_core.Dgram.t) =
  if rate <= 0.0 then d
  else
    {
      d with
      Alf_core.Dgram.send =
        (fun ~dst ~dst_port ~src_port payload ->
          if Rng.bool rng ~p:rate then true
          else d.Alf_core.Dgram.send ~dst ~dst_port ~src_port payload);
    }

let links net = function
  | Forward -> [ net.Topology.ab ]
  | Backward -> [ net.Topology.ba ]
  | Both -> [ net.Topology.ab; net.Topology.ba ]

let schedule ~engine ~net ?kill_sender ?pool ?par plan =
  let at t f = ignore (Engine.schedule_at engine t f) in
  List.iter
    (fun ev ->
      match ev with
      | Kill_sender { at = t } -> (
          match kill_sender with None -> () | Some kill -> at t kill)
      | Link_down { dir; at = t; duration } ->
          List.iter
            (fun l ->
              at t (fun () -> Link.set_down l);
              at (t +. duration) (fun () -> Link.set_up l))
            (links net dir)
      | Burst_impair { dir; at = t; duration; impair } ->
          List.iter
            (fun l ->
              (* The base model is read at burst onset, not at schedule
                 time, so stacked bursts restore whatever they found. *)
              at t (fun () ->
                  let base = Link.impair l in
                  Link.set_impair l impair;
                  at (Engine.now engine +. duration) (fun () ->
                      Link.set_impair l base)))
            (links net dir)
      | Pool_squeeze { at = t; duration; hold } -> (
          match pool with
          | None -> ()
          | Some p ->
              at t (fun () ->
                  (* Grab up to [hold] buffers and sit on them: everyone
                     else now contends with a nearly-exhausted pool. *)
                  let held = ref [] in
                  (try
                     for _ = 1 to hold do
                       match Bufkit.Pool.try_acquire p with
                       | Some b -> held := b :: !held
                       | None -> raise Exit
                     done
                   with Exit -> ());
                  at (Engine.now engine +. duration) (fun () ->
                      List.iter (Bufkit.Pool.release p) !held)))
      | Worker_fault { at = t } -> (
          match par with
          | None -> ()
          | Some p ->
              at t (fun () ->
                  (* One-shot: the next pool task dies with [Fault]; the
                     injector then disarms itself (stays installed as a
                     no-op so no cross-domain uninstall race exists). *)
                  let armed = ref true in
                  Par.Pool.set_fault_injector p
                    (Some
                       (fun seq ->
                         if !armed then begin
                           armed := false;
                           raise (Fault (Printf.sprintf "worker task %d" seq))
                         end)))))
    plan.events
