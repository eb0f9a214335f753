open Bufkit
open Netsim

type offer = {
  stream : int;
  syntaxes : string list;
  rate_bps : float;
  policy : string;
  ciphers : string list;
}

type granted = {
  g_stream : int;
  g_syntax : string;
  g_rate_bps : float;
  g_policy : string;
  g_cipher : string;
}

let tag_setup = 0xE1
let tag_accept = 0xE2
let tag_reject = 0xE3

let put_short_string w s =
  let n = min 255 (String.length s) in
  Cursor.put_u8 w n;
  Cursor.put_string w (String.sub s 0 n)

let short_string r =
  let n = Cursor.u8 r in
  Cursor.string r n

let encode_setup (o : offer) =
  let names = List.filteri (fun i _ -> i < 255) o.syntaxes in
  let ciphers = List.filteri (fun i _ -> i < 255) o.ciphers in
  let size =
    1 + 2 + 8 + 1 + String.length o.policy + 1
    + List.fold_left (fun acc s -> acc + 1 + String.length s) 0 names
    + 1
    + List.fold_left (fun acc s -> acc + 1 + String.length s) 0 ciphers
  in
  let buf = Bytebuf.create size in
  let w = Cursor.writer buf in
  Cursor.put_u8 w tag_setup;
  Cursor.put_u16be w o.stream;
  Cursor.put_u64be w (Int64.bits_of_float o.rate_bps);
  put_short_string w o.policy;
  Cursor.put_u8 w (List.length names);
  List.iter (put_short_string w) names;
  Cursor.put_u8 w (List.length ciphers);
  List.iter (put_short_string w) ciphers;
  Cursor.written w

let decode_setup r =
  let stream = Cursor.u16be r in
  let rate_bps = Int64.float_of_bits (Cursor.u64be r) in
  let policy = short_string r in
  let rec names k acc =
    if k = 0 then List.rev acc else names (k - 1) (short_string r :: acc)
  in
  let syntaxes = names (Cursor.u8 r) [] in
  let ciphers = names (Cursor.u8 r) [] in
  { stream; syntaxes; rate_bps; policy; ciphers }

let encode_accept (g : granted) =
  let size =
    1 + 2 + 8 + 1 + String.length g.g_policy + 1 + String.length g.g_syntax
    + 1 + String.length g.g_cipher
  in
  let buf = Bytebuf.create size in
  let w = Cursor.writer buf in
  Cursor.put_u8 w tag_accept;
  Cursor.put_u16be w g.g_stream;
  Cursor.put_u64be w (Int64.bits_of_float g.g_rate_bps);
  put_short_string w g.g_policy;
  put_short_string w g.g_syntax;
  put_short_string w g.g_cipher;
  Cursor.written w

let decode_accept r =
  let g_stream = Cursor.u16be r in
  let g_rate_bps = Int64.float_of_bits (Cursor.u64be r) in
  let g_policy = short_string r in
  let g_syntax = short_string r in
  let g_cipher = short_string r in
  { g_stream; g_syntax; g_rate_bps; g_policy; g_cipher }

let encode_reject ~stream =
  let buf = Bytebuf.create 3 in
  let w = Cursor.writer buf in
  Cursor.put_u8 w tag_reject;
  Cursor.put_u16be w stream;
  Cursor.written w

(* --- Responder --- *)

type responder = {
  r_io : Dgram.t;
  r_port : int;
  supported : string list;
  sup_ciphers : string list;
  max_rate : float;
  on_session : peer:Packet.addr -> granted -> unit;
  table : (Packet.addr * int, granted option) Hashtbl.t;
      (* None records a rejection, for idempotent replies *)
  mutable accepted : int;
  mutable rejected : int;
}

let sessions_accepted r = r.accepted
let sessions_rejected r = r.rejected

let decide r (o : offer) : granted option =
  let pick wanted supported =
    let lowered = List.map String.lowercase_ascii supported in
    List.find_opt
      (fun s -> List.mem (String.lowercase_ascii s) lowered)
      wanted
  in
  (* An initiator that names no cipher means the modern default, not
     plaintext: ChaCha20 is the record layer unless explicitly ablated. *)
  let wanted_ciphers = if o.ciphers = [] then [ "chacha20" ] else o.ciphers in
  match
    (pick o.syntaxes r.supported, pick wanted_ciphers r.sup_ciphers)
  with
  | Some syntax, Some cipher ->
      Some
        {
          g_stream = o.stream;
          g_syntax = String.lowercase_ascii syntax;
          g_rate_bps =
            (if o.rate_bps <= 0.0 then 0.0 else Float.min o.rate_bps r.max_rate);
          g_policy = o.policy;
          g_cipher = String.lowercase_ascii cipher;
        }
  | _ -> None

let responder_handle r ~src ~src_port payload =
  let reply buf =
    ignore (r.r_io.Dgram.send ~dst:src ~dst_port:src_port ~src_port:r.r_port buf)
  in
  let cur = Cursor.reader payload in
  (* A truncated message anywhere in the parse is simply ignored, so the
     whole dispatch sits under one handler-level guard. *)
  try
    match Cursor.u8 cur with
    | tag when tag = tag_setup ->
        let o = decode_setup cur in
        let key = (src, o.stream) in
        (match Hashtbl.find_opt r.table key with
        | Some (Some g) -> reply (encode_accept g) (* duplicate SETUP *)
        | Some None -> reply (encode_reject ~stream:o.stream)
        | None -> (
            match decide r o with
            | Some g ->
                Hashtbl.replace r.table key (Some g);
                r.accepted <- r.accepted + 1;
                r.on_session ~peer:src g;
                reply (encode_accept g)
            | None ->
                Hashtbl.replace r.table key None;
                r.rejected <- r.rejected + 1;
                reply (encode_reject ~stream:o.stream)))
    | _ -> ()
  with Cursor.Underflow _ -> ()

let default_ciphers = [ "chacha20"; "none" ]

let listen ~io ~port ~supported ?(ciphers = default_ciphers)
    ?(max_rate_bps = infinity) ~on_session () =
  let r =
    {
      r_io = io;
      r_port = port;
      supported;
      sup_ciphers = ciphers;
      max_rate = max_rate_bps;
      on_session;
      table = Hashtbl.create 16;
      accepted = 0;
      rejected = 0;
    }
  in
  io.Dgram.bind ~port (responder_handle r);
  r

(* --- Initiator --- *)

type pending = {
  mutable done_ : bool;
  mutable tries_left : int;
}

let initiate ~sched ~io ~port ~peer ~peer_port ~offer ?(retry_interval = 0.1)
    ?(max_retries = 10) ~on_result () =
  let p = { done_ = false; tries_left = max_retries } in
  let setup = encode_setup offer in
  let send () =
    ignore (io.Dgram.send ~dst:peer ~dst_port:peer_port ~src_port:port setup)
  in
  io.Dgram.bind ~port (fun ~src:_ ~src_port:_ payload ->
      if not p.done_ then begin
        let cur = Cursor.reader payload in
        try
          match Cursor.u8 cur with
          | tag when tag = tag_accept ->
              let g = decode_accept cur in
              if g.g_stream = offer.stream then begin
                p.done_ <- true;
                on_result (Some g)
              end
          | tag when tag = tag_reject ->
              if Cursor.u16be cur = offer.stream then begin
                p.done_ <- true;
                on_result None
              end
          | _ -> ()
        with Cursor.Underflow _ -> ()
      end);
  let rec retry () =
    if not p.done_ then
      if p.tries_left <= 0 then begin
        p.done_ <- true;
        on_result None
      end
      else begin
        p.tries_left <- p.tries_left - 1;
        send ();
        ignore (Rt.Sched.schedule_after sched retry_interval retry)
      end
  in
  retry ()
