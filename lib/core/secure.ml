open Bufkit

let stream_pos (adu : Adu.t) = Int64.of_int adu.Adu.name.Adu.dest_off

let seal ~key (adu : Adu.t) =
  let pad = Cipher.Pad.create ~key in
  let dst = Bytebuf.create (Bytebuf.length adu.Adu.payload) in
  Cipher.Pad.transform_copy_at pad ~pos:(stream_pos adu) ~src:adu.Adu.payload ~dst;
  Adu.make adu.Adu.name dst

let open_adu ~key (adu : Adu.t) =
  let dst = Bytebuf.create (Bytebuf.length adu.Adu.payload) in
  (* One pass: XOR-decrypt, store into application memory, checksum the
     plaintext while it is in the register. *)
  let cksum =
    Kernels.copy_checksum_xor ~src:adu.Adu.payload ~dst ~key
      ~stream_pos:(stream_pos adu)
  in
  (Adu.make adu.Adu.name dst, cksum)

let seal_summed ~key (adu : Adu.t) =
  let dst = Bytebuf.create (Bytebuf.length adu.Adu.payload) in
  let cksum =
    Kernels.checksum_xor_copy ~src:adu.Adu.payload ~dst ~key
      ~stream_pos:(stream_pos adu)
  in
  (Adu.make adu.Adu.name dst, cksum)

(* ------------------------------------------------------------------ *)
(* The AEAD record layer: ChaCha20-Poly1305 under epoch-rolled keys.  *)
(* ------------------------------------------------------------------ *)

module Record = struct
  type t = {
    base : Cipher.Chacha20.key;
    dir : int;
    epoch : int Atomic.t;
    mutable k_cache : (int * Cipher.Chacha20.key) list;
    aad : Bytebuf.t;
  }

  let overhead = 20
  let aad_len = 26
  let c_sealed = Obs.Registry.counter "cipher.sealed"
  let c_opened = Obs.Registry.counter "cipher.opened"
  let c_auth_fail = Obs.Registry.counter "cipher.auth_fail"
  let c_rekeys = Obs.Registry.counter "cipher.rekeys"
  let c_epoch_rejected = Obs.Registry.counter "cipher.epoch_rejected"

  let create ?(dir = 0) key =
    {
      base = key;
      dir;
      epoch = Atomic.make 0;
      k_cache = [];
      aad = Bytebuf.create aad_len;
    }

  let of_string ?dir s = create ?dir (Cipher.Chacha20.key_of_string s)
  let of_int64 ?dir seed = create ?dir (Cipher.Chacha20.key_of_int64 seed)

  (* Clones share the epoch (an atomic) but carry their own AAD scratch
     and derived-key cache, so each serve shard / domain can seal and
     open concurrently without contending on — or racing over — the
     scratch buffer. *)
  let clone t = { t with k_cache = []; aad = Bytebuf.create aad_len }
  let epoch t = Atomic.get t.epoch

  let rekey t =
    Obs.Counter.incr c_rekeys;
    ignore (Atomic.fetch_and_add t.epoch 1)

  (* Epoch keys come out of the base key's own keystream: the KDF nonce
     is a fixed label word plus (epoch, direction), so the two directions
     of a connection never share a (key, record-nonce) pair even though
     record nonces are plain (epoch, stream, index). *)
  let key_for t e =
    match List.assoc_opt e t.k_cache with
    | Some k -> k
    | None ->
        let k =
          Cipher.Chacha20.derive t.base ~n0:0x414C4658 (* "ALFX" *) ~n1:e
            ~n2:t.dir
        in
        t.k_cache <- (e, k) :: List.filteri (fun i _ -> i < 3) t.k_cache;
        k

  (* The AAD binds the record to its ADU name: the canonical 26-byte
     encoding of (stream, index, dest_off, dest_len, timestamp_us) in
     header field order. Any flip in the name bytes the receiver
     reconstructs from the wire header changes the AAD and fails auth. *)
  let fill_aad t (name : Adu.name) =
    let w = Cursor.writer t.aad in
    Cursor.put_u16be w name.Adu.stream;
    Cursor.put_int_as_u32be w name.Adu.index;
    Cursor.put_u64be w (Int64.of_int name.Adu.dest_off);
    Cursor.put_int_as_u32be w name.Adu.dest_len;
    Cursor.put_u64be w name.Adu.timestamp_us;
    t.aad

  let params t ~e (name : Adu.name) =
    {
      Ilp.aead_key = key_for t e;
      aead_n0 = e;
      aead_n1 = name.Adu.stream;
      aead_n2 = name.Adu.index;
      aead_aad = fill_aad t name;
    }

  (* [?epoch] pins the sealing epoch — the deterministic-regeneration
     hook: an [App_recompute] repair must reproduce the original wire
     bytes even after a {!rekey}, or a receiver partial could mix
     fragments of two incarnations into an ADU that fails its CRC. *)
  let seal_params ?epoch t (name : Adu.name) =
    Obs.Counter.incr c_sealed;
    let e = match epoch with Some e -> e | None -> Atomic.get t.epoch in
    (e, params t ~e name)

  (* Trailer: epoch u32be ‖ tag lo64 LE ‖ tag hi64 LE — 20 bytes appended
     to the ciphertext inside the ADU payload (plen = ct + 20). *)
  let write_trailer slice ~e ~tag:(lo, hi) =
    Bytebuf.set_be slice 0 e ~bytes:4;
    for i = 0 to 7 do
      Bytebuf.set_uint8 slice (4 + i)
        (Int64.to_int (Int64.shift_right_logical lo (8 * i)) land 0xff);
      Bytebuf.set_uint8 slice (12 + i)
        (Int64.to_int (Int64.shift_right_logical hi (8 * i)) land 0xff)
    done

  let read_trailer slice =
    let e =
      (Bytebuf.get_uint8 slice 0 lsl 24)
      lor (Bytebuf.get_uint8 slice 1 lsl 16)
      lor (Bytebuf.get_uint8 slice 2 lsl 8)
      lor Bytebuf.get_uint8 slice 3
    in
    let le64 off =
      let v = ref 0L in
      for i = 7 downto 0 do
        v :=
          Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (Bytebuf.get_uint8 slice (off + i)))
      done;
      !v
    in
    (e, (le64 4, le64 12))

  (* Receive window: accept epochs within one of the highest epoch that
     has authenticated so far — cur+1 because the peer may have rekeyed
     and this record is the first evidence, cur−1 because retransmissions
     sealed before the roll are still in flight. Outside the window the
     record is rejected before any cipher work. *)
  let open_params t (name : Adu.name) ~trailer =
    if Bytebuf.length trailer <> overhead then
      Error "record trailer must be 20 bytes"
    else
      let e, expected = read_trailer trailer in
      let cur = Atomic.get t.epoch in
      if e < cur - 1 || e > cur + 1 then begin
        Obs.Counter.incr c_epoch_rejected;
        Error "record epoch outside acceptance window"
      end
      else Ok (params t ~e name, e, expected)

  (* The verdict on a computed tag. Success rolls the window forward (so
     rekeying needs no control message); failure is a counted event, never
     an exception — auth failure is a *total* outcome in the drop
     taxonomy. *)
  let accept t ~e ~expected:(lo, hi) computed =
    match computed with
    | [ tag ] when Cipher.Aead.tag_matches ~lo ~hi tag ->
        Obs.Counter.incr c_opened;
        let cur = Atomic.get t.epoch in
        if e > cur then ignore (Atomic.compare_and_set t.epoch cur e);
        true
    | _ ->
        Obs.Counter.incr c_auth_fail;
        false

  (* Whole-payload open, in place: [payload] is ct ‖ trailer as carried
     in a sealed ADU; on success the returned view is the plaintext
     prefix. On failure the prefix holds garbage — the caller must drop
     the unit (and it does so as a counted drop). *)
  let open_payload t (name : Adu.name) payload =
    let plen = Bytebuf.length payload in
    if plen < overhead then begin
      Obs.Counter.incr c_auth_fail;
      Error "sealed payload shorter than record trailer"
    end
    else
      let n = plen - overhead in
      let ct = Bytebuf.take payload n in
      let trailer = Bytebuf.shift payload n in
      match open_params t name ~trailer with
      | Error _ as err -> err
      | Ok (p, e, expected) ->
          let computed =
            Cipher.Aead.open_in_place_tag ~key:p.Ilp.aead_key
              ~n0:p.Ilp.aead_n0 ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2
              ~aad:p.Ilp.aead_aad ct
          in
          if accept t ~e ~expected [ computed ] then Ok ct
          else Error "record authentication failed"

  (* The mirror of [open_payload]: [payload] is [ct ‖ trailer room]. *)
  let seal_payload ?epoch t (name : Adu.name) payload =
    let n = Bytebuf.length payload - overhead in
    let e, p = seal_params ?epoch t name in
    let tag =
      Cipher.Aead.seal_in_place ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
        ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2 ~aad:p.Ilp.aead_aad
        (Bytebuf.take payload n)
    in
    write_trailer (Bytebuf.shift payload n) ~e ~tag

  let seal_adu ?epoch t (adu : Adu.t) =
    let n = Bytebuf.length adu.Adu.payload in
    let out = Bytebuf.create (n + overhead) in
    Bytebuf.blit ~src:adu.Adu.payload ~src_pos:0 ~dst:out ~dst_pos:0 ~len:n;
    seal_payload ?epoch t adu.Adu.name out;
    Adu.make adu.Adu.name out

  let open_adu t (adu : Adu.t) =
    match open_payload t adu.Adu.name adu.Adu.payload with
    | Ok ct -> Ok (Adu.make adu.Adu.name ct)
    | Error _ as err -> err
end
