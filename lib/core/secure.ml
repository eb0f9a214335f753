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
  (* One endpoint's record context. Besides the shared base key and epoch
     it owns everything a record needs, made once and reset in place per
     record: the epoch-key cache, the params a compiled plan's AEAD stage
     reads (key, nonce, and the AAD scratch they point at), the ChaCha20
     and Poly1305 state of the whole-payload seal and open, and a 16-byte
     slot the computed tag lands in before it is compared with the
     trailer. Sealing or opening a record allocates nothing. *)
  type t = {
    base : Cipher.Chacha20.key;
    dir : int;
    epoch : int Atomic.t;
    k_epochs : int array;  (* the cached epoch keys' epochs; -1 = empty *)
    k_keys : Cipher.Chacha20.key array;
    mutable k_next : int;  (* the slot the next derived key replaces *)
    aad : Bytebuf.t;
    params : Ilp.aead_params;  (* rewritten per record; aad is [aad] *)
    aead : Cipher.Aead.t;
    tag : Bytes.t;
  }

  type verdict = Opened | Short | Stale_epoch | Forged

  let overhead = 20
  let aad_len = 26
  let key_slots = 4
  let c_sealed = Obs.Registry.counter "cipher.sealed"
  let c_opened = Obs.Registry.counter "cipher.opened"
  let c_auth_fail = Obs.Registry.counter "cipher.auth_fail"
  let c_rekeys = Obs.Registry.counter "cipher.rekeys"
  let c_epoch_rejected = Obs.Registry.counter "cipher.epoch_rejected"

  let context base dir epoch =
    let aad = Bytebuf.create aad_len in
    let params =
      { Ilp.aead_key = base; aead_n0 = 0; aead_n1 = 0; aead_n2 = 0; aead_aad = aad }
    in
    {
      base;
      dir;
      epoch;
      k_epochs = Array.make key_slots (-1);
      k_keys = Array.make key_slots base;
      k_next = 0;
      aad;
      params;
      aead = Cipher.Aead.make ();
      tag = Bytes.make 16 '\000';
    }

  let create ?(dir = 0) key = context key dir (Atomic.make 0)
  let of_string ?dir s = create ?dir (Cipher.Chacha20.key_of_string s)
  let of_int64 ?dir seed = create ?dir (Cipher.Chacha20.key_of_int64 seed)

  (* Clones share the epoch (an atomic) but carry their own context, so
     each serve shard / domain can seal and open concurrently without
     contending on — or racing over — the scratch state. *)
  let clone t = context t.base t.dir t.epoch
  let epoch t = Atomic.get t.epoch
  let params t = t.params

  let rekey t =
    Obs.Counter.incr c_rekeys;
    ignore (Atomic.fetch_and_add t.epoch 1)

  (* Epoch keys come out of the base key's own keystream: the KDF nonce
     is a fixed label word plus (epoch, direction), so the two directions
     of a connection never share a (key, record-nonce) pair even though
     record nonces are plain (epoch, stream, index). The last four
     epochs' keys stay cached; only a miss derives (and allocates) one. *)
  let key_for t e =
    let i = ref 0 in
    while !i < key_slots && t.k_epochs.(!i) <> e do
      incr i
    done;
    if !i < key_slots then t.k_keys.(!i)
    else begin
      let k =
        Cipher.Chacha20.derive t.base ~n0:0x414C4658 (* "ALFX" *) ~n1:e
          ~n2:t.dir
      in
      let slot = t.k_next in
      t.k_epochs.(slot) <- e;
      t.k_keys.(slot) <- k;
      t.k_next <- (slot + 1) mod key_slots;
      k
    end

  (* Point the params at record (e, stream, index). The AAD binds the
     record to its ADU name: the canonical 26-byte encoding of (stream,
     index, dest_off, dest_len, timestamp_us) in header field order,
     written straight into the scratch. Any flip in the name bytes the
     receiver reconstructs from the wire header changes the AAD and fails
     auth. The timestamp comes as its two u32 halves, as
     {!Adu.header} holds it. *)
  let set_record t ~e ~stream ~index ~dest_off ~dest_len ~ts_hi ~ts_lo =
    let p = t.params in
    p.Ilp.aead_key <- key_for t e;
    p.Ilp.aead_n0 <- e;
    p.Ilp.aead_n1 <- stream;
    p.Ilp.aead_n2 <- index;
    let b = Bytebuf.data t.aad and o = Bytebuf.offset t.aad in
    Bytes.set_uint16_be b o (stream land 0xFFFF);
    Bytes.set_int32_be b (o + 2) (Int32.of_int index);
    Bytes.set_int64_be b (o + 6) (Int64.of_int dest_off);
    Bytes.set_int32_be b (o + 14) (Int32.of_int dest_len);
    Bytes.set_int32_be b (o + 18) (Int32.of_int ts_hi);
    Bytes.set_int32_be b (o + 22) (Int32.of_int ts_lo)

  let ts_hi (name : Adu.name) =
    Int64.to_int (Int64.shift_right_logical name.Adu.timestamp_us 32)

  let ts_lo (name : Adu.name) = Int64.to_int name.Adu.timestamp_us land 0xFFFFFFFF

  let set_name t ~e (name : Adu.name) =
    set_record t ~e ~stream:name.Adu.stream ~index:name.Adu.index
      ~dest_off:name.Adu.dest_off ~dest_len:name.Adu.dest_len ~ts_hi:(ts_hi name)
      ~ts_lo:(ts_lo name)

  (* [?epoch] pins the sealing epoch — the deterministic-regeneration
     hook: an [App_recompute] repair must reproduce the original wire
     bytes even after a {!rekey}, or a receiver partial could mix
     fragments of two incarnations into an ADU that fails its CRC. *)
  let seal_params ?epoch t (name : Adu.name) =
    Obs.Counter.incr c_sealed;
    let e = match epoch with Some e -> e | None -> Atomic.get t.epoch in
    set_name t ~e name;
    t.params

  (* Trailer: epoch u32be ‖ tag (16 bytes: lo64 LE, hi64 LE) — 20 bytes
     appended to the ciphertext inside the ADU payload (plen = ct + 20).
     The epoch is the one the params were last set for. *)
  let write_epoch t b off = Bytes.set_int32_be b off (Int32.of_int t.params.Ilp.aead_n0)

  let write_trailer t inst buf ~pos =
    if pos < 0 || pos + overhead > Bytebuf.length buf then
      invalid_arg "Secure.Record.write_trailer: no room for the trailer";
    write_epoch t (Bytebuf.data buf) (Bytebuf.offset buf + pos);
    Ilp.write_tag inst buf ~pos:(pos + 4)

  let reset_aead t =
    let p = t.params in
    Cipher.Aead.reset t.aead ~key:p.Ilp.aead_key ~n0:p.Ilp.aead_n0
      ~n1:p.Ilp.aead_n1 ~n2:p.Ilp.aead_n2 ~aad:p.Ilp.aead_aad

  (* Receive window: accept epochs within one of the highest epoch that
     has authenticated so far — cur+1 because the peer may have rekeyed
     and this record is the first evidence, cur−1 because retransmissions
     sealed before the roll are still in flight. Outside the window the
     record is rejected before any cipher work. On a verdict, success
     rolls the window forward (so rekeying needs no control message);
     failure is a counted event, never an exception — auth failure is a
     total outcome in the drop taxonomy.

     [b.(off..off+len)] holds ct ‖ trailer; the name fields are the
     record's. On [Opened] the ciphertext is plaintext in place; on any
     other verdict it holds garbage the caller must drop. *)
  let open_at t b off len ~stream ~index ~dest_off ~dest_len ~ts_hi ~ts_lo =
    if len < overhead then begin
      Obs.Counter.incr c_auth_fail;
      Short
    end
    else
      let n = len - overhead in
      let e = Int32.to_int (Bytes.get_int32_be b (off + n)) land 0xFFFFFFFF in
      let cur = Atomic.get t.epoch in
      if e < cur - 1 || e > cur + 1 then begin
        Obs.Counter.incr c_epoch_rejected;
        Stale_epoch
      end
      else begin
        set_record t ~e ~stream ~index ~dest_off ~dest_len ~ts_hi ~ts_lo;
        reset_aead t;
        Cipher.Aead.run t.aead ~seal:false b off n;
        Cipher.Aead.tag_into t.aead t.tag 0;
        if Cipher.Aead.tags_equal t.tag 0 b (off + n + 4) then begin
          Obs.Counter.incr c_opened;
          if e > cur then ignore (Atomic.compare_and_set t.epoch cur e);
          Opened
        end
        else begin
          Obs.Counter.incr c_auth_fail;
          Forged
        end
      end

  let open_encoded t (h : Adu.header) buf ~pos =
    open_at t (Bytebuf.data buf)
      (Bytebuf.offset buf + pos + Adu.header_size)
      h.Adu.h_plen ~stream:h.Adu.h_stream ~index:h.Adu.h_index
      ~dest_off:h.Adu.h_dest_off ~dest_len:h.Adu.h_dest_len
      ~ts_hi:h.Adu.h_ts_hi ~ts_lo:h.Adu.h_ts_lo
    = Opened

  (* Whole-payload open, in place: [payload] is ct ‖ trailer as carried
     in a sealed ADU; on success the returned view is the plaintext
     prefix. On failure the prefix holds garbage — the caller must drop
     the unit (and it does so as a counted drop). *)
  let open_payload t (name : Adu.name) payload =
    match
      open_at t (Bytebuf.data payload) (Bytebuf.offset payload)
        (Bytebuf.length payload) ~stream:name.Adu.stream ~index:name.Adu.index
        ~dest_off:name.Adu.dest_off ~dest_len:name.Adu.dest_len
        ~ts_hi:(ts_hi name) ~ts_lo:(ts_lo name)
    with
    | Opened -> Ok (Bytebuf.take payload (Bytebuf.length payload - overhead))
    | Short -> Error "sealed payload shorter than record trailer"
    | Stale_epoch -> Error "record epoch outside acceptance window"
    | Forged -> Error "record authentication failed"

  (* The mirror of [open_payload]: [payload] is [ct ‖ trailer room]. *)
  let seal_payload ?epoch t (name : Adu.name) payload =
    let n = Bytebuf.length payload - overhead in
    if n < 0 then invalid_arg "Secure.Record.seal_payload: no room for the trailer";
    ignore (seal_params ?epoch t name);
    reset_aead t;
    let b = Bytebuf.data payload and off = Bytebuf.offset payload in
    Cipher.Aead.run t.aead ~seal:true b off n;
    write_epoch t b (off + n);
    Cipher.Aead.tag_into t.aead b (off + n + 4)

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
