open Bufkit

let frames_of_buffer ~stream ~adu_size ?(base_off = 0) buf =
  if adu_size <= 0 then invalid_arg "Framing.frames_of_buffer: adu_size";
  let total = Bytebuf.length buf in
  let rec go pos index acc =
    if pos >= total then List.rev acc
    else
      let len = min adu_size (total - pos) in
      let name =
        Adu.name ~dest_off:(base_off + pos) ~dest_len:len ~stream ~index ()
      in
      go (pos + len) (index + 1)
        (Adu.make name (Bytebuf.sub buf ~pos ~len) :: acc)
  in
  go 0 0 []

let frames_of_values ~stream ~syntax values =
  (* One sizing pass for the whole batch: [placements] already computed
     every ADU's encoded length, so each encode reuses it instead of
     re-walking the value ([encode] = sizeof + encode_into). *)
  let places = Wire.Syntax.placements syntax values in
  List.mapi
    (fun index (value, (dest_off, dest_len)) ->
      let payload = Wire.Syntax.encode_sized syntax value ~size:dest_len in
      let name = Adu.name ~dest_off ~dest_len ~stream ~index () in
      Adu.make name payload)
    (List.combine values places)

let frames_of_timed ~stream triples =
  List.mapi
    (fun index (timestamp_us, payload, dest_off) ->
      let name =
        Adu.name ~dest_off ~dest_len:(Bytebuf.length payload) ~timestamp_us
          ~stream ~index ()
      in
      Adu.make name payload)
    triples

(* Fragment wire format:
   magic(1)=0xAD stream(2) index(4) frag_idx(2) nfrags(2) total_len(4)
   frag_off(4) = 19 bytes, then the chunk. Fragments carry slices of the
   *encoded* ADU, so the ADU's own CRC verifies reassembly end to end. *)
let fragment_header_size = 19
let frag_magic = 0xAD

let fragment_count ~mtu total_len =
  if mtu <= fragment_header_size then
    invalid_arg "Framing.fragment: mtu too small";
  let chunk = mtu - fragment_header_size in
  let nfrags = max 1 ((total_len + chunk - 1) / chunk) in
  if nfrags > 0xFFFF then invalid_arg "Framing.fragment: too many fragments";
  nfrags

let seal_fragment integrity dg ~stream ~index ~nfrags ~frag_idx ~total_len
    ~frag_off ~len =
  Bytebuf.set_be dg 0 frag_magic ~bytes:1;
  Bytebuf.set_be dg 1 stream ~bytes:2;
  Bytebuf.set_be dg 3 index ~bytes:4;
  Bytebuf.set_be dg 7 frag_idx ~bytes:2;
  Bytebuf.set_be dg 9 nfrags ~bytes:2;
  Bytebuf.set_be dg 11 total_len ~bytes:4;
  Bytebuf.set_be dg 15 frag_off ~bytes:4;
  Ctl.seal_in_place integrity dg ~len:(fragment_header_size + len)

let write_fragment integrity dg ~mtu ~stream ~index encoded ~total_len
    ~frag_idx =
  let nfrags = fragment_count ~mtu total_len in
  let frag_off = frag_idx * (mtu - fragment_header_size) in
  let len = min (mtu - fragment_header_size) (total_len - frag_off) in
  Bytebuf.blit ~src:encoded ~src_pos:frag_off ~dst:dg
    ~dst_pos:fragment_header_size ~len;
  seal_fragment integrity dg ~stream ~index ~nfrags ~frag_idx ~total_len
    ~frag_off ~len

let seal_single integrity dg ~stream name ~plen ~payload_crc =
  let total_len = Adu.header_size + plen in
  Adu.write_header dg ~pos:fragment_header_size name ~plen ~payload_crc;
  seal_fragment integrity dg ~stream ~index:name.Adu.index ~nfrags:1
    ~frag_idx:0 ~total_len ~frag_off:0 ~len:total_len

let fragment_encoded ~mtu ~stream ~index encoded =
  let total_len = Bytebuf.length encoded in
  let chunk = mtu - fragment_header_size in
  List.init (fragment_count ~mtu total_len) (fun frag_idx ->
      let len = min chunk (total_len - (frag_idx * chunk)) in
      let dg = Bytebuf.create (fragment_header_size + len) in
      ignore
        (write_fragment None dg ~mtu ~stream ~index encoded ~total_len
           ~frag_idx);
      dg)

let fragment ~mtu adu =
  fragment_encoded ~mtu ~stream:adu.Adu.name.Adu.stream
    ~index:adu.Adu.name.Adu.index (Adu.encode adu)

type frag_info = {
  stream : int;
  index : int;
  frag_idx : int;
  nfrags : int;
  total_len : int;
  frag_off : int;
  chunk : Bytebuf.t;
}

exception Frag_error of string

(* The total parser: every malformed input is a [Error _], never an
   exception — the form server dispatch and other hostile-input paths
   consume. The raising {!parse_fragment} below is a thin wrapper kept
   for existing callers. *)
let parse_fragment_res buf =
  if Bytebuf.length buf < fragment_header_size then
    Error (Printf.sprintf "fragment of %d bytes" (Bytebuf.length buf))
  else
    let r = Cursor.reader buf in
    if Cursor.u8 r <> frag_magic then Error "bad fragment magic"
    else
      let stream = Cursor.u16be r in
      let index = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
      let frag_idx = Cursor.u16be r in
      let nfrags = Cursor.u16be r in
      let total_len = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
      let frag_off = Int32.to_int (Cursor.u32be r) land 0xFFFFFFFF in
      let chunk = Cursor.rest r in
      if nfrags = 0 || frag_idx >= nfrags then
        Error "fragment indices inconsistent"
      else if frag_off + Bytebuf.length chunk > total_len then
        Error "fragment overruns its ADU"
      else Ok { stream; index; frag_idx; nfrags; total_len; frag_off; chunk }

let parse_fragment buf =
  match parse_fragment_res buf with
  | Ok f -> f
  | Error msg -> raise (Frag_error msg)

type partial = {
  total_len : int;
  nfrags : int;
  buf : Bytebuf.t;
  owner : Bytebuf.t option;  (* pooled backing buffer, released on retire *)
  have : Bytes.t;  (* fragment bitmap *)
  mutable have_count : int;
  mutable bytes : int;
}

type reasm_stats = {
  mutable completed : int;
  mutable duplicate_frags : int;
  mutable corrupt_adus : int;
  mutable inconsistent_frags : int;
}

type reassembler = {
  deliver : Adu.t -> unit;
  stats : reasm_stats;
  partials : (int, partial) Hashtbl.t;  (* keyed by ADU index *)
  retired : (int, unit) Hashtbl.t;  (* completed or forgotten indices *)
  mutable floor : int;  (* every index below is implicitly retired *)
  pool : (Pool.t * int) option;  (* pool and its buf_size *)
}

let reassembler ?pool ~deliver () =
  {
    deliver;
    stats =
      { completed = 0; duplicate_frags = 0; corrupt_adus = 0; inconsistent_frags = 0 };
    partials = Hashtbl.create 32;
    retired = Hashtbl.create 32;
    floor = 0;
    pool = Option.map (fun p -> (p, (Pool.stats p).Pool.buf_size)) pool;
  }

let stats t = t.stats
let pending_adus t = Hashtbl.length t.partials
let retired_count t = Hashtbl.length t.retired

let pending_bytes t =
  Hashtbl.fold (fun _ p acc -> acc + p.bytes) t.partials 0

let release_owner t p =
  match (t.pool, p.owner) with
  | Some (pool, _), Some owner -> Pool.release pool owner
  | _ -> ()

let forget t ~index =
  if index >= t.floor then Hashtbl.replace t.retired index ();
  match Hashtbl.find_opt t.partials index with
  | Some p ->
      Hashtbl.remove t.partials index;
      release_owner t p
  | None -> ()

(* Everything below [bound] is settled upstream: raise the implicit
   retirement floor and drop the per-index entries it subsumes. Without
   this, [retired] grows by one entry per completed ADU for the life of
   the stream. The cost per call is the number of live entries at or
   ahead of the old floor — the reordering window, not the stream. *)
let retire_below t ~bound =
  if bound > t.floor then begin
    t.floor <- bound;
    if Hashtbl.length t.retired > 0 then begin
      let dead =
        Hashtbl.fold
          (fun i () acc -> if i < bound then i :: acc else acc)
          t.retired []
      in
      List.iter (Hashtbl.remove t.retired) dead
    end;
    if Hashtbl.length t.partials > 0 then begin
      let dead =
        Hashtbl.fold
          (fun i p acc -> if i < bound then (i, p) :: acc else acc)
          t.partials []
      in
      List.iter
        (fun (i, p) ->
          Hashtbl.remove t.partials i;
          release_owner t p)
        dead
    end
  end

(* A completed index whose ADU was then rejected upstream (record
   authentication failure) must become repairable again: drop the
   retired mark so a NACK-driven retransmission re-opens a partial
   instead of short-circuiting as a late duplicate. *)
let unretire t ~index =
  if index >= t.floor then Hashtbl.remove t.retired index

(* Drop every in-flight partial and release its pooled buffer, whatever
   its index. Used on session teardown: [retire_below] only sweeps below
   a bound, which can strand partials for indices the session never saw
   settle — a pool-budget leak under hostile churn. Keeps [floor] (the
   session is going away anyway) and empties [retired]. *)
let clear t =
  if Hashtbl.length t.partials > 0 then begin
    Hashtbl.iter (fun _ p -> release_owner t p) t.partials;
    Hashtbl.reset t.partials
  end;
  Hashtbl.reset t.retired

let bit_get bytes i = Char.code (Bytes.get bytes (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set bytes i =
  Bytes.set bytes (i / 8)
    (Char.chr (Char.code (Bytes.get bytes (i / 8)) lor (1 lsl (i mod 8))))

let push t (f : frag_info) =
  (* A fragment for an index that already completed (or was forgotten) is
     a late retransmission crossing the repair that satisfied it. Short-
     circuit before any buffer acquisition or copy work: without this
     check a retired index would re-open a partial — re-allocating a
     reassembly buffer, re-blitting the chunk, and (for single-fragment
     ADUs) re-delivering the ADU. *)
  if f.index < t.floor || Hashtbl.mem t.retired f.index then
    t.stats.duplicate_frags <- t.stats.duplicate_frags + 1
  else
  let p =
    match Hashtbl.find_opt t.partials f.index with
    | Some p -> p
    | None ->
        (* Reassemble into a pooled buffer when one fits; fall back to a
           fresh allocation for oversized ADUs or an exhausted pool. *)
        let buf, owner =
          match t.pool with
          | Some (pool, buf_size) when f.total_len <= buf_size -> (
              match Pool.try_acquire pool with
              | Some full -> (Bytebuf.take full f.total_len, Some full)
              | None -> (Bytebuf.create f.total_len, None))
          | _ -> (Bytebuf.create f.total_len, None)
        in
        let p =
          {
            total_len = f.total_len;
            nfrags = f.nfrags;
            buf;
            owner;
            have = Bytes.make ((f.nfrags + 7) / 8) '\000';
            have_count = 0;
            bytes = 0;
          }
        in
        Hashtbl.replace t.partials f.index p;
        p
  in
  if p.total_len <> f.total_len || p.nfrags <> f.nfrags then
    t.stats.inconsistent_frags <- t.stats.inconsistent_frags + 1
  else if bit_get p.have f.frag_idx then
    t.stats.duplicate_frags <- t.stats.duplicate_frags + 1
  else begin
    bit_set p.have f.frag_idx;
    p.have_count <- p.have_count + 1;
    let len = Bytebuf.length f.chunk in
    Bytebuf.blit ~src:f.chunk ~src_pos:0 ~dst:p.buf ~dst_pos:f.frag_off ~len;
    p.bytes <- p.bytes + len;
    if p.have_count = p.nfrags then begin
      Hashtbl.remove t.partials f.index;
      Hashtbl.replace t.retired f.index ();
      (* Deliver a zero-copy view: the payload aliases the reassembly
         buffer, which (when pooled) is recycled as soon as [deliver]
         returns — the stage-2 borrow contract. *)
      Fun.protect
        ~finally:(fun () -> release_owner t p)
        (fun () ->
          match Adu.decode_view_res p.buf with
          | Ok adu ->
              t.stats.completed <- t.stats.completed + 1;
              t.deliver adu
          | Error _ ->
              (* A reassembled unit that fails its own CRC (e.g. mixed
                 fragments of two repair incarnations) must stay
                 repairable: drop the retired mark so a later whole
                 retransmission re-opens a partial instead of being
                 silently ignored until the NACK budget runs out. *)
              Hashtbl.remove t.retired f.index;
              t.stats.corrupt_adus <- t.stats.corrupt_adus + 1)
    end
  end
