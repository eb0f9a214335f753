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

(* ---- The datagram reader: the writer's mirror ----

   Each read follows the length check that proves it in range, so the
   reader is total; it fills the caller's view, and allocates nothing
   but the sub-buffer a digest other than CRC-32 takes. *)

type kind = Data | Close | Done | Nack | Gone | Fec
type verdict = Valid | Runt | Oversize | Bad_kind | Bad_frag | Bad_ctl | Bad_crc

type view = {
  max_len : int;
  max_total_len : int;
  mutable dg : Bytebuf.t;
  mutable kind : kind;
  mutable stream : int;
  mutable index : int;
  mutable frag_idx : int;
  mutable nfrags : int;
  mutable total_len : int;
  mutable frag_off : int;
  mutable chunk_off : int;
  mutable chunk_len : int;
  mutable total : int;
  mutable have_below : int;
  mutable count : int;
  adu : Adu.header;
}

let view ?(max_len = max_int) ?(max_total_len = max_int) () =
  { max_len; max_total_len; dg = Bytebuf.empty; kind = Data; stream = -1;
    index = 0; frag_idx = 0; nfrags = 0; total_len = 0; frag_off = 0;
    chunk_off = 0; chunk_len = 0; total = 0; have_below = 0; count = 0;
    adu = Adu.header () }

let get v pos bytes = Bytebuf.get_be v.dg pos ~bytes

(* The header [seal_fragment] writes. A lone fragment carries its whole
   ADU, and no ADU is shorter than its header. *)
let read_frag v ~body =
  v.index <- get v 3 4;
  v.frag_idx <- get v 7 2;
  v.nfrags <- get v 9 2;
  v.total_len <- get v 11 4;
  v.frag_off <- get v 15 4;
  v.chunk_off <- fragment_header_size;
  v.chunk_len <- body - fragment_header_size;
  if
    v.nfrags = 0 || v.frag_idx >= v.nfrags
    || v.total_len < Adu.header_size
    || v.total_len > v.max_total_len
    || v.frag_off + v.chunk_len > v.total_len
    || (v.nfrags = 1 && (v.frag_off <> 0 || v.chunk_len <> v.total_len))
  then Bad_frag
  else Valid

(* A NACK's or GONE's [count] and then exactly that many indices. *)
let read_list v ~body ~at =
  v.count <- get v (at - 2) 2;
  v.chunk_off <- at;
  if body = at + (4 * v.count) then Valid else Bad_ctl

(* After the kind byte and the stream id, the bodies [Ctl]'s writers lay:
   CLOSE total(4); NACK have_below(4) count(2) indices; GONE count(2)
   indices. *)
let layout v ~len ~body =
  if body < 3 then Runt
  else if len > v.max_len then Oversize
  else
    let b0 = get v 0 1 in
    if b0 = frag_magic then begin
      v.kind <- Data;
      if body < fragment_header_size then Bad_frag else read_frag v ~body
    end
    else if b0 = Ctl.tag_close then begin
      v.kind <- Close;
      if body <> 7 then Bad_ctl else (v.total <- get v 3 4; Valid)
    end
    else if b0 = Ctl.tag_done then begin
      v.kind <- Done;
      if body = 3 then Valid else Bad_ctl
    end
    else if b0 = Ctl.tag_nack then begin
      v.kind <- Nack;
      if body < 9 then Bad_ctl
      else (v.have_below <- get v 3 4; read_list v ~body ~at:9)
    end
    else if b0 = Ctl.tag_gone then begin
      v.kind <- Gone;
      if body < 5 then Bad_ctl else read_list v ~body ~at:5
    end
    else if b0 = Ctl.tag_fec then begin
      v.kind <- Fec;
      v.chunk_off <- 1;
      v.chunk_len <- body - 1;
      Valid
    end
    else Bad_kind

(* Bytes 1-2, the stream id of every fragment and control message, are
   taken whatever the verdict: routing keys on them. *)
let start v dg ~len =
  v.dg <- dg;
  v.stream <- (if len >= 3 then get v 1 2 else -1)

let trailer = function Some _ -> Ctl.trailer_size | None -> 0

let read_layout v integrity dg =
  let len = Bytebuf.length dg in
  start v dg ~len;
  layout v ~len ~body:(len - trailer integrity)

(* The digest [Ctl.seal_in_place] wrote behind the body. *)
let read_prefix v integrity dg ~len =
  if len < 0 || len > Bytebuf.length dg then
    invalid_arg "Framing.read_prefix: len outside the buffer";
  start v dg ~len;
  let body = len - trailer integrity in
  match integrity with
  | None -> layout v ~len ~body
  | Some _ when body < 0 -> Bad_crc
  | Some kind ->
      let digest =
        match kind with
        | Checksum.Kind.Crc32 -> Checksum.Crc32.digest_sub dg ~pos:0 ~len:body
        | kind -> Checksum.Kind.digest kind (Bytebuf.sub dg ~pos:0 ~len:body)
      in
      if digest land 0xFFFFFFFF <> get v body 4 then Bad_crc
      else layout v ~len ~body

let read v integrity dg = read_prefix v integrity dg ~len:(Bytebuf.length dg)

let index_at v i =
  if i < 0 || i >= v.count then invalid_arg "Framing.index_at";
  get v (v.chunk_off + (4 * i)) 4

(* An ADU being reassembled. Completed and dropped partials go back to a
   small stack of spares, so a steady stream reuses the same records and
   bitmaps instead of building them per ADU. *)
type partial = {
  mutable total_len : int;
  mutable nfrags : int;
  mutable buf : Bytebuf.t;  (* at least [total_len] bytes, from offset 0 *)
  mutable pooled : bool;  (* [buf] came from the pool, released on retire *)
  mutable have : Bytes.t;  (* fragment bitmap, at least [nfrags] bits *)
  mutable have_count : int;
}

type reasm_stats = {
  mutable completed : int;
  mutable duplicate_frags : int;
  mutable corrupt_adus : int;
  mutable inconsistent_frags : int;
}

type reassembler = {
  complete : Adu.header -> Bytebuf.t -> unit;
  stats : reasm_stats;
  hdr : Adu.header;  (* the completed ADU's header, read in place *)
  partials : (int, partial) Hashtbl.t;  (* keyed by ADU index *)
  retired : (int, unit) Hashtbl.t;  (* completed or forgotten indices *)
  mutable floor : int;  (* every index below is implicitly retired *)
  pool : (Pool.t * int) option;  (* pool and its buf_size *)
  spares : partial array;
  mutable nspares : int;
  (* [retire_below]'s sweeps, made once: they read the floor. *)
  mutable keep_retired : int -> unit -> unit option;
  mutable keep_partial : int -> partial -> partial option;
}

let max_spares = 8

let blank_partial () =
  { total_len = 0; nfrags = 0; buf = Bytebuf.empty; pooled = false;
    have = Bytes.empty; have_count = 0 }

(* Fills the spare stack's empty slots; never handed out. *)
let no_partial = blank_partial ()

(* Hand a finished partial's pooled buffer back and keep the record. *)
let retire_partial t p =
  (match t.pool with
  | Some (pool, _) when p.pooled -> Pool.release pool p.buf
  | _ -> ());
  p.buf <- Bytebuf.empty;
  p.pooled <- false;
  if t.nspares < Array.length t.spares then begin
    t.spares.(t.nspares) <- p;
    t.nspares <- t.nspares + 1
  end

let reassembler_encoded ?pool ~complete () =
  let t =
  {
    complete;
    stats =
      { completed = 0; duplicate_frags = 0; corrupt_adus = 0; inconsistent_frags = 0 };
    hdr = Adu.header ();
    partials = Hashtbl.create 32;
    retired = Hashtbl.create 32;
    floor = 0;
    pool = Option.map (fun p -> (p, (Pool.stats p).Pool.buf_size)) pool;
    spares = Array.make max_spares no_partial;
    nspares = 0;
    keep_retired = (fun _ () -> None);
    keep_partial = (fun _ _ -> None);
  }
  in
  t.keep_retired <- (fun i () -> if i < t.floor then None else Some ());
  t.keep_partial <-
    (fun i p ->
      if i < t.floor then begin
        retire_partial t p;
        None
      end
      else Some p);
  t

let reassembler ?pool ~deliver () =
  reassembler_encoded ?pool
    ~complete:(fun h buf -> deliver (Adu.of_header h buf ~pos:0))
    ()

let stats t = t.stats
let pending_adus t = Hashtbl.length t.partials
let retired_count t = Hashtbl.length t.retired

let forget t ~index =
  if index >= t.floor then Hashtbl.replace t.retired index ();
  match Hashtbl.find_opt t.partials index with
  | Some p ->
      Hashtbl.remove t.partials index;
      retire_partial t p
  | None -> ()

(* Everything below [bound] is settled upstream: raise the implicit
   retirement floor and drop the per-index entries it subsumes. Without
   this, [retired] grows by one entry per completed ADU for the life of
   the stream. The cost per call is the number of live entries at or
   ahead of the old floor — the reordering window, not the stream. *)
let retire_below t ~bound =
  if bound > t.floor then begin
    t.floor <- bound;
    if Hashtbl.length t.retired > 0 then
      Hashtbl.filter_map_inplace t.keep_retired t.retired;
    if Hashtbl.length t.partials > 0 then
      Hashtbl.filter_map_inplace t.keep_partial t.partials
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
    Hashtbl.iter (fun _ p -> retire_partial t p) t.partials;
    Hashtbl.reset t.partials
  end;
  Hashtbl.reset t.retired

let bit_get bytes i = Char.code (Bytes.get bytes (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set bytes i =
  Bytes.set bytes (i / 8)
    (Char.chr (Char.code (Bytes.get bytes (i / 8)) lor (1 lsl (i mod 8))))

let push t (v : view) =
  let index = v.index in
  (* A fragment for an index that already completed (or was forgotten) is
     a late retransmission crossing the repair that satisfied it. Short-
     circuit before any buffer acquisition or copy work: without this
     check a retired index would re-open a partial — re-allocating a
     reassembly buffer, re-blitting the chunk, and (for single-fragment
     ADUs) re-delivering the ADU. *)
  if index < t.floor || Hashtbl.mem t.retired index then
    t.stats.duplicate_frags <- t.stats.duplicate_frags + 1
  else
  let p =
    match Hashtbl.find t.partials index with
    | p -> p
    | exception Not_found ->
        let p =
          if t.nspares > 0 then begin
            t.nspares <- t.nspares - 1;
            t.spares.(t.nspares)
          end
          else blank_partial ()
        in
        (* Reassemble into a pooled buffer when one fits; fall back to a
           fresh allocation for oversized ADUs or an exhausted pool. *)
        (match t.pool with
        | Some (pool, buf_size) when v.total_len <= buf_size -> (
            match Pool.acquire pool with
            | full ->
                p.buf <- full;
                p.pooled <- true
            | exception Pool.Exhausted -> p.buf <- Bytebuf.create v.total_len)
        | _ -> p.buf <- Bytebuf.create v.total_len);
        let bitmap = (v.nfrags + 7) / 8 in
        if Bytes.length p.have < bitmap then p.have <- Bytes.make bitmap '\000'
        else Bytes.fill p.have 0 bitmap '\000';
        p.total_len <- v.total_len;
        p.nfrags <- v.nfrags;
        p.have_count <- 0;
        Hashtbl.replace t.partials index p;
        p
  in
  if p.total_len <> v.total_len || p.nfrags <> v.nfrags then
    t.stats.inconsistent_frags <- t.stats.inconsistent_frags + 1
  else if bit_get p.have v.frag_idx then
    t.stats.duplicate_frags <- t.stats.duplicate_frags + 1
  else begin
    bit_set p.have v.frag_idx;
    p.have_count <- p.have_count + 1;
    Bytebuf.blit ~src:v.dg ~src_pos:v.chunk_off ~dst:p.buf ~dst_pos:v.frag_off
      ~len:v.chunk_len;
    if p.have_count = p.nfrags then begin
      Hashtbl.remove t.partials index;
      Hashtbl.replace t.retired index ();
      if Adu.read_header t.hdr p.buf ~pos:0 ~len:p.total_len then begin
        t.stats.completed <- t.stats.completed + 1;
        (* Hand over the encoded ADU in place: the payload it delivers
           aliases the reassembly buffer, which (when pooled) is recycled
           as soon as [complete] returns — the stage-2 borrow contract. *)
        match t.complete t.hdr p.buf with
        | () -> retire_partial t p
        | exception e ->
            retire_partial t p;
            raise e
      end
      else begin
        (* A reassembled unit that fails its own CRC (e.g. mixed fragments
           of two repair incarnations) must stay repairable: drop the
           retired mark so a later whole retransmission re-opens a partial
           instead of being silently ignored until the NACK budget runs
           out. *)
        Hashtbl.remove t.retired index;
        t.stats.corrupt_adus <- t.stats.corrupt_adus + 1;
        retire_partial t p
      end
    end
  end
