open Bufkit

let parity blocks =
  match blocks with
  | [] -> invalid_arg "Fec.parity: empty group"
  | _ ->
      let width = List.fold_left (fun m b -> max m (Bytebuf.length b)) 0 blocks in
      let out = Bytebuf.create width in
      List.iter
        (fun b ->
          for i = 0 to Bytebuf.length b - 1 do
            Bytebuf.unsafe_set out i
              (Char.unsafe_chr
                 (Char.code (Bytebuf.unsafe_get out i)
                 lxor Char.code (Bytebuf.unsafe_get b i)))
          done)
        blocks;
      out

let recover ~have ~parity:p ~k ~missing =
  if List.length have <> k - 1 then
    invalid_arg "Fec.recover: need exactly the k-1 other blocks";
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= k || i = missing then
        invalid_arg "Fec.recover: bad block index")
    have;
  let width = Bytebuf.length p in
  let out = Bytebuf.copy p in
  List.iter
    (fun (_, b) ->
      let n = min width (Bytebuf.length b) in
      for i = 0 to n - 1 do
        Bytebuf.unsafe_set out i
          (Char.unsafe_chr
             (Char.code (Bytebuf.unsafe_get out i)
             lxor Char.code (Bytebuf.unsafe_get b i)))
      done)
    have;
  out

(* Wire format: group(2) pos(1) k(1) flag(1), then for source blocks the
   raw block; for the parity block, the XOR of the *length-prefixed*
   source blocks (2-byte length + data, zero-padded to the group's
   widest), so a recovered block knows its own true length. *)
let header_size = 5

let with_length_prefix b =
  let n = Bytebuf.length b in
  let out = Bytebuf.create (2 + n) in
  Bytebuf.set_uint8 out 0 (n lsr 8);
  Bytebuf.set_uint8 out 1 (n land 0xff);
  Bytebuf.blit ~src:b ~src_pos:0 ~dst:out ~dst_pos:2 ~len:n;
  out

let wrap ~group ~pos ~k ~is_parity body =
  let out = Bytebuf.create (header_size + Bytebuf.length body) in
  Bytebuf.set_uint8 out 0 ((group lsr 8) land 0xff);
  Bytebuf.set_uint8 out 1 (group land 0xff);
  Bytebuf.set_uint8 out 2 pos;
  Bytebuf.set_uint8 out 3 k;
  Bytebuf.set_uint8 out 4 (if is_parity then 1 else 0);
  Bytebuf.blit ~src:body ~src_pos:0 ~dst:out ~dst_pos:header_size
    ~len:(Bytebuf.length body);
  out

let protect ?(first_group = 0) ~k blocks =
  if k < 1 || k > 255 then invalid_arg "Fec.protect: k must be 1..255";
  if first_group < 0 then invalid_arg "Fec.protect: negative first_group";
  let rec take n xs taken =
    if n = 0 then (List.rev taken, xs)
    else
      match xs with
      | [] -> (List.rev taken, [])
      | x :: rest -> take (n - 1) rest (x :: taken)
  in
  let rec build gno blocks acc =
    match blocks with
    | [] -> List.rev acc
    | _ ->
        let group_blocks, rest = take k blocks [] in
        let size = List.length group_blocks in
        let acc =
          List.fold_left
            (fun acc (pos, b) ->
              wrap ~group:gno ~pos ~k:size ~is_parity:false b :: acc)
            acc
            (List.mapi (fun pos b -> (pos, b)) group_blocks)
        in
        let p = parity (List.map with_length_prefix group_blocks) in
        let acc = wrap ~group:gno ~pos:size ~k:size ~is_parity:true p :: acc in
        build ((gno + 1) land 0xffff) rest acc
  in
  build (first_group land 0xffff) blocks []

let group_count ~k n = if n <= 0 then 0 else (n + k - 1) / k

type decoded = {
  mutable recovered : int;
  mutable unrecoverable : int;
  mutable parity_overhead : int;
}

type group_state = {
  k : int;
  sources : (int, Bytebuf.t) Hashtbl.t;  (* length-prefixed copies *)
  mutable parity_block : Bytebuf.t option;
  mutable delivered : int;
}

type decoder = {
  deliver : Bytebuf.t -> unit;
  stats : decoded;
  groups : (int, group_state) Hashtbl.t;
  group_order : int Queue.t;  (* creation order, for bounded eviction *)
  completed : (int, unit) Hashtbl.t;  (* guards against duplicate blocks
      resurrecting a finished group (k=1 parity would re-deliver) *)
  completed_order : int Queue.t;
}

let decoder ~deliver () =
  {
    deliver;
    stats = { recovered = 0; unrecoverable = 0; parity_overhead = 0 };
    groups = Hashtbl.create 32;
    group_order = Queue.create ();
    completed = Hashtbl.create 32;
    completed_order = Queue.create ();
  }

let stats t = t.stats

(* Both tables are bounded to [history] entries so a long soak over a
   lossy link cannot grow decoder state without limit: group numbers wrap
   at 0x10000, so the guard table must forget eventually anyway, and an
   incomplete group older than [history] newer ones will never complete. *)
let history = 4096

let mark_completed t gno =
  Hashtbl.replace t.completed gno ();
  Queue.push gno t.completed_order;
  while Queue.length t.completed_order > history do
    Hashtbl.remove t.completed (Queue.pop t.completed_order)
  done

let evict_stale_groups t =
  while Hashtbl.length t.groups > history && not (Queue.is_empty t.group_order) do
    let gno = Queue.pop t.group_order in
    match Hashtbl.find_opt t.groups gno with
    | None -> ()  (* already completed and removed *)
    | Some g ->
        if g.delivered < g.k then
          t.stats.unrecoverable <- t.stats.unrecoverable + 1;
        Hashtbl.remove t.groups gno
  done

let unprefix body =
  if Bytebuf.length body < 2 then None
  else
    let n = (Bytebuf.get_uint8 body 0 lsl 8) lor Bytebuf.get_uint8 body 1 in
    if 2 + n > Bytebuf.length body then None
    else Some (Bytebuf.sub body ~pos:2 ~len:n)

let try_recover t gno g =
  match g.parity_block with
  | Some p when Hashtbl.length g.sources = g.k - 1 ->
      let missing = ref (-1) in
      for pos = 0 to g.k - 1 do
        if not (Hashtbl.mem g.sources pos) then missing := pos
      done;
      let have = Hashtbl.fold (fun pos b acc -> (pos, b) :: acc) g.sources [] in
      let rec_prefixed = recover ~have ~parity:p ~k:g.k ~missing:!missing in
      (match unprefix rec_prefixed with
      | Some block ->
          t.stats.recovered <- t.stats.recovered + 1;
          g.delivered <- g.delivered + 1;
          t.deliver (Bytebuf.copy block)
      | None -> t.stats.unrecoverable <- t.stats.unrecoverable + 1);
      Hashtbl.remove t.groups gno;
      mark_completed t gno
  | Some _ | None -> ()

let push t block =
  if Bytebuf.length block >= header_size then begin
    let gno = (Bytebuf.get_uint8 block 0 lsl 8) lor Bytebuf.get_uint8 block 1 in
    let pos = Bytebuf.get_uint8 block 2 in
    let k = Bytebuf.get_uint8 block 3 in
    let is_parity = Bytebuf.get_uint8 block 4 = 1 in
    let body = Bytebuf.shift block header_size in
    if k >= 1 && pos <= k && not (Hashtbl.mem t.completed gno) then begin
      let g =
        match Hashtbl.find_opt t.groups gno with
        | Some g when g.k = k -> Some g
        | Some _ -> None (* inconsistent; drop *)
        | None ->
            let g =
              { k; sources = Hashtbl.create 8; parity_block = None; delivered = 0 }
            in
            Hashtbl.replace t.groups gno g;
            Queue.push gno t.group_order;
            evict_stale_groups t;
            Some g
      in
      match g with
      | None -> ()
      | Some g ->
          if is_parity then begin
            t.stats.parity_overhead <- t.stats.parity_overhead + Bytebuf.length body;
            if g.parity_block = None then g.parity_block <- Some (Bytebuf.copy body);
            try_recover t gno g
          end
          else if pos < k && not (Hashtbl.mem g.sources pos) then begin
            (* Deliver immediately; retain a length-prefixed copy for a
               possible later recovery of a sibling. *)
            t.deliver (Bytebuf.copy body);
            g.delivered <- g.delivered + 1;
            Hashtbl.replace g.sources pos (with_length_prefix body);
            if Hashtbl.length g.sources = g.k then begin
              Hashtbl.remove t.groups gno;
              mark_completed t gno
            end
            else try_recover t gno g
          end
    end
  end

let flush t =
  Hashtbl.iter
    (fun _ g ->
      if g.delivered < g.k then
        t.stats.unrecoverable <- t.stats.unrecoverable + 1)
    t.groups;
  Hashtbl.reset t.groups;
  Queue.clear t.group_order;
  Hashtbl.reset t.completed;
  Queue.clear t.completed_order
