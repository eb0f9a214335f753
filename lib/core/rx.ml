open Bufkit

type verdict =
  | Pending
  | Settled
  | Completed
  | Already_complete
  | Duplicate
  | Window
  | Bad_adu
  | Bad_frag
  | Auth

type 'o env = {
  window : int;
  pool : Pool.t option;
  secure : Secure.Record.t option;
  deliver : 'o -> Adu.t -> unit;
  mutable outcome : verdict;  (* verdict of a reassembler-driven delivery *)
}

let env ~window ?pool ?secure ~deliver () =
  if window < 1 then invalid_arg "Rx.env: window must be positive";
  { window; pool; secure; deliver; outcome = Pending }

type 'o t = {
  owner : 'o;
  mutable frontier : int;  (* everything below is delivered or gone *)
  mutable highest : int;  (* highest index admitted, -1 before any *)
  mutable total : int;  (* from CLOSE; -1 while unknown *)
  mutable ahead : (int, unit) Hashtbl.t;
      (* indices >= frontier already settled; [no_ahead] until the
         first out-of-order settle *)
  mutable reasm : Framing.reassembler option;  (* multi-fragment only *)
  mutable n_delivered : int;
  mutable n_gone : int;
}

(* Shared by every stream that never settled out of order. Only read:
   [settle] swaps in a table of the stream's own before the first write,
   and [clear] drops back to this one. *)
let no_ahead : (int, unit) Hashtbl.t = Hashtbl.create 1

let create owner =
  {
    owner;
    frontier = 0;
    highest = -1;
    total = -1;
    ahead = no_ahead;
    reasm = None;
    n_delivered = 0;
    n_gone = 0;
  }

let owner t = t.owner
let frontier t = t.frontier
let total t = t.total
let delivered t = t.n_delivered
let gone_count t = t.n_gone
let ahead_load t = Hashtbl.length t.ahead
let complete t = t.total >= 0 && t.frontier >= t.total

(* Everything below the frontier is settled by definition, so the ahead
   table only holds indices settled out of order — the reordering window,
   not the stream. *)
let settled t index =
  index < t.frontier
  || (Hashtbl.length t.ahead > 0 && Hashtbl.mem t.ahead index)

(* The admission window bounds the ahead table and the repair scan
   against forged indices; a known total closes the stream above it.
   Written as a difference so [window = max_int] cannot overflow. *)
let admissible env t index =
  index >= 0
  && index - t.frontier < env.window
  && (t.total < 0 || index < t.total)

(* Mark [index] settled. An in-order index moves the frontier without
   touching the table; the frontier then sweeps whatever the table holds
   contiguously above it, and the reassembler's retired set rides along. *)
let settle t index =
  if index > t.highest then t.highest <- index;
  if index <> t.frontier then begin
    if t.ahead == no_ahead then t.ahead <- Hashtbl.create 8;
    Hashtbl.replace t.ahead index ()
  end
  else begin
    t.frontier <- index + 1;
    while Hashtbl.length t.ahead > 0 && Hashtbl.mem t.ahead t.frontier do
      Hashtbl.remove t.ahead t.frontier;
      t.frontier <- t.frontier + 1
    done;
    match t.reasm with
    | Some r -> Framing.retire_below r ~bound:t.frontier
    | None -> ()
  end

let settled_verdict t = if complete t then Completed else Settled

let accept env t index adu =
  settle t index;
  t.n_delivered <- t.n_delivered + 1;
  env.deliver t.owner adu;
  settled_verdict t

(* Delivery is judged on the ADU's own name — the header [h] read at
   [pos] in [buf] — so an inner index that disagrees with its fragment
   header still meets the same admission. A sealed record opens in place
   over the borrowed payload — one fused MAC+decrypt pass — before the one
   [Adu.t] the application gets is built and the index is marked. A
   failure un-retires the index: forged or tag-damaged bytes behave like a
   lost datagram and stay repairable. *)
let deliver env t (h : Adu.header) buf ~pos =
  let index = h.Adu.h_index in
  if settled t index then Duplicate
  else if not (admissible env t index) then Window
  else
    match env.secure with
    | None -> accept env t index (Adu.of_header h buf ~pos)
    | Some rc ->
        if Secure.Record.open_encoded rc h buf ~pos then
          accept env t index
            (Adu.of_header_trimmed h buf ~pos ~trailer:Secure.Record.overhead)
        else begin
          (match t.reasm with
          | Some r -> Framing.unretire r ~index
          | None -> ());
          Auth
        end

let reassembler env t =
  match t.reasm with
  | Some r -> r
  | None ->
      let r =
        Framing.reassembler_encoded ?pool:env.pool
          ~complete:(fun h buf -> env.outcome <- deliver env t h buf ~pos:0)
          ()
      in
      t.reasm <- Some r;
      r

(* [Framing.push] reports malformed outcomes through its counters; the
   deltas attribute this fragment to exactly one verdict. *)
let push env t v =
  let r = reassembler env t in
  let st = Framing.stats r in
  let dups = st.Framing.duplicate_frags
  and corrupt = st.Framing.corrupt_adus
  and inconsistent = st.Framing.inconsistent_frags in
  env.outcome <- Pending;
  Framing.push r v;
  if st.Framing.corrupt_adus > corrupt then Bad_adu
  else if st.Framing.inconsistent_frags > inconsistent then Bad_frag
  else if st.Framing.duplicate_frags > dups then Duplicate
  else env.outcome

let fragment env t (v : Framing.view) =
  let index = v.Framing.index in
  if settled t index then Duplicate
  else if not (admissible env t index) then Window
  else begin
    if index > t.highest then t.highest <- index;
    if v.Framing.nfrags = 1 then
      (* The whole encoded ADU is already in the datagram: read its header
         in place, no reassembler, no copy. *)
      let h = v.Framing.adu and pos = v.Framing.chunk_off in
      if Adu.read_header h v.Framing.dg ~pos ~len:v.Framing.chunk_len then
        deliver env t h v.Framing.dg ~pos
      else Bad_adu
    else push env t v
  end

let close t total =
  if t.total >= 0 then if complete t then Already_complete else Pending
  else begin
    t.total <- max total 0;
    if complete t then Completed else Pending
  end

let settle_gone t index =
  (match t.reasm with Some r -> Framing.forget r ~index | None -> ());
  settle t index;
  t.n_gone <- t.n_gone + 1;
  settled_verdict t

let gone env t index =
  if settled t index then Duplicate
  else if not (admissible env t index) then Window
  else settle_gone t index

let give_up t index = if settled t index then Duplicate else settle_gone t index

let clear t =
  (match t.reasm with Some r -> Framing.clear r | None -> ());
  t.ahead <- no_ahead

let missing env t ~cap =
  let bound = if t.total >= 0 then t.total else t.highest + 1 in
  let bound =
    if bound - t.frontier > env.window then t.frontier + env.window else bound
  in
  (* A loop, not a local closure: harvest sweeps call this for every
     live session, and a session with nothing missing costs no words. *)
  let acc = ref [] and n = ref 0 and i = ref t.frontier in
  while !i < bound && !n < cap do
    if not (settled t !i) then begin
      acc := !i :: !acc;
      incr n
    end;
    incr i
  done;
  List.rev !acc

let retired_count t =
  match t.reasm with Some r -> Framing.retired_count r | None -> 0

let reasm_stats t =
  match t.reasm with
  | Some r -> Framing.stats r
  | None ->
      {
        Framing.completed = 0;
        duplicate_frags = 0;
        corrupt_adus = 0;
        inconsistent_frags = 0;
      }
