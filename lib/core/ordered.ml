type t = {
  deliver : Adu.t -> unit;
  parked : (int, Adu.t) Hashtbl.t;
  skipped : (int, unit) Hashtbl.t;
  mutable next : int;
}

let create ~deliver () =
  { deliver; parked = Hashtbl.create 32; skipped = Hashtbl.create 8; next = 0 }

let next_index t = t.next
let held t = Hashtbl.length t.parked

let rec release t =
  match Hashtbl.find_opt t.parked t.next with
  | Some adu ->
      Hashtbl.remove t.parked t.next;
      t.next <- t.next + 1;
      t.deliver adu;
      release t
  | None ->
      if Hashtbl.mem t.skipped t.next then begin
        Hashtbl.remove t.skipped t.next;
        t.next <- t.next + 1;
        release t
      end

let offer t (adu : Adu.t) =
  let index = adu.Adu.name.Adu.index in
  if index >= t.next && not (Hashtbl.mem t.parked index) then begin
    Hashtbl.replace t.parked index adu;
    release t
  end

let skip t ~index =
  if index >= t.next && not (Hashtbl.mem t.parked index) then begin
    Hashtbl.replace t.skipped index ();
    release t
  end
