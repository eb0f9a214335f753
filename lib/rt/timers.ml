type cell = {
  deadline : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
}

(* Both records mix float and other fields, so their floats stay boxed:
   reading [clock] or a deadline hands out the existing box. *)
type t = {
  mutable heap : cell array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
}

let dummy =
  { deadline = infinity; seq = max_int; action = ignore; cancelled = true }

let create () =
  { heap = Array.make 64 dummy; size = 0; clock = 0.0; next_seq = 0 }

let now t = t.clock

let before a b =
  a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq)

let push t c =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let heap = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && before c heap.((!i - 1) / 2) do
    heap.(!i) <- heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  heap.(!i) <- c

(* Remove the top cell: the last cell sifts down from the root. *)
let pop t =
  let heap = t.heap in
  let top = heap.(0) in
  let n = t.size - 1 in
  let last = heap.(n) in
  t.size <- n;
  heap.(n) <- dummy;
  if n > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && before heap.(l + 1) heap.(l) then l + 1 else l in
      if c < n && before heap.(c) last then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    done;
    heap.(!i) <- last
  end;
  top

let schedule t ~at f =
  let c =
    {
      deadline = (if at < t.clock then t.clock else at);
      seq = t.next_seq;
      action = f;
      cancelled = false;
    }
  in
  t.next_seq <- t.next_seq + 1;
  push t c;
  c

let cancel c = c.cancelled <- true

let rec drop_cancelled t =
  if t.size > 0 && t.heap.(0).cancelled then begin
    ignore (pop t);
    drop_cancelled t
  end

let next_deadline t =
  drop_cancelled t;
  if t.size = 0 then infinity else t.heap.(0).deadline

let step t =
  drop_cancelled t;
  if t.size = 0 then false
  else begin
    let c = pop t in
    t.clock <- c.deadline;
    c.action ();
    true
  end

let advance t ~now =
  let fired = ref 0 in
  while next_deadline t <= now && step t do
    incr fired
  done;
  if now > t.clock then t.clock <- now;
  !fired

let pending t =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if not t.heap.(i).cancelled then incr n
  done;
  !n
