type t = {
  timers : Timers.t;
  epoch : float;
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
  mutable rd : Unix.file_descr list;  (* [fds]' descriptors, select's list *)
}

let create () =
  { timers = Timers.create (); epoch = Unix.gettimeofday (); fds = []; rd = [] }

let now t = Unix.gettimeofday () -. t.epoch

let sched t =
  {
    Sched.now = (fun () -> now t);
    (* Clamp here, at the loop clock, not in the heap: the heap's own
       clock lags behind [now t] between advances, so a negative delay
       left unclamped would land *before* a zero delay scheduled a
       moment earlier and overtake it. *)
    schedule =
      (fun delay f ->
        let cell =
          Timers.schedule t.timers
            ~at:(now t +. if delay > 0.0 then delay else 0.0)
            f
        in
        Sched.make_timer (fun () -> Timers.cancel cell));
  }

let set_fds t fds =
  t.fds <- fds;
  t.rd <- List.map fst fds

let on_readable t fd cb = set_fds t ((fd, cb) :: List.remove_assoc fd t.fds)
let clear_readable t fd = set_fds t (List.remove_assoc fd t.fds)
let pending_timers t = Timers.pending t.timers

(* Run [fd]'s callback if it is still registered: an earlier callback of
   the same wakeup may have cleared it. *)
let rec dispatch_fd fd = function
  | [] -> ()
  | (fd', cb) :: rest -> if fd' = fd then cb () else dispatch_fd fd rest

let rec dispatch t = function
  | [] -> ()
  | fd :: rest ->
      dispatch_fd fd t.fds;
      dispatch t rest

(* The longest single wait, so an idle loop still re-checks its
   predicate. *)
let max_select = 0.05

(* Each round fires the due timers first (so due work is never starved
   by a busy socket), checks the predicate, then blocks in one [select]
   until the next deadline, the caller's timeout or [max_select], and
   dispatches what turned readable. *)
let run_until t ~timeout pred =
  let deadline = now t +. timeout in
  let held = ref false and running = ref true in
  while !running do
    ignore (Timers.advance t.timers ~now:(now t));
    if pred () then begin
      held := true;
      running := false
    end
    else begin
      let clock = now t in
      let wait = deadline -. clock in
      if wait <= 0.0 then running := false
      else begin
        let wait = if wait > max_select then max_select else wait in
        let to_timer = Timers.next_deadline t.timers -. clock in
        let wait =
          if to_timer >= wait then wait
          else if to_timer > 0.0 then to_timer
          else 0.0
        in
        match Unix.select t.rd [] [] wait with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ -> dispatch t ready
      end
    end
  done;
  !held

let run_for t duration =
  ignore (run_until t ~timeout:duration (fun () -> false))
