type stats = {
  buf_size : int;
  allocated : int;
  reused : int;
  outstanding : int;
  high_water : int;
  exhausted : int;
}

exception Exhausted

type t = {
  (* All free-list and accounting state moves under [lock]. Without it,
     two domains racing [acquire] can pop the same head cell and leave
     with ONE aliased buffer — silent cross-domain data corruption, a
     strictly worse outcome than the double-release bug the guards below
     were added for. *)
  lock : Mutex.t;
  buf_size : int;
  capacity : int;
  max_outstanding : int option;
  free : Bytebuf.t array;  (* a stack: slots [0, free_count) are free *)
  mutable free_count : int;
  mutable allocated : int;
  mutable reused : int;
  mutable outstanding : int;
  mutable high_water : int;
  mutable exhausted : int;
}

let create ?(capacity = 64) ?max_outstanding ~buf_size () =
  if buf_size <= 0 then invalid_arg "Pool.create: buf_size must be positive";
  if capacity < 0 then invalid_arg "Pool.create: negative capacity";
  (match max_outstanding with
  | Some m when m <= 0 ->
      invalid_arg "Pool.create: max_outstanding must be positive"
  | _ -> ());
  {
    lock = Mutex.create ();
    buf_size;
    capacity;
    max_outstanding;
    free = Array.make capacity Bytebuf.empty;
    free_count = 0;
    allocated = 0;
    reused = 0;
    outstanding = 0;
    high_water = 0;
    exhausted = 0;
  }

(* A buffer the pool makes carries one byte past its [buf_size]-byte
   view: [free_mark] while it sits in the free stack, 0 otherwise. A
   2,049-byte [Bytes] takes the same heap words as a 2,048-byte one. *)
let free_mark = '\001'

let is_pools t buf =
  Bytebuf.offset buf = 0 && Bytes.length (Bytebuf.data buf) = t.buf_size + 1

let set_mark t buf c =
  if is_pools t buf then Bytes.unsafe_set (Bytebuf.data buf) t.buf_size c

let acquire_locked t =
  let buf =
    if t.free_count > 0 then begin
      t.free_count <- t.free_count - 1;
      let b = t.free.(t.free_count) in
      t.free.(t.free_count) <- Bytebuf.empty;
      t.reused <- t.reused + 1;
      set_mark t b '\000';
      Bytebuf.fill b '\000';
      b
    end
    else begin
      t.allocated <- t.allocated + 1;
      Bytebuf.create_padded t.buf_size ~pad:1
    end
  in
  t.outstanding <- t.outstanding + 1;
  if t.outstanding > t.high_water then t.high_water <- t.outstanding;
  buf

let at_cap t =
  match t.max_outstanding with
  | Some m when t.outstanding >= m ->
      t.exhausted <- t.exhausted + 1;
      true
  | _ -> false

(* Run [f t x] under the lock and unlock on the way out, also when [f]
   raises. [acquire] and [release] sit on per-datagram paths: they pass
   top-level functions, so taking the lock allocates no closure. *)
let with_lock t f x =
  Mutex.lock t.lock;
  match f t x with
  | r ->
      Mutex.unlock t.lock;
      r
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let acquire_capped t () =
  if at_cap t then raise Exhausted;
  acquire_locked t

let acquire t = with_lock t acquire_capped ()

let try_acquire t =
  match acquire t with b -> Some b | exception Exhausted -> None

let in_free t buf =
  let i = ref 0 in
  while !i < t.free_count && t.free.(!i) != buf do
    incr i
  done;
  !i < t.free_count

let release_locked t buf =
  (* A double release would push the same buffer onto the free stack
     twice; two later acquires would then hand out one aliased buffer —
     silent data corruption. Detect both symptoms: the buffer already
     sitting in the free stack, and more releases than acquires. Only a
     buffer whose mark says free, or one the pool did not make, is
     looked for in the stack, so a legal release costs O(1). *)
  if
    ((not (is_pools t buf)) || Bytes.get (Bytebuf.data buf) t.buf_size = free_mark)
    && in_free t buf
  then invalid_arg "Pool.release: buffer already released";
  if t.outstanding = 0 then
    invalid_arg "Pool.release: more releases than acquires";
  t.outstanding <- t.outstanding - 1;
  if t.free_count < t.capacity then begin
    t.free.(t.free_count) <- buf;
    t.free_count <- t.free_count + 1;
    set_mark t buf free_mark
  end

let release t buf =
  if Bytebuf.length buf <> t.buf_size then
    invalid_arg "Pool.release: buffer size does not match pool";
  with_lock t release_locked buf

let snapshot t () =
  {
    buf_size = t.buf_size;
    allocated = t.allocated;
    reused = t.reused;
    outstanding = t.outstanding;
    high_water = t.high_water;
    exhausted = t.exhausted;
  }

let stats t = with_lock t snapshot ()
