(* Bucket 0 is the underflow bucket (v < 1); bucket i >= 1 covers
   [2^((i-1)/4), 2^(i/4)). *)
let per_octave = 4
let octaves = 62
let nbuckets = (per_octave * octaves) + 1

type t = {
  (* Buckets plus the scalar moments move together under [lock]: a
     histogram is updated from whichever domain ran the measured code, and
     an unsynchronized [count <- count + 1] next to an array store would
     drop updates and let count drift from the bucket sum. The moments
     sit unboxed in [m], so a sample stores without allocating. *)
  lock : Mutex.t;
  counts : int array;
  mutable count : int;
  m : Float.Array.t;  (* sum, minimum, maximum *)
}

let sum_i = 0
let min_i = 1
let max_i = 2

let create () =
  let m = Float.Array.make 3 0.0 in
  Float.Array.set m min_i infinity;
  Float.Array.set m max_i neg_infinity;
  { lock = Mutex.create (); counts = Array.make nbuckets 0; count = 0; m }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let bucket_of v =
  if v < 1.0 then 0
  else
    let i = 1 + int_of_float (Float.log2 v *. float_of_int per_octave) in
    if i >= nbuckets then nbuckets - 1 else i

(* Geometric midpoint of bucket i's range. *)
let representative i =
  if i = 0 then 0.5
  else Float.pow 2.0 ((float_of_int (i - 1) +. 0.5) /. float_of_int per_octave)

(* Lock and unlock inline, as [Bufkit.Pool] does: no closure over the
   sample, and nothing in the critical section can raise. *)
let record t v =
  let b = bucket_of v in
  Mutex.lock t.lock;
  t.counts.(b) <- t.counts.(b) + 1;
  t.count <- t.count + 1;
  let m = t.m in
  Float.Array.set m sum_i (Float.Array.get m sum_i +. v);
  if v < Float.Array.get m min_i then Float.Array.set m min_i v;
  if v > Float.Array.get m max_i then Float.Array.set m max_i v;
  Mutex.unlock t.lock

let count t = locked t (fun () -> t.count)
let sum t = locked t (fun () -> Float.Array.get t.m sum_i)

let mean t =
  locked t (fun () ->
      if t.count = 0 then 0.0
      else Float.Array.get t.m sum_i /. float_of_int t.count)

let minimum t =
  locked t (fun () -> if t.count = 0 then 0.0 else Float.Array.get t.m min_i)

let maximum t =
  locked t (fun () -> if t.count = 0 then 0.0 else Float.Array.get t.m max_i)

let percentile t q =
  locked t (fun () ->
      let mn = Float.Array.get t.m min_i and mx = Float.Array.get t.m max_i in
      if t.count = 0 then 0.0
      else if q <= 0.0 then mn
      else if q >= 1.0 then mx
      else begin
        let rank = Float.max 1.0 (Float.round (q *. float_of_int t.count)) in
        let cum = ref 0 in
        let i = ref 0 in
        (try
           while !i < nbuckets do
             cum := !cum + t.counts.(!i);
             if float_of_int !cum >= rank then raise Exit;
             incr i
           done
         with Exit -> ());
        let v = representative (min !i (nbuckets - 1)) in
        Float.min mx (Float.max mn v)
      end)

let p50 t = percentile t 0.50
let p90 t = percentile t 0.90
let p99 t = percentile t 0.99

let pp ppf t =
  Format.fprintf ppf
    "hist(n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g min=%.4g max=%.4g)"
    (count t) (mean t) (p50 t) (p90 t) (p99 t) (minimum t) (maximum t)
