(* SplitMix64's finalizer: a full-avalanche mix so sessions that differ
   only in the low bits of the stream id (the load generator's layout)
   still spread uniformly across shards. *)
let mix64 x =
  let open Int64 in
  let x = logxor x (shift_right_logical x 30) in
  let x = mul x 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  let x = mul x 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let hash ~peer ~peer_port ~stream =
  let open Int64 in
  mix64
    (add
       (mul (of_int peer) 0x9E3779B97F4A7C15L)
       (add (mul (of_int peer_port) 0xC2B2AE3D27D4EB4FL) (of_int stream)))

let shard_of ~shards ~peer ~peer_port ~stream =
  if shards <= 0 then invalid_arg "Demux.shard_of: shards must be positive";
  Int64.to_int
    (Int64.rem
       (Int64.logand (hash ~peer ~peer_port ~stream) Int64.max_int)
       (Int64.of_int shards))
