(* SplitMix64's finalizer over the session key: a full-avalanche mix so
   sessions that differ only in the low bits of the stream id (the load
   generator's layout) still spread uniformly across shards. One
   function body, so the 64-bit steps stay in unboxed locals; the
   result keeps the low 63 bits, which are all [shard_of] ever read. *)
let hash ~peer ~peer_port ~stream =
  let open Int64 in
  let x =
    add
      (mul (of_int peer) 0x9E3779B97F4A7C15L)
      (add (mul (of_int peer_port) 0xC2B2AE3D27D4EB4FL) (of_int stream))
  in
  let x = logxor x (shift_right_logical x 30) in
  let x = mul x 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  let x = mul x 0x94d049bb133111ebL in
  to_int (logxor x (shift_right_logical x 31))

(* The 63 bits read as an unsigned number, modulo [n]: halve first so
   the dividend stays non-negative, then put the low bit back. *)
let slot h ~n =
  if h >= 0 then h mod n else ((((h lsr 1) mod n) * 2) + (h land 1)) mod n

let shard_of ~shards ~peer ~peer_port ~stream =
  if shards <= 0 then invalid_arg "Demux.shard_of: shards must be positive";
  slot (hash ~peer ~peer_port ~stream) ~n:shards
