open Bufkit

type result = {
  adu : Adu.t;
  checksums : (Checksum.Kind.t * int) list;
}

type stats = {
  mutable processed : int;
  mutable rejected_order : int;
  mutable rejected_invalid : int;
}

type t = {
  plan : Adu.t -> Ilp.plan;
  deliver : result -> unit;
  stats : stats;
  pool : Par.Pool.t option;
  batch : int;
  (* Accepted, not yet processed (pooled mode); the second component is
     the staging buffer to release after the batch is delivered. *)
  backlog : (Adu.t * Bytebuf.t option) Queue.t;
  out_pool : (Pool.t * int) option;  (* pool and its buf_size *)
  in_pool : (Pool.t * int) option;
}

let c_processed = Obs.Registry.counter "stage2.processed"
let c_bytes = Obs.Registry.counter "stage2.bytes"
let c_rejected_order = Obs.Registry.counter "stage2.rejected_order"
let c_rejected_invalid = Obs.Registry.counter "stage2.rejected_invalid"
let c_out_pooled = Obs.Registry.counter "stage2.out_pooled"
let c_in_staged = Obs.Registry.counter "stage2.in_staged"

let with_size = Option.map (fun p -> (p, (Pool.stats p).Pool.buf_size))

let create ?pool ?(batch = 32) ?out_pool ?in_pool ~plan ~deliver () =
  if batch < 1 then invalid_arg "Stage2.create: batch must be >= 1";
  {
    plan;
    deliver;
    stats = { processed = 0; rejected_order = 0; rejected_invalid = 0 };
    pool;
    batch;
    backlog = Queue.create ();
    out_pool = with_size out_pool;
    in_pool = with_size in_pool;
  }

let stats t = t.stats

(* A pooled buffer trimmed to [len], when the pool has room and the size
   fits; the full buffer is what must go back to the pool. *)
let acquire_fit pool_opt len =
  match pool_opt with
  | Some (pool, buf_size) when len <= buf_size -> (
      match Pool.try_acquire pool with
      | Some full -> Some (full, Bytebuf.take full len)
      | None -> None)
  | _ -> None

let release_into pool_opt owner =
  match (pool_opt, owner) with
  | Some (pool, _), Some full -> Pool.release pool full
  | _ -> ()

let account_and_deliver t (adu : Adu.t) output checksums =
  t.stats.processed <- t.stats.processed + 1;
  Obs.Counter.incr c_processed;
  Obs.Counter.add c_bytes (Bytebuf.length adu.Adu.payload);
  t.deliver { adu = Adu.make adu.Adu.name output; checksums }

let flush t =
  if not (Queue.is_empty t.backlog) then begin
    let entries = Array.of_seq (Queue.to_seq t.backlog) in
    Queue.clear t.backlog;
    let adus = Array.map fst entries in
    (* Per-ADU output slots from the output pool, released once the whole
       batch has been delivered — results are borrowed by [deliver]. *)
    let out_owners =
      Array.map
        (fun (adu : Adu.t) ->
          acquire_fit t.out_pool (Bytebuf.length adu.Adu.payload))
        adus
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun o -> release_into t.out_pool (Option.map fst o))
          out_owners;
        Array.iter (fun (_, o) -> release_into t.in_pool o) entries)
      (fun () ->
        let outs = Array.map (Option.map snd) out_owners in
        let outcome = Ilp_par.run ?pool:t.pool ~outs ~plan:t.plan adus in
        (* Results come back position-indexed, so delivery happens here in
           arrival order — identical observable order to the serial path,
           no matter which domain finished which ADU first. *)
        Array.iteri
          (fun i (r : Ilp.result) ->
            account_and_deliver t adus.(i) r.Ilp.output r.Ilp.checksums)
          outcome.Ilp_par.results)
  end

let deliver_fn t (adu : Adu.t) =
  let plan = t.plan adu in
  if Ilp.needs_in_order plan then begin
    t.stats.rejected_order <- t.stats.rejected_order + 1;
    Obs.Counter.incr c_rejected_order
  end
  else
    match Ilp.validate plan with
    | Error _ ->
        t.stats.rejected_invalid <- t.stats.rejected_invalid + 1;
        Obs.Counter.incr c_rejected_invalid
    | Ok () -> (
        match t.pool with
        | None -> (
            match acquire_fit t.out_pool (Bytebuf.length adu.Adu.payload) with
            | Some (full, dst) ->
                Obs.Counter.incr c_out_pooled;
                Fun.protect
                  ~finally:(fun () -> release_into t.out_pool (Some full))
                  (fun () ->
                    let run = Ilp.run_fused ~dst plan adu.Adu.payload in
                    account_and_deliver t adu run.Ilp.output run.Ilp.checksums)
            | None ->
                let run = Ilp.run_fused plan adu.Adu.payload in
                account_and_deliver t adu run.Ilp.output run.Ilp.checksums)
        | Some _ ->
            (* The backlog outlives this callback and the transport's
               payloads are borrowed, so each is staged into storage we
               own until the flush: a pool slice, or a private copy when
               there is no pool or it cannot serve this ADU. *)
            let entry =
              match acquire_fit t.in_pool (Bytebuf.length adu.Adu.payload) with
              | Some (full, staged) ->
                  Obs.Counter.incr c_in_staged;
                  Bytebuf.blit ~src:adu.Adu.payload ~src_pos:0 ~dst:staged
                    ~dst_pos:0 ~len:(Bytebuf.length adu.Adu.payload);
                  (Adu.make adu.Adu.name staged, Some full)
              | None ->
                  (Adu.make adu.Adu.name (Bytebuf.copy adu.Adu.payload), None)
            in
            Queue.add entry t.backlog;
            if Queue.length t.backlog >= t.batch then flush t)

let decrypt_verify ~key =
  [
    Ilp.Xor_pad { key; pos = 0L };
    Ilp.Checksum Checksum.Kind.Internet;
    Ilp.Deliver_copy;
  ]

let decrypt_verify_at ~key (adu : Adu.t) =
  [
    Ilp.Xor_pad { key; pos = Int64.of_int adu.Adu.name.Adu.dest_off };
    Ilp.Checksum Checksum.Kind.Internet;
    Ilp.Deliver_copy;
  ]
