(** Stage 2 of the two-stage receive architecture.

    §6: "once a complete ADU is received, even if it is out of order …
    it can be passed to the application for the second stage of
    processing. This processing will include all the required data
    manipulations, including error and encryption checks, and possibly
    presentation conversion."

    A stage-2 processor is a per-ADU {!Ilp} plan (chosen per ADU, so
    cipher positions and conversions can depend on the ADU's name) run
    by the {e fused} executor, wrapped as an ordinary delivery callback —
    it plugs directly into [Alf_transport.receiver_io ~deliver]. Plans that
    would forbid out-of-order ADUs (a sequential cipher) are rejected at
    processing time and counted, never silently reordered.

    With [?pool], accepted ADUs are batched and sharded across the
    pool's worker domains by {!Ilp_par} — the §7 parallel sink. Results
    are still handed to [deliver] on the {e calling} domain, in arrival
    order, so downstream code observes exactly the serial behaviour;
    only the data manipulation runs in parallel. Call {!flush} when the
    source pauses or completes to drain a partial batch. *)

type result = {
  adu : Adu.t;  (** Name unchanged; payload is the plan's output. *)
  checksums : (Checksum.Kind.t * int) list;
}

type stats = {
  mutable processed : int;
  mutable rejected_order : int;
      (** Plans that demanded in-order processing. *)
  mutable rejected_invalid : int;  (** Plans that failed {!Ilp.validate}. *)
}

type t

val create :
  ?pool:Par.Pool.t ->
  ?batch:int ->
  ?out_pool:Bufkit.Pool.t ->
  ?in_pool:Bufkit.Pool.t ->
  plan:(Adu.t -> Ilp.plan) ->
  deliver:(result -> unit) ->
  unit ->
  t
(** Without [?pool], each ADU is processed inline as it arrives (the
    PR-1 behaviour). With [?pool], ADUs accumulate and every [batch]
    (default 32) are executed in parallel; [deliver] still runs on the
    caller, in arrival order. Raises [Invalid_argument] if [batch < 1].

    [?out_pool] recycles {e output} buffers: the fused loop writes into a
    pool slice ([Ilp.run_fused ~dst]) instead of allocating per ADU. The
    delivered payload then only remains valid while [deliver] runs —
    consume or copy it before returning. ADUs larger than the pool's
    [buf_size], or arriving while the pool is exhausted, fall back to
    allocation transparently.

    [?in_pool] matters only with [?pool] (batched mode). The backlog
    outlives the callback and the transport's payloads are {e borrowed},
    so each arriving payload is staged until the flush: into a buffer
    from [?in_pool], or into a private copy when there is no staging
    pool or it cannot serve the ADU.

    With both pools, steady-state receive does zero buffer allocations
    per ADU (see the [ilp-compile/pooled-receive] bench row). *)

val deliver_fn : t -> Adu.t -> unit
(** The callback to hand to the transport: runs (or, pooled, enqueues)
    the ADU's plan and forwards the result. *)

val flush : t -> unit
(** Process any backlogged ADUs now. A no-op without [?pool] or when the
    backlog is empty. *)

val stats : t -> stats
(** Note: in pooled mode [processed] counts ADUs whose results have been
    {e delivered}; accepted-but-unflushed ADUs are not yet counted. *)

val decrypt_verify : key:int64 -> Ilp.plan
(** A ready-made stage-2 plan body for {!Secure}-sealed ADUs: positional
    decrypt, Internet checksum of the plaintext, move into application
    memory. Use as [~plan:(fun adu -> Stage2.decrypt_verify_at ~key adu)]
    via {!decrypt_verify_at}. *)

val decrypt_verify_at : key:int64 -> Adu.t -> Ilp.plan
(** {!decrypt_verify} with the keystream position taken from the ADU's
    [dest_off]. *)
