(** Stage 1 of the two-stage receiver, for one stream.

    The paper's receiver keeps all transfer control — which ADUs arrived,
    which are duplicates, which are missing, when the stream is complete —
    in a small stage 1, so that stage 2 can process complete ADUs in any
    order. This module is that stage 1, written once for both receivers:
    {!Alf_transport}'s endpoint and the sharded [Alf_serve.Server].

    State per stream: a contiguous frontier (every index below it is
    delivered or gone), an ahead table of the indices settled out of
    order, the highest index admitted, the CLOSE total, and a reassembler
    created on the first multi-fragment ADU. It reads no clock and
    touches no scheduler, socket or metric: repair pacing, unsealing,
    counters and replies stay with the driver.

    Each input goes through one function that returns a constant
    {!verdict}. Settings shared by all streams of a driver live in an
    {!env} built once (per receiver or per shard). *)

open Bufkit

type verdict =
  | Pending  (** Accepted, nothing settled (a stored fragment, an early CLOSE). *)
  | Settled  (** An index was delivered or declared gone; still open. *)
  | Completed  (** The stream is now complete. Returned once per stream. *)
  | Already_complete  (** A CLOSE on a complete stream: the DONE was lost. *)
  | Duplicate  (** Index already settled, or a fragment already held. *)
  | Window
      (** Index negative, beyond the admission window, or at or above the
          CLOSE total. *)
  | Bad_adu  (** The ADU failed its decode or CRC; it stays repairable. *)
  | Bad_frag  (** The fragment disagrees with its partial's shape. *)
  | Auth
      (** Record authentication failed ({!Secure.Record.open_payload});
          the index is un-retired so a repair can fetch the real bytes. *)

type 'o env
(** Driver-wide settings, plus the slot that carries a reassembler-driven
    delivery's verdict out of {!fragment}: use one [env] from one thread
    at a time. *)

val env :
  window:int ->
  ?pool:Pool.t ->
  ?secure:Secure.Record.t ->
  deliver:('o -> Adu.t -> unit) ->
  unit ->
  'o env
(** [window] caps how far above the frontier an index is admitted
    ([max_int]: no cap). [?pool] supplies reassembly buffers; [?secure]
    opens each sealed payload in place before delivery.

    [deliver owner adu] runs once per delivered ADU, after the index is
    marked and the frontier has moved. The payload is {e borrowed}: it
    aliases the datagram or a reassembly buffer recycled when [deliver]
    returns. Consume, transform or copy it inside the call. *)

type 'o t

val create : 'o -> 'o t
(** A fresh stream, owned by the given value (a session key, or [()]). *)

val owner : 'o t -> 'o

val fragment : 'o env -> 'o t -> Framing.view -> verdict
(** One data fragment of this stream, as a [Valid] {!Framing.read} left
    it in the view. Admission ([Duplicate], [Window]) comes first. A
    single-fragment ADU's header is then read in place
    ({!Adu.read_header} into the view) and the ADU delivered with no
    reassembler and no copy; other fragments go to the reassembler, which
    delivers on the last one. *)

val close : 'o t -> int -> verdict
(** A CLOSE with the stream's total; the first total wins. [Completed]
    when it completed the stream, [Already_complete] when the stream was
    complete before, [Pending] otherwise. Each of the first two deserves
    one DONE. *)

val gone : 'o env -> 'o t -> int -> verdict
(** The sender declared an index gone. Admission as for {!fragment};
    [Settled] or [Completed] when the index settled. *)

val give_up : 'o t -> int -> verdict
(** The driver declares an index gone locally (its repair budget is
    spent). No admission check: drivers give up what {!missing} listed. *)

val clear : 'o t -> unit
(** Teardown: drop every partial, returning pooled buffers, and empty the
    ahead table. *)

val missing : 'o env -> 'o t -> cap:int -> int list
(** Up to [cap] unsettled indices, ascending from the frontier: below the
    CLOSE total, or up to the highest admitted index while the total is
    unknown, and within the admission window. *)

(** {1 Observation} *)

val frontier : 'o t -> int
(** Lowest unsettled index. Never decreases. *)

val total : 'o t -> int
(** The CLOSE total, or [-1] before any CLOSE. *)

val complete : 'o t -> bool
(** The total is known and every index below it is settled. *)

val settled : 'o t -> int -> bool
val delivered : 'o t -> int
val gone_count : 'o t -> int
(** Indices declared gone, by the sender or locally. *)

val ahead_load : 'o t -> int
val retired_count : 'o t -> int
(** The reassembler's retired-index table ({!Framing.retired_count}). *)

val reasm_stats : 'o t -> Framing.reasm_stats
(** All zero before the first multi-fragment ADU. *)
