(** Byzantine peers for the serve engine.

    Seeded hostile-traffic plans driven through the same {!Dgram.t} seam
    as the honest load generator, so byzantine and honest datagrams mix
    on the wire. Each emission is classified at the source:

    - {e malformed} — the bytes are bad: random fuzz, bit-flipped valid
      datagrams, truncations. The server must drop every one under a
      malformed-shape [serve.drop.*] reason (and may additionally shed
      some as backpressure under load);
    - {e wellformed} — valid bytes used abusively: replays, session-churn
      floods, slow-drip senders, NACK/DONE storms, CLOSE floods with
      forged totals, fragments with forged indices. The server absorbs,
      polices, window-clamps or sheds these — never crashes, never lets
      them displace honest sessions' invariants.

    Determinism: a config's [seed] fully fixes the emission sequence. *)

type category =
  | Fuzz  (** Random bytes, random length. *)
  | Flip  (** One byte of a valid datagram XORed. *)
  | Trunc  (** A valid datagram cut at a random boundary. *)
  | Replay  (** The same valid fragment, over and over. *)
  | Churn  (** Index 0 of an ever-new stream: admission flood. *)
  | Drip  (** Persistent streams fed slowly, never CLOSEd. *)
  | Nack_storm  (** Valid NACK/DONE control at the server. *)
  | Close_flood  (** CLOSEs with 4-billion totals on fresh streams. *)
  | Forged  (** Valid fragments with indices far past any window. *)

val all_categories : category array
val category_index : category -> int

type config = {
  server : int;
  server_port : int;
  base_port : int;  (** Hostile source ports start here (keep them
      disjoint from the honest generator's range). *)
  ports : int;
  payload_len : int;
  integrity : Checksum.Kind.t option;  (** Must match the server's for
      the {e wellformed} arms to be accepted as valid. *)
  seed : int64;
  mix : (category * int) list;  (** Relative emission weights. *)
}

val default_mix : (category * int) list
val default_config : config

type stats = {
  mutable sent : int;
  mutable sent_bytes : int;
  mutable send_failed : int;
  mutable malformed : int;
  mutable wellformed : int;
  mutable replies_rx : int;  (** Server control landing on hostile ports
      (repair NACKs drawn by CLOSE floods, DONEs for drip streams). *)
  by_category : int array;  (** Emissions per {!category_index}. *)
}

type t

val create : io:Alf_core.Dgram.t -> config -> t
(** Binds the hostile ports (swallowing and counting server replies).
    Raises [Invalid_argument] on a nonsensical config. *)

val step : t -> budget:int -> int
(** Emit [budget] hostile datagrams according to the weighted mix;
    returns the number sent. Allocation-free per datagram. *)

val stats : t -> stats
