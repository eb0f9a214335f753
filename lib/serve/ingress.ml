open Alf_core

(* Stage-0 ingress validation: a total, allocation-free classification of
   a borrowed datagram, run on the I/O thread before demux. Anything the
   shards would have to reject anyway — runts, oversized units, unknown
   kinds, self-inconsistent fragment headers, malformed control bodies —
   is refused here for O(1) work, so no byte sequence can raise, reach a
   session table, or cost more than a bounded header inspection before
   it is classified. {!Framing.read_layout} reads the datagram; this
   module maps its verdict to exactly one {!reason}. *)

type reason =
  | Runt
  | Oversize
  | Bad_kind
  | Frag_header
  | Ctl_malformed
  | Fec_unsupported
  | Backpressure
  | Bad_crc
  | Bad_adu
  | Window
  | Policed_new
  | Policed_ctl
  | Shed
  | Dispatch_error
  | Auth

let all_reasons =
  [|
    Runt;
    Oversize;
    Bad_kind;
    Frag_header;
    Ctl_malformed;
    Fec_unsupported;
    Backpressure;
    Bad_crc;
    Bad_adu;
    Window;
    Policed_new;
    Policed_ctl;
    Shed;
    Dispatch_error;
    Auth;
  |]

let reason_count = Array.length all_reasons

let reason_index = function
  | Runt -> 0
  | Oversize -> 1
  | Bad_kind -> 2
  | Frag_header -> 3
  | Ctl_malformed -> 4
  | Fec_unsupported -> 5
  | Backpressure -> 6
  | Bad_crc -> 7
  | Bad_adu -> 8
  | Window -> 9
  | Policed_new -> 10
  | Policed_ctl -> 11
  | Shed -> 12
  | Dispatch_error -> 13
  | Auth -> 14

let reason_name = function
  | Runt -> "runt"
  | Oversize -> "oversize"
  | Bad_kind -> "bad_kind"
  | Frag_header -> "frag_header"
  | Ctl_malformed -> "ctl_malformed"
  | Fec_unsupported -> "fec_unsupported"
  | Backpressure -> "backpressure"
  | Bad_crc -> "bad_crc"
  | Bad_adu -> "bad_adu"
  | Window -> "window"
  | Policed_new -> "policed_new"
  | Policed_ctl -> "policed_ctl"
  | Shed -> "shed"
  | Dispatch_error -> "dispatch_error"
  | Auth -> "auth"

(* A malformed-shape rejection: the datagram's bytes themselves are bad,
   as opposed to a policy drop (backpressure, policing, shedding) of a
   well-formed unit. The distinction is what lets tests equate injected
   malformed counts with drop-counter sums. *)
let is_malformed = function
  | Runt | Oversize | Bad_kind | Frag_header | Ctl_malformed | Fec_unsupported
  | Bad_crc | Bad_adu | Auth ->
      true
  | Backpressure | Window | Policed_new | Policed_ctl | Shed | Dispatch_error
    ->
      false

(* Each verdict is one reason. An FEC block is well formed but not
   served. The same map serves the shards after {!Framing.read}, which
   adds the trailer's [Bad_crc]. *)
let validate (v : Framing.view) = function
  | Framing.Valid ->
      if v.Framing.kind = Framing.Fec then Some Fec_unsupported else None
  | Framing.Runt -> Some Runt
  | Framing.Oversize -> Some Oversize
  | Framing.Bad_kind -> Some Bad_kind
  | Framing.Bad_frag -> Some Frag_header
  | Framing.Bad_ctl -> Some Ctl_malformed
  | Framing.Bad_crc -> Some Bad_crc
