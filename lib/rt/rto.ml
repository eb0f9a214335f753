type t = {
  initial_rto : float;
  min_rto : float;
  max_rto : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable have_sample : bool;
  mutable shift : int;
}

let create ?(initial_rto = 1.0) ?(min_rto = 0.01) ?(max_rto = 60.0) () =
  {
    initial_rto;
    min_rto;
    max_rto;
    srtt = 0.0;
    rttvar = 0.0;
    have_sample = false;
    shift = 0;
  }

let sample ?(retransmitted = false) t rtt =
  (* Karn's algorithm: an RTT measured on a retransmitted segment is
     ambiguous (the ACK may answer either transmission), so it must
     neither feed the estimator NOR reset the backoff. Resetting [shift]
     on such samples collapses the exponential backoff under persistent
     loss — every spurious "sample" would snap the timer back to base. *)
  if (not retransmitted) && rtt >= 0.0 then begin
    if not t.have_sample then begin
      t.srtt <- rtt;
      t.rttvar <- rtt /. 2.0;
      t.have_sample <- true
    end
    else begin
      let err = rtt -. t.srtt in
      t.srtt <- t.srtt +. (err /. 8.0);
      t.rttvar <- t.rttvar +. ((abs_float err -. t.rttvar) /. 4.0)
    end;
    t.shift <- 0
  end

let base_rto t =
  if t.have_sample then t.srtt +. (4.0 *. t.rttvar) else t.initial_rto

let rto t =
  let v = base_rto t *. float_of_int (1 lsl t.shift) in
  Float.min t.max_rto (Float.max t.min_rto v)

let backoff t = if t.shift < 6 then t.shift <- t.shift + 1

let srtt t = if t.have_sample then Some t.srtt else None
