type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t
  | Pull of (unit -> float)

(* The table itself needs a lock, not just its entries: find-or-create
   from two domains must agree on ONE metric instance, or each keeps
   bumping a private counter and the registry exports whichever lost the
   Hashtbl race. Metric mutation is the metric's own concern (atomics in
   Counter/Gauge, a mutex in Histogram); the registry lock only covers
   name resolution and enumeration. *)
type t = { lock : Mutex.t; tbl : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }
let default = create ()

let locked registry f =
  Mutex.lock registry.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry.lock) f

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ | Pull _ -> "gauge"
  | Histogram _ -> "histogram"

let mismatch name wanted found =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %s is a %s, wanted a %s" name
       (kind_name found) wanted)

(* Find-or-create takes and releases the lock inline, as
   [Histogram.record] does: a hit builds no closure and no option, so a
   lookup on a hot path costs a hash and a lock round trip, not GC words.
   Nothing raises while the lock is held. *)
let counter ?(registry = default) name =
  Mutex.lock registry.lock;
  match Hashtbl.find registry.tbl name with
  | Counter x ->
      Mutex.unlock registry.lock;
      x
  | m ->
      Mutex.unlock registry.lock;
      mismatch name "counter" m
  | exception Not_found ->
      let x = Counter.create () in
      Hashtbl.replace registry.tbl name (Counter x);
      Mutex.unlock registry.lock;
      x

let gauge ?(registry = default) name =
  Mutex.lock registry.lock;
  match Hashtbl.find registry.tbl name with
  | Gauge x ->
      Mutex.unlock registry.lock;
      x
  | m ->
      Mutex.unlock registry.lock;
      mismatch name "gauge" m
  | exception Not_found ->
      let x = Gauge.create () in
      Hashtbl.replace registry.tbl name (Gauge x);
      Mutex.unlock registry.lock;
      x

let histogram ?(registry = default) name =
  Mutex.lock registry.lock;
  match Hashtbl.find registry.tbl name with
  | Histogram x ->
      Mutex.unlock registry.lock;
      x
  | m ->
      Mutex.unlock registry.lock;
      mismatch name "histogram" m
  | exception Not_found ->
      let x = Histogram.create () in
      Hashtbl.replace registry.tbl name (Histogram x);
      Mutex.unlock registry.lock;
      x

let pull ?(registry = default) name f =
  locked registry (fun () ->
      match Hashtbl.find_opt registry.tbl name with
      | Some (Pull _) | None -> Hashtbl.replace registry.tbl name (Pull f)
      | Some m -> mismatch name "pull gauge" m)

let find ?(registry = default) name =
  locked registry (fun () -> Hashtbl.find_opt registry.tbl name)

let names ?(registry = default) () =
  locked registry (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) registry.tbl []
      |> List.sort String.compare)

let is_empty ?(registry = default) () =
  locked registry (fun () -> Hashtbl.length registry.tbl = 0)

let clear ?(registry = default) () =
  locked registry (fun () -> Hashtbl.reset registry.tbl)

let metric_json = function
  | Counter c ->
      Json.Obj
        [ ("type", Json.Str "counter"); ("value", Json.num_of_int (Counter.value c)) ]
  | Gauge g ->
      Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Num (Gauge.value g)) ]
  | Pull f ->
      Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Num (f ())) ]
  | Histogram h ->
      Json.Obj
        [
          ("type", Json.Str "histogram");
          ("count", Json.num_of_int (Histogram.count h));
          ("sum", Json.Num (Histogram.sum h));
          ("mean", Json.Num (Histogram.mean h));
          ("min", Json.Num (Histogram.minimum h));
          ("max", Json.Num (Histogram.maximum h));
          ("p50", Json.Num (Histogram.p50 h));
          ("p90", Json.Num (Histogram.p90 h));
          ("p99", Json.Num (Histogram.p99 h));
        ]

(* Exports snapshot the bindings under the lock, then format outside it:
   a [Pull] closure may itself touch the registry, and formatting must not
   race a concurrent create's table resize. *)
let snapshot registry =
  locked registry (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry.tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let to_json ?(registry = default) () =
  Json.Obj (List.map (fun (name, m) -> (name, metric_json m)) (snapshot registry))

let pp ppf t =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Format.fprintf ppf "%-44s %d@\n" name (Counter.value c)
      | Gauge g -> Format.fprintf ppf "%-44s %.6g@\n" name (Gauge.value g)
      | Pull f -> Format.fprintf ppf "%-44s %.6g@\n" name (f ())
      | Histogram h -> Format.fprintf ppf "%-44s %a@\n" name Histogram.pp h)
    (snapshot t)
