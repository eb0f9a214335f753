type t =
  | Null
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Octets of string
  | Utf8 of string
  | List of t list
  | Record of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Int64 x, Int64 y -> Int64.equal x y
  | Octets x, Octets y | Utf8 x, Utf8 y -> String.equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Record xs, Record ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (nx, vx) (ny, vy) -> String.equal nx ny && equal vx vy)
           xs ys
  | (Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _ | List _ | Record _), _
    -> false

let rec pp ppf = function
  | Null -> Format.fprintf ppf "null"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int i -> Format.fprintf ppf "%d" i
  | Int64 i -> Format.fprintf ppf "%Ld" i
  | Octets s -> Format.fprintf ppf "octets[%d]" (String.length s)
  | Utf8 s -> Format.fprintf ppf "%S" s
  | List vs ->
      Format.fprintf ppf "@[<hov 1>[%a]@]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        vs
  | Record fs ->
      let pp_field ppf (n, v) = Format.fprintf ppf "%s=%a" n pp v in
      Format.fprintf ppf "@[<hov 1>{%a}@]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_field)
        fs

let int_array a = List (Array.to_list (Array.map (fun i -> Int i) a))

let to_int_array = function
  | List vs ->
      let ints =
        List.fold_left
          (fun acc v ->
            match (acc, v) with
            | Some xs, Int i -> Some (i :: xs)
            | _, (Null | Bool _ | Int64 _ | Octets _ | Utf8 _ | List _ | Record _)
            | None, Int _ ->
                None)
          (Some []) vs
      in
      Option.map (fun xs -> Array.of_list (List.rev xs)) ints
  | Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _ | Record _ -> None

let octet_string n =
  (* Deterministic printable filler so equal sizes give equal payloads. *)
  Octets (String.init n (fun i -> Char.chr (32 + ((i * 131) + (i / 97)) mod 95)))

let rec strip_names = function
  | (Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _) as v -> v
  | List vs -> List (List.map strip_names vs)
  | Record fs -> List (List.map (fun (_, v) -> strip_names v) fs)

let rec canonical = function
  | (Null | Bool _ | Int _ | Octets _ | Utf8 _) as v -> v
  | Int64 i ->
      let as_int = Int64.to_int i in
      if Int64.equal (Int64.of_int as_int) i then Int as_int else Int64 i
  | List vs -> List (List.map canonical vs)
  | Record fs -> List (List.map (fun (_, v) -> canonical v) fs)

let rec depth = function
  | Null | Bool _ | Int _ | Int64 _ | Octets _ | Utf8 _ -> 1
  | List vs -> 1 + List.fold_left (fun m v -> max m (depth v)) 0 vs
  | Record fs -> 1 + List.fold_left (fun m (_, v) -> max m (depth v)) 0 fs

let rec abstract_size = function
  | Null | Bool _ -> 1
  | Int _ -> 4
  | Int64 _ -> 8
  | Octets s | Utf8 s -> String.length s
  | List vs -> List.fold_left (fun n v -> n + abstract_size v) 0 vs
  | Record fs -> List.fold_left (fun n (_, v) -> n + abstract_size v) 0 fs
