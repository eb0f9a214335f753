(* Monotonic nanoseconds without allocation: the stub behind
   [Monotonic_clock.now], declared unboxed here so that a read compiles
   to a C call returning an untagged int64, converted in a register. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (clock_ns ())

(* Referencing the library keeps its C stubs on the link line. *)
let () = ignore (Monotonic_clock.now ())
