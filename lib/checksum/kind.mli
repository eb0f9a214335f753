(** Uniform dispatch over the checksum algorithms.

    Benchmarks, CLI flags and ILP stage factories select an algorithm at
    run time; this module gives them one name-indexed entry point. Results
    are widened to [int] (all fit in 32 bits). *)

open Bufkit

type t = Internet | Fletcher16 | Fletcher32 | Adler32 | Crc32

val all : t list
val to_string : t -> string

val of_string : string -> t option
(** Case-insensitive; accepts the names printed by {!to_string}. *)

val digest : t -> Bytebuf.t -> int
val digest_iovec : t -> Iovec.t -> int

type feeder
(** An algorithm-erased incremental computation. *)

val feeder : t -> feeder
val feeder_byte : feeder -> int -> feeder

val feeder_buf : feeder -> Bytebuf.t -> feeder
val feeder_finish : feeder -> int
val pp : Format.formatter -> t -> unit
