open Bufkit

type t = Internet | Fletcher16 | Fletcher32 | Adler32 | Crc32

let all = [ Internet; Fletcher16; Fletcher32; Adler32; Crc32 ]

let to_string = function
  | Internet -> "internet"
  | Fletcher16 -> "fletcher16"
  | Fletcher32 -> "fletcher32"
  | Adler32 -> "adler32"
  | Crc32 -> "crc32"

let of_string s =
  match String.lowercase_ascii s with
  | "internet" -> Some Internet
  | "fletcher16" -> Some Fletcher16
  | "fletcher32" -> Some Fletcher32
  | "adler32" -> Some Adler32
  | "crc32" -> Some Crc32
  | _ -> None

let int_of_int32 v = Int32.to_int v land 0xFFFFFFFF

let digest kind buf =
  match kind with
  | Internet -> Internet.digest buf
  | Fletcher16 -> Fletcher.digest16 buf
  | Fletcher32 -> int_of_int32 (Fletcher.digest32 buf)
  | Adler32 -> int_of_int32 (Adler32.digest buf)
  | Crc32 -> int_of_int32 (Crc32.digest buf)

let digest_iovec kind iov =
  match kind with
  | Internet -> Internet.digest_iovec iov
  | Fletcher16 | Fletcher32 | Adler32 | Crc32 ->
      digest kind (Iovec.gather iov)

type feeder =
  | F_internet of Internet.state
  | F_fletcher16 of Fletcher.state16
  | F_fletcher32 of Fletcher.state32
  | F_adler of Adler32.state
  | F_crc of Crc32.state

let feeder = function
  | Internet -> F_internet Internet.init
  | Fletcher16 -> F_fletcher16 Fletcher.init16
  | Fletcher32 -> F_fletcher32 Fletcher.init32
  | Adler32 -> F_adler Adler32.init
  | Crc32 -> F_crc Crc32.init

let feeder_byte f b =
  match f with
  | F_internet st -> F_internet (Internet.feed_byte st b)
  | F_fletcher16 st -> F_fletcher16 (Fletcher.feed16_byte st b)
  | F_fletcher32 st -> F_fletcher32 (Fletcher.feed32_byte st b)
  | F_adler st -> F_adler (Adler32.feed_byte st b)
  | F_crc st -> F_crc (Crc32.feed_byte st b)

let feeder_buf f buf =
  match f with
  | F_internet st -> F_internet (Internet.feed st buf)
  | F_fletcher16 st -> F_fletcher16 (Fletcher.feed16 st buf)
  | F_fletcher32 st -> F_fletcher32 (Fletcher.feed32 st buf)
  | F_adler st -> F_adler (Adler32.feed st buf)
  | F_crc st -> F_crc (Crc32.feed st buf)

let feeder_finish = function
  | F_internet st -> Internet.finish st
  | F_fletcher16 st -> Fletcher.finish16 st
  | F_fletcher32 st -> int_of_int32 (Fletcher.finish32 st)
  | F_adler st -> int_of_int32 (Adler32.finish st)
  | F_crc st -> int_of_int32 (Crc32.finish st)

let pp ppf t = Format.pp_print_string ppf (to_string t)
