(** Byte-oriented writers and readers for the external representation.

    All multi-byte integers are big-endian ("most significant byte
    first", §4.2.1), matching the Courier protocol's network order. *)

type writer
type reader

exception Underflow
(** Raised by read operations past the end of the buffer. *)

val writer : unit -> writer
val contents : writer -> bytes

val with_writer : (writer -> 'a -> unit) -> 'a -> bytes
(** [with_writer f v] runs [f w v] against a per-domain scratch writer
    [w] and returns the encoded bytes (always freshly copied, never
    aliased).  Passing [v] apart lets [f] be a closure built once.
    This is the hot-path encode entry point: it skips the per-call
    buffer allocation of {!writer}.  Reentrant calls (an encoder that
    itself encodes) transparently fall back to a fresh writer, and the
    scratch storage is shed if a jumbo encode ever balloons it. *)

val write_u8 : writer -> int -> unit
val write_u16 : writer -> int -> unit
val write_u32 : writer -> int32 -> unit
val write_u64 : writer -> int64 -> unit
val write_bytes : writer -> bytes -> unit
val write_string : writer -> string -> unit

val reader : bytes -> reader
val remaining : reader -> int

val read_u8 : reader -> int
val read_u16 : reader -> int
val read_u32 : reader -> int32
val read_u64 : reader -> int64
val read_bytes : reader -> int -> bytes
val read_string : reader -> int -> string
