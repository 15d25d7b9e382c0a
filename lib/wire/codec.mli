(** Typed externalization combinators (§7.1, Figure 7.1).

    A ['a t] packages the two translation processes of the stub
    compiler — externalization (marshaling) and internalization
    (unmarshaling) — for values of type ['a].  Stubs are built by
    composing these combinators; the IDL compiler in [Circus_idl]
    derives them from Courier-like interface declarations.

    The external form follows the Courier conventions: big-endian
    integers, [uint16]-counted sequences, strings padded to a 16-bit
    word boundary. *)

type 'a t

exception Decode_error of string
(** Raised by {!decode} on malformed input. *)

val encode : 'a t -> 'a -> bytes
val decode : 'a t -> bytes -> 'a

val write : 'a t -> Buf.writer -> 'a -> unit
val read : 'a t -> Buf.reader -> 'a

(** {1 Predefined types} *)

val unit : unit t
val bool : bool t
val uint8 : int t
val uint16 : int t
val int32 : int32 t
val int64 : int64 t
val int : int t
(** OCaml int carried as a 64-bit two's-complement value. *)

val float64 : float t
val string : string t
val bytes : bytes t

(** {1 Constructed types} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val option : 'a t -> 'a option t
val list : 'a t -> 'a list t
val array : 'a t -> 'a array t
val result : 'a t -> 'e t -> ('a, 'e) result t

val enum : (string * int) list -> string t
(** Courier enumeration: symbolic names carried as their declared
    16-bit values.  Decoding an undeclared value raises
    {!Decode_error}. *)

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [map of_wire to_wire c] transports a codec along an isomorphism —
    the record/variant adapter. *)

val variant : tag:('a -> int) -> cases:(int * (Buf.writer -> 'a -> unit) * (Buf.reader -> 'a)) list -> 'a t
(** Discriminated union: a [uint16] tag selects the case. *)

val custom : write:(Buf.writer -> 'a -> unit) -> read:(Buf.reader -> 'a) -> 'a t
(** A user-supplied externalization procedure: "there will always be
    data structures for which the programmer can do a better job of
    externalizing than the stub compiler" (§7.2). *)

val fix : ('a t -> 'a t) -> 'a t
(** Codec for recursive types, for the hand-written externalizers of
    {!custom}: the stub compiler rejects recursive Courier types
    (§7.1.4), so a recursive data structure needs the programmer's own
    externalization (§7.2). *)
