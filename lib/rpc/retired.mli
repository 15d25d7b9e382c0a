(** The encoded returns of executed many-to-one calls, kept until their
    retention deadline so that a slow client member gets the stored
    result instead of a second execution (§4.3.4).

    The store holds no pointer to a young block: returns are copied into
    one growable byte arena, the index maps a call's key to an arena
    offset, and the expiry queue is flat [int] and [float] arrays.  So a
    minor collection promotes nothing the store retains.  When the last
    entry expires, the store drops its buffers. *)

type t

val create : unit -> t
(** An empty store; it allocates its buffers at the first {!add}. *)

val length : t -> int
(** Entries held. *)

val add : t -> key:int -> expiry:float -> bytes -> unit
(** [add t ~key ~expiry b] stores a copy of [b] under [key] until
    [expiry].  [key] must not be held already, and expiries must not
    decrease from one [add] to the next. *)

val find : t -> int -> bytes option
(** A fresh copy of the bytes stored under the key, if it is held. *)

val expire : t -> now:float -> unit
(** Drop every entry whose expiry is at or before [now]. *)

val arena_capacity : t -> int
(** Bytes in the arena buffer: [0] once the store is empty again. *)
