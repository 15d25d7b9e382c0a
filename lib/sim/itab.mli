(** Flat open-addressing hash table keyed by non-negative integers.

    Used by the protocol stack for per-call state keyed by small
    composites (peer address, message type, call number) packed into a
    single int.  Unlike a generic [Hashtbl] over a key tuple, the
    steady-state find/replace/remove path allocates nothing.  The
    table retains exactly its live values: [remove] and an overwriting
    [replace] drop the table's reference to the old value at once.

    Keys must be non-negative; [-1] and [-2] are reserved as the empty
    and tombstone markers.  Operations raise [Invalid_argument] on a
    negative key. *)

type 'a t

val create : ?initial:int -> unit -> 'a t
(** [create ()] is an empty table. [initial] is a capacity hint
    (rounded up to a power of two, minimum 8). *)

val length : 'a t -> int
val mem : 'a t -> int -> bool
val find_opt : 'a t -> int -> 'a option

val find_or : 'a t -> int -> 'a -> 'a
(** [find_or t key default] is the value bound to [key], or [default]
    if there is none.  Unlike {!find_opt} it allocates nothing. *)

val replace : 'a t -> int -> 'a -> unit
(** Insert or overwrite the binding for a key. *)

val remove : 'a t -> int -> unit
(** Remove the binding if present; no-op otherwise.  The slot keeps no
    reference to the removed value. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Iterate over live bindings in unspecified order.  The callback must
    not add bindings; removing the visited binding is allowed. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over live bindings in the order {!iter} visits them. *)

(** {2 Slots}

    Closure-free scans for hot paths: a loop over [0 .. slots t - 1]
    visits the bindings in {!iter}'s order.  Removing the binding of
    the slot being visited is allowed; adding bindings is not. *)

val slots : 'a t -> int
(** The number of slots (the capacity). *)

val slot_key : 'a t -> int -> int
(** The key in a slot, or a negative number if it holds no binding. *)

val slot_value : 'a t -> int -> 'a
(** The value in a slot whose {!slot_key} is non-negative. *)
