(** Fixed-capacity ring buffer, overwrite-oldest on overflow. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val length : 'a t -> int

val dropped : 'a t -> int
(** Number of items overwritten since creation or the last [clear]. *)

val push : 'a t -> 'a -> unit
val clear : 'a t -> unit

val to_list : 'a t -> 'a list
