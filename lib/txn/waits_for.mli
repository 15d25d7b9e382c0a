(** The waits-for graph (§2.3.1).

    [T waits for T'] holds when transaction [T] waits for a lock held
    by [T'].  A cycle is a deadlock; the lock manager queries for one
    before blocking a requester. *)

type t

val create : unit -> t
val add_edge : t -> waiter:int -> holder:int -> unit
val remove_waiter : t -> int -> unit
(** Drop all edges out of the given transaction (it stopped waiting). *)

val remove_txn : t -> int -> unit
(** Drop all edges touching the transaction (it finished). *)

val would_deadlock : t -> waiter:int -> holders:int list -> bool
(** Would adding edges [waiter -> holders] close a cycle? *)

