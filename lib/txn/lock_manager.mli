(** Two-phase locking with deadlock detection (§2.3.1).

    Read locks are shared, write locks exclusive; a transaction holds
    every lock it acquires until it commits or aborts (strict 2PL),
    which guarantees serializability.  A request that would close a
    cycle in the waits-for relation is refused with [`Deadlock] instead
    of blocking — the caller aborts and retries. *)

type t
type mode = Read | Write

val create : Circus_sim.Engine.t -> t

val acquire : t -> txn:int -> key:string -> mode -> [ `Granted | `Deadlock ]
(** Block until the lock is granted (re-entrant; upgrades Read to Write
    when the holder is alone).  Returns [`Deadlock] — without acquiring
    — if waiting would deadlock.  Must run in a fiber. *)

val release_all : t -> txn:int -> unit
(** End of transaction: release every lock held, waking waiters. *)

val holders : t -> key:string -> (int * mode) list
