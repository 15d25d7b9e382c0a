(** Replicated lightweight transactions (§5.2).

    Troupes mask partial failures, so transactions for replicated
    distributed programs need atomicity and serializability but not
    permanence: no stable storage, no intention lists — the whole
    mechanism lives in volatile memory.  Each troupe member runs its
    own manager over a local two-phase-locking {!Lock_manager}.

    A transaction's tentative updates are undone on abort via an undo
    log.  Savepoints provide the subtransaction-abort half of nested
    transactions for a single thread of control (full Moss-style
    nesting is future work in the paper as well, §8.2). *)

type t
(** A transaction manager: one per module instance (troupe member). *)

type txn

exception Deadlock
(** Raised by {!get}/{!set} when waiting would close a waits-for cycle;
    the caller should {!abort} and retry. *)

exception Txn_aborted

val create : Circus_sim.Engine.t -> t

val begin_txn : t -> txn
val txn_id : txn -> int

val get : t -> txn -> string -> bytes option
(** Read a key under a read lock. *)

val set : t -> txn -> string -> bytes option -> unit
(** Write ([None] deletes) under a write lock, logging the undo. *)

val commit : t -> txn -> unit
(** Make updates permanent-in-memory and release all locks. *)

val abort : t -> txn -> unit
(** Undo all tentative updates and release all locks. *)

type savepoint

val savepoint : t -> txn -> savepoint
(** Mark the undo log for a later {!rollback_to} (§5.2's nested
    transactions, single-threaded). *)

val rollback_to : t -> txn -> savepoint -> unit
(** Undo updates made since the savepoint (subtransaction abort);
    locks acquired since are retained, as in Moss's algorithm where
    they revert to the parent. *)

val read_committed : t -> string -> bytes option
(** Read outside any transaction (used for state transfer only when
    quiescent, §6.4.1). *)

val snapshot : t -> (string * bytes) list
(** The committed state, sorted by key — the [get_state] externalized
    form (§6.4.1). *)

val load : t -> (string * bytes) list -> unit
(** Replace the committed state (a new member internalizing a
    snapshot). *)
