(** The troupe commit protocol (§5.3).

    When a server troupe member is ready to finish a transaction it
    calls [ready_to_commit(ok)] {e back} at the client troupe that
    initiated it — a call-back protocol that temporarily reverses the
    client and server roles.  Each client troupe member answers [true]
    only after every server troupe member has called with [true];
    otherwise [false].  Theorem 5.1: two troupe members succeed in
    committing two transactions iff they attempt to commit them in the
    same order — a divergent serialization order manifests as a
    distributed deadlock, which the coordinator's wait timeout converts
    into an abort, to be retried under binary exponential back-off.

    The protocol is {e generic} (any local concurrency control that
    serializes correctly works at each member) and {e optimistic}
    (conflict is assumed rare; Eq. 5.1 quantifies the starvation risk
    when it is not). *)

open Circus_rpc

val export_coordinator : Runtime.t -> ?timeout:float -> unit -> int
(** Export the client-side [ready_to_commit] implementation; returns
    its module number (procedure 0).  It collates the votes of all
    server troupe members and answers the conjunction; if any member's
    vote is missing when the coordinator times out (deadlock or crash),
    it answers [false]. *)

type outcome = Committed | Aborted of string

val run :
  Runtime.ctx ->
  store:Lightweight.t ->
  coordinator:Troupe.t ->
  ?backoff:Backoff.t ->
  ?max_attempts:int ->
  (Lightweight.txn -> bytes) ->
  bytes
(** Run a transaction at this troupe member under the full protocol:
    execute the body (2PL against [store]), vote, commit or abort, and
    retry aborted attempts under back-off.  Raises
    [Runtime.Remote_error] after [max_attempts] (default 8) failures.
    A body raising {!Lightweight.Deadlock} votes [false]; any other
    exception also votes [false] and is re-raised on the final
    attempt. *)
