(** The ordered broadcast protocol (Figure 5.1).

    A two-phase protocol over replicated procedure calls that
    guarantees all recipients accept concurrent broadcasts in the same
    order, assuming synchronized clocks (§5.4; a simplification of
    Skeen's atomic broadcast — the replicated structure of troupes
    obviates sender/recipient crash recovery).

    Phase 1: the client calls [get_proposed_time] at the server troupe;
    each member inserts the message in its queue with a proposed local
    time.  Phase 2: the client calls [accept_time] with the maximum of
    the proposals; each member re-queues the message at the accepted
    time.  A member releases a message for application processing only
    when it is accepted, its time has arrived, and no earlier proposed
    message is still pending. *)

open Circus_rpc

type t

val create : Circus_net.Host.t -> deliver:(bytes -> unit) -> t
(** A server-side queue; [deliver] is invoked for each message, in
    accepted-time order — identically at every troupe member. *)

val export : Runtime.t -> t -> int
(** Export the two procedures (0 = [get_proposed_time],
    1 = [accept_time]); returns the module number. *)

val atomic_broadcast : Runtime.ctx -> Troupe.t -> bytes -> unit
(** Client side (Figure 5.1): propose at the whole troupe, collect all
    proposed times with an explicit-replication generator, and accept
    at the maximum. *)
