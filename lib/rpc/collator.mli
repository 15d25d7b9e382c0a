(** Collators: reducing the set of return messages of a replicated call
    to a single result (§4.3.6, §7.4).

    A collator consumes a lazy generator of replies — computation can
    proceed as soon as enough messages have arrived for the collator to
    decide — together with the troupe size, so that voting collators
    can tell a missing vote from a pending one.  A member that crashed
    or was partitioned away yields a reply with no message. *)

open Circus_net

type reply = { from : Addr.module_addr; message : Rpc_msg.return_msg option }

type t = total:int -> reply Seq.t -> Rpc_msg.return_msg

exception Disagreement
(** Raised by {!unanimous}: the return messages were not identical. *)

exception No_majority
(** Raised by {!majority}: no message owned more than half the votes. *)

exception Troupe_failed
(** Every member crashed; no message at all arrived. *)

val unanimous : t
(** Wait for all (available) messages and require them to be identical
    — error detection as well as correction (Figure 7.8).  The default
    in Circus. *)

val first_come : t
(** Accept the first message to arrive; no error detection
    (Figure 7.9). *)

val majority : t
(** Accept a message carried by more than half the troupe
    (Figure 7.10).  Crashed members count against the majority. *)

val quorum : int -> t
(** [quorum k] accepts a message as soon as [k] identical copies have
    arrived — the building block for weighted-voting-style schemes
    (§4.3.6). *)

val weighted_quorum : weights:(Addr.module_addr * int) list -> threshold:int -> t
(** Gifford-style weighted voting (§4.3.6): each member carries a vote
    weight (default 1 when unlisted); a message is accepted once the
    weights of its identical copies reach [threshold], and refused with
    {!No_majority} as soon as no message can still reach it. *)
