(** The return messages an endpoint has delivered.

    An exact set of (peer, call number) pairs, each with the segment
    count of its message.  It answers a late duplicate of a delivered
    return — a retransmission with the please-ack bit — with the ack it
    would have got from the return's own record, so the endpoint need
    not keep one table slot per return it has ever delivered.

    Call numbers from one endpoint only rise (§4.2), so a peer's
    delivered returns are mostly one dense stretch.  The set keeps, in
    flat {!Circus_sim.Itab}s of immediates:
    - per peer, a run: one contiguous stretch of delivered numbers;
    - 32-bit bitmap blocks, keyed by (peer, call number / 32), for the
      numbers outside the run;
    - the segment count of each member whose count is not 1.

    Reads allocate nothing. *)

type t

val create : unit -> t

val add : t -> peer:int -> cn:int -> total:int -> unit
(** [add t ~peer ~cn ~total] records that the return for call [cn]
    from [peer], [total] segments long, was delivered.  [peer] is a
    non-negative key below 2{^27}, [cn] an unsigned 32-bit call number
    not yet in the set, [total] at least 1. *)

val total : t -> peer:int -> cn:int -> int
(** The segment count of the delivered return [cn] from [peer], or 0 if
    the set does not hold it. *)

val prune : t -> horizon:(int -> int) -> unit
(** [prune t ~horizon] forgets every member [(peer, cn)] with
    [cn < horizon peer]. *)

val length : t -> int
(** The number of members. *)
