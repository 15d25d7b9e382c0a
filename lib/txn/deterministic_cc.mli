(** Deterministic local concurrency control (§5.4).

    The starvation-free scheme requires each troupe member to serialize
    transactions as a well-defined function of their arrival order.
    The simplest deterministic algorithm is serial execution in
    chronological order; combined with the ordered broadcast protocol
    (which makes "arrival order" identical at every member) it keeps
    all troupe members' serialization orders identical without any
    inter-member communication. *)

type t

val create : Circus_net.Host.t -> t

val submit : t -> (unit -> unit) -> unit
(** Enqueue a unit of work; the executor fiber runs submissions
    strictly in submission order, one at a time. *)

val executed : t -> int
