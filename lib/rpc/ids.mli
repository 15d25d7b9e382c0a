(** Thread and troupe identifiers.

    A thread ID names one logical thread of control in a distributed
    program; it is minted where the base process lives (machine ID plus
    local process ID, §3.4.1) and propagated on every call so that a
    server can recognize the call messages of a single replicated call
    (§4.3.2).

    A troupe ID permanently and uniquely names a troupe in the
    internet; it is assigned by the binding agent and doubles as an
    incarnation number for cache invalidation (§6.2). *)

module Thread_id : sig
  type t = { origin : Circus_net.Addr.host_id; pid : int }

  val equal : t -> t -> bool
end

module Troupe_id : sig
  type t = int64

  val none : t
  (** The id carried by an unreplicated, unregistered client: the
      server expects exactly one call message. *)

  val equal : t -> t -> bool
  val codec : t Circus_wire.Codec.t

  val generator : seed:int -> unit -> t
  (** [generator ~seed] is a fresh-id source for a binding agent:
      calling the result repeatedly yields distinct ids.  Deterministic
      replicas of the binding agent seeded identically mint identical
      sequences. *)
end
