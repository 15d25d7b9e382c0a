(** The binding agent's garbage collector (§6.1).

    The information at the binding agent is itself just a cached
    version of the truth: servers crash without deregistering.  The
    janitor periodically enumerates all registered troupe members,
    probes each with the null "are you there?" call, and removes the
    bindings of members that do not respond — triggering the usual
    atomic membership-plus-ID change so surviving members and clients
    converge. *)

val spawn :
  Client.t -> ?period:float -> ?probe_timeout:float -> unit -> Circus_sim.Fiber.t
(** Run the collection loop (default every 5 s) on the client's host
    until the host dies.  Uses its own management thread.
    [probe_timeout] (default 1 s) bounds how long each sweep waits for
    its liveness probes; members still silent at the deadline are
    treated as dead. *)
