(** The troupe configuration manager (§7.5.3).

    A programming-in-the-large tool that owns the mapping from a troupe
    specification to running members.  Instantiation and repair are
    both instances of the troupe extension problem: find an assignment
    of distinct machines satisfying the specification as close as
    possible to the current membership, then start replacement members
    on the newly chosen machines.

    The manager is policy only: the caller supplies the universe of
    machines (typically the live hosts of the network) and a factory
    that actually starts a member on a machine (module instantiation —
    the paper delegates this to remote-execution utilities). *)

open Circus_net

type t

val create :
  spec:Ast.spec ->
  universe:(unit -> Solver.machine list) ->
  start_member:(Addr.host_id -> unit) ->
  unit ->
  t

val instantiate : t -> (Addr.host_id list, string) result
(** Solve the specification against the current universe and start a
    member on every chosen machine.  [Error] if unsatisfiable. *)

val repair : t -> current:Addr.host_id list -> (Addr.host_id list, string) result
(** The troupe extension problem: given the hosts of the surviving
    members, find the minimal-change satisfying assignment and start
    members on the machines that are newly chosen.  Returns the new
    host set; [Error] if no satisfying extension exists. *)

val watch :
  t ->
  Host.t ->
  current_members:(unit -> Addr.host_id list option) ->
  ?period:float ->
  unit ->
  Circus_sim.Fiber.t
(** Spawn a repair loop on the given host: every [period] (default 3 s)
    read the current membership (e.g. from the binding agent; [None]
    means not yet registered) and {!repair} whenever it has fewer
    members than the specification requires. *)
