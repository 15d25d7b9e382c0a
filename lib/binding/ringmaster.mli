(** The Ringmaster binding agent (§6.3).

    A dedicated name server that lets programs import and export
    troupes by name.  It manipulates troupes (sets of module
    addresses), assigns permanently unique troupe IDs, and is itself a
    troupe whose procedures are invoked via replicated procedure calls.

    Since the Ringmaster cannot be used to import itself, it is bound
    by a degenerate mechanism: a well-known port on a configured set of
    machines (§6.3).

    [add_troupe_member] implements Figure 6.2: the membership change
    and the troupe ID change happen together, and the new ID is pushed
    to every member with the generated [set_troupe_id] procedure, so a
    client can never successfully call some but not all members of a
    reconfigured troupe (§6.2). *)

open Circus_net
open Circus_rpc

(** {2 Name-hash partitioning}

    One replicated registry troupe serializes every bind in the
    system.  To scale binding with the deployment, the namespace can be
    split into [P] independent partitions, each a full replicated
    Ringmaster running the unchanged protocol — a name's partition is a
    pure function of its bytes (FNV-1a mod [P]), so every client
    routes each name to the same partition without any cross-partition
    coordination, and a registry member rejects misrouted names.
    Partition 0 with [partitions = 1] is exactly the legacy
    single-troupe Ringmaster. *)

val partition_troupe_id : int -> Ids.Troupe_id.t
(** The reserved troupe ID ([1 + p]) under which partition [p]'s
    members identify themselves; partition 0's ID 1 is the
    single-partition Ringmaster's. *)

val partition_of_name : partitions:int -> string -> int
(** Which partition owns [name], in [[0, partitions)]: the FNV-1a
    (64-bit) hash of its bytes modulo [partitions] — a fixed function
    so all parties agree, unlike [Hashtbl.hash]. *)

val partition_of_id : Ids.Troupe_id.t -> int
(** The partition that minted an assigned troupe id (recovered from the
    generator seed in the id's high 32 bits).  Meaningless for the
    reserved ids [1..P] themselves. *)

val bootstrap_troupe : ?partition:int -> hosts:Addr.host_id list -> unit -> Troupe.t
(** The degenerate binding for a Ringmaster partition itself (default
    partition 0): module 0 at the well-known port on each configured
    machine. *)

val start_member :
  ?partition:int ->
  ?partitions:int ->
  ?pairmsg_config:Circus_pairmsg.Endpoint.config ->
  Syscall.env ->
  Host.t ->
  Runtime.t
(** Run a Ringmaster member of [partition] (default 0 of 1) on this
    host.  All members of one partition started across a simulation
    mint the same deterministic sequence of troupe IDs, as replicas of
    one deterministic module must; distinct partitions mint from
    disjoint id spaces. *)

(** Procedure numbers of the binding interface (Figure 6.1):
    [register_troupe : (name, troupe) -> troupe_id],
    [add_troupe_member : (name, module_addr) -> troupe],
    [lookup_troupe_by_name : name -> troupe option],
    [lookup_troupe_by_id : troupe_id -> troupe option],
    [remove_troupe_member : (name, module_addr) -> troupe option],
    [enumerate : () -> (name * troupe) list],
    [rebind : (name, old_id) -> troupe option] (§6.1). *)

val proc_register_troupe : int
val proc_add_troupe_member : int
val proc_lookup_by_name : int
val proc_lookup_by_id : int
val proc_remove_troupe_member : int
val proc_enumerate : int
val proc_rebind : int

(** Wire formats shared with {!Client}. *)

val register_args : (string * Troupe.t) Circus_wire.Codec.t
val member_args : (string * Addr.module_addr) Circus_wire.Codec.t
val troupe_opt : Troupe.t option Circus_wire.Codec.t
val listing : (string * Troupe.t) list Circus_wire.Codec.t
val rebind_args : (string * Ids.Troupe_id.t) Circus_wire.Codec.t
