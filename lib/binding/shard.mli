(** Partitioned binding front end.

    One {!Client} per Ringmaster partition, behind the single-client
    API: every name-keyed operation routes to the partition that owns
    the name ({!Ringmaster.partition_of_name}), and the installed
    troupe-id resolver routes each id to the partition that minted it.
    Cross-partition binds need no extra protocol — a name lives in
    exactly one partition for its whole life, every client computes the
    same owner from the name's bytes alone, and troupe ids are
    partition-tagged, so no operation ever spans two partitions. *)

open Circus_net
open Circus_rpc

type t

val create : Runtime.t -> ringmasters:Troupe.t array -> t
(** [ringmasters.(p)] must be partition [p]'s bootstrap troupe (id
    [1 + p], see {!Ringmaster.bootstrap_troupe}).  Installs the
    partition-routing resolver on the runtime, replacing the ones the
    per-partition clients installed.  Raises [Invalid_argument] on an
    empty or misnumbered array. *)

val client : t -> int -> Client.t
(** The underlying per-partition client. *)

val member_resolver : Troupe.t array -> Ids.Troupe_id.t -> Addr.t list option
(** A static resolver for runtimes that are only ever *called* (service
    members): resolves the registry partitions' own reserved ids — all
    a member needs to group the Ringmaster's one-to-many
    [set_troupe_id] pushes — and nothing else.  Install with
    {!Runtime.set_resolver}. *)

(** {!Client} operations, routed by name hash. *)

val call :
  t -> Runtime.ctx -> service:string -> proc_no:int ->
  ?multicast:bool -> ?collator:Collator.t -> ?retries:int -> bytes -> bytes

val register : t -> Runtime.ctx -> name:string -> Troupe.t -> Ids.Troupe_id.t
