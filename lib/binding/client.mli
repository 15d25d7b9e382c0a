(** Binding-agent client with cached lookups (§6.1, §6.2).

    Clients amortize the cost of interactions with the binding agent by
    caching import results, which raises the cache invalidation
    problem.  With replication the stale cases are the four possible
    intersections of the cached member set and the true one; the
    dangerous ones (calling some but not all true members) are defused
    by troupe IDs acting as incarnation numbers — servers reject
    mismatched destination IDs, the client sees {!Runtime.Stale_binding}
    and rebinds (§6.2).

    {!call} packages the whole masking loop: import from cache, call,
    and on any invalid-binding symptom refresh the binding and retry. *)

open Circus_net
open Circus_rpc

type t

val create : Runtime.t -> ringmaster:Troupe.t -> t
(** Also installs this cache as the runtime's troupe-ID resolver: the
    server half of the RPC runtime maps client troupe IDs to
    memberships through it, falling back to a [lookup_troupe_by_id]
    call at the Ringmaster on a miss (§4.3.2).

    Binding calls are gated: identical in-flight questions (same name,
    or same id) are single-flight — one Ringmaster call whose answer
    every concurrent asker shares — and distinct questions pass
    through a gate of one permit, one Ringmaster question at a time.
    Without the gate, a cold cache or a reconfiguration noticed by a
    whole worker pool at once turns every caller into a concurrent
    Ringmaster client; at scenario scale that dogpile queues the
    binding hosts past the paired-message retransmit interval and the
    storm feeds itself. *)

val runtime : t -> Runtime.t

exception Unknown_service of string

val import : t -> Runtime.ctx -> string -> Troupe.t
(** Cached [lookup_troupe_by_name]; raises {!Unknown_service}.

    Binding reads (lookup, rebind, enumerate, id resolution) are asked
    of a single Ringmaster member, round-robin, with a replicated-call
    fallback on failure: a binding is only a hint (§6.1) — staleness
    is masked by troupe-id rejection plus {!rebind} — and single-member
    reads divide the registry's per-read CPU by its replication
    factor, letting binding read capacity scale with partitions.
    Writes remain full replicated calls. *)

val warm : t -> Runtime.ctx -> unit
(** Seed the name and id caches with the registry's entire current
    listing — one [enumerate] call instead of one lookup per name, so
    a fleet of front ends can warm their caches without mounting a
    cold-start lookup storm.  Names registered after the snapshot fall
    back to on-demand lookups. *)

val rebind : t -> Runtime.ctx -> string -> Troupe.t
(** Drop the cached binding and fetch the current one with the
    Ringmaster's [rebind] procedure. *)

val invalidate : t -> string -> unit

val cached : t -> (string * Troupe.t) list
(** The name cache's bindings, sorted by name.  Every client on a
    domain keeps one copy of equal names, troupes and member lists:
    each cached value passes through a per-domain weak intern set. *)

val call :
  t -> Runtime.ctx -> service:string -> proc_no:int ->
  ?multicast:bool -> ?collator:Collator.t -> ?retries:int -> bytes -> bytes
(** Replicated call by service name with automatic rebinding: on
    {!Runtime.Stale_binding}, {!Circus_pairmsg.Endpoint.Rejected},
    {!Circus_pairmsg.Endpoint.Crashed} or {!Collator.Troupe_failed} the
    binding is refreshed and the call retried (default 3 retries).
    [multicast] rides the paired-message layer's batched one-to-many
    transmission — one [sendmsg] per segment instead of one per member
    — which roughly halves the caller's CPU cost for replicated
    calls. *)

val register : t -> Runtime.ctx -> name:string -> Troupe.t -> Ids.Troupe_id.t
val remove_member : t -> Runtime.ctx -> name:string -> Addr.module_addr -> Troupe.t option
val enumerate : t -> Runtime.ctx -> (string * Troupe.t) list

val export_service : t -> Runtime.ctx -> name:string -> module_no:int -> Troupe.t
(** A server exports a module (§6.3): add this runtime's module to the
    named troupe (creating it if absent), adopt the new troupe ID for
    both the export and the runtime's client identity, and return the
    resulting troupe. *)

val resolve : t -> Ids.Troupe_id.t -> Addr.t list option
(** The resolver {!create} installs: this client's Ringmaster troupe
    resolves degenerately, cached ids from the [by_id] cache, anything
    else via a [lookup_troupe_by_id] call ([None] if that fails).
    Exposed so a partitioned front end ({!Shard}) can route ids to the
    partition that minted them. *)
