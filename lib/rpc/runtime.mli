(** The replicated procedure call run-time system (§4.3).

    One runtime per simulated process.  It owns a paired-message
    endpoint, a table of exported modules, and the client and server
    halves of the replicated call algorithms:

    - {e one-to-many} (§4.3.1): send the same call message, bearing the
      same call number, to every server troupe member and stream the
      return messages back through a collator;
    - {e many-to-one} (§4.3.2): group the call messages of a single
      replicated call by (thread ID, call number), wait for the
      expected set of client troupe members, execute the procedure
      exactly once, and return the result to every caller;
    - {e many-to-many} (§4.3.3): the composition of the two — no
      further mechanism is needed.

    Thread IDs are propagated by carrying them in every call message
    and running each server procedure in a context bearing the caller's
    thread ID (§3.4.1). *)

open Circus_net
open Circus_pairmsg

exception Remote_error of string
(** The remote procedure raised an exception; collated and re-raised
    here. *)

exception Stale_binding of Ids.Troupe_id.t
(** The destination troupe ID was rejected: the client's cached binding
    is out of date and must be refreshed (§6.2). *)

exception Bad_interface
(** No such module or procedure at the callee. *)

type server_policy =
  | Wait_all  (** wait for all available client members (Circus default) *)
  | Wait_majority  (** proceed on a majority — partition-safe (§4.3.5) *)
  | First_come of { broadcast : bool }
      (** execute on the first call message; buffer the return for the
          stragglers, or broadcast it to the whole client troupe so
          slow members find it waiting (§4.3.4) *)

type config = {
  straggler_timeout : float;
      (** proceed without client members silent this long after the
          first call message of a replicated call *)
  retention : float;  (** how long finished calls answer stragglers *)
}

type t
type ctx
(** A thread-of-control context: the current thread ID plus this
    runtime.  Every remote procedure receives one and must pass it to
    any nested calls — the "extra parameter of every remote procedure"
    of §3.4.1. *)

val create :
  Syscall.env -> Host.t -> ?port:int -> ?config:config -> ?meter:Meter.t ->
  ?pairmsg_config:Endpoint.config -> unit -> t

val host : t -> Host.t
val addr : t -> Addr.t

val thread_id : ctx -> Ids.Thread_id.t
(** The distributed thread of control this context belongs to (§3.4.1):
    every replicated call it makes carries this ID, which is how a
    server recognises the copies of one call from the client troupe's
    members. *)

val runtime : ctx -> t

val call_tag : ctx -> int64
(** Identity of the replicated call this context is executing (0 for a
    locally-minted base context).  Together with {!thread_id} it names a
    replicated call uniquely, so a server can count executions per
    (thread, tag) — the §3.4.1 exactly-once invariant checked by the
    fault harness. *)

val next_call_seq : ctx -> int64
(** Allocate the per-thread call sequence number the next call would
    carry.  Deterministic client replicas allocate identical values —
    also usable as a replica-agreed unique identifier (the ordered
    broadcast protocol names messages this way). *)

(** {1 Server side} *)

val export : t -> ?policy:server_policy -> (ctx -> proc_no:int -> bytes -> bytes) -> int
(** Register a module implementation; returns its module number.  The
    dispatch function may raise: exceptions travel back as
    {!Remote_error}. *)

val export_collated :
  t -> ?policy:server_policy -> (ctx -> proc_no:int -> expected:int -> bytes list -> bytes) -> int
(** Explicit replication at the server (§7.4, Figure 7.7): the
    procedure receives every client troupe member's arguments, in
    arrival order, instead of a single representative set — e.g. the
    temperature-averaging controller, or the [ready_to_commit]
    coordinator of the troupe commit protocol (§5.3) which must AND the
    votes of all server members. *)

val module_addr : t -> int -> Addr.module_addr

val set_export_troupe : t -> module_no:int -> Ids.Troupe_id.t option -> unit
(** Declare the troupe this exported module belongs to.  Incoming calls
    bearing a different destination troupe ID are rejected with
    [Stale_troupe] (§6.2).  [None] disables the check. *)

val set_self_troupe : t -> Ids.Troupe_id.t -> unit
(** Declare the client troupe this process belongs to; stamped on every
    outgoing call so servers can collect the replicated call. *)

val adopt_self_troupe : t -> Ids.Troupe_id.t -> unit
(** Like {!set_self_troupe} but monotonic: ignores ids not newer than
    the current one, so racing reconfiguration pushes cannot regress
    the identity. *)

val adopt_export_troupe : t -> module_no:int -> Ids.Troupe_id.t -> unit
(** Monotonic variant of {!set_export_troupe}. *)

val set_self_troupe_follows : t -> int option -> unit
(** When set, an incoming [set_troupe_id] for that module also renames
    this process's client identity: the process is a member of the
    troupe being reconfigured. *)

val set_resolver : t -> (Ids.Troupe_id.t -> Addr.t list option) -> unit
(** Install the client-troupe-ID-to-membership map — "a local cache or
    the binding agent" (§4.3.2). *)

(** {1 Client side} *)

val spawn_thread : t -> ?label:string -> (ctx -> unit) -> Circus_sim.Fiber.t
(** Start a new distributed thread of control; this process is its base
    process and mints the thread ID. *)

val spawn_thread_as : t -> thread:Ids.Thread_id.t -> ?label:string -> (ctx -> unit) -> Circus_sim.Fiber.t
(** Run under an existing logical thread ID.  Members of a client
    troupe act on behalf of the same logical thread (§4.3.2): the
    thread normally enters each member via an incoming replicated call,
    and this entry point is how a replica resumes it explicitly. *)

val call_troupe :
  ctx -> Troupe.t -> proc_no:int -> ?multicast:bool -> ?collator:Collator.t -> bytes -> bytes
(** Replicated procedure call with transparent collation (default
    {!Collator.unanimous}).  Raises {!Remote_error}, {!Stale_binding},
    {!Bad_interface}, {!Collator.Disagreement}, {!Collator.No_majority},
    or {!Collator.Troupe_failed}. *)

val call_troupe_gen :
  ctx -> Troupe.t -> proc_no:int -> ?multicast:bool -> bytes -> int * Collator.reply Seq.t
(** Explicit replication (§7.4): returns the troupe size and the lazy
    generator of replies, for application-specific collation.  The
    sequence is memoized and safe to traverse more than once. *)

val call_module : ctx -> Addr.module_addr -> proc_no:int -> bytes -> bytes
(** Conventional (unreplicated) remote procedure call to one module. *)

val call_troupe_watchdog :
  ctx -> Troupe.t -> proc_no:int -> ?multicast:bool ->
  on_inconsistency:(Collator.reply list -> unit) -> bytes -> bytes
(** The watchdog scheme (§4.3.4): computation proceeds with the first
    return message while another thread of control — the watchdog —
    waits for the remaining messages and compares them with the first.
    If any available member's message differs, [on_inconsistency] runs
    with the full reply set (typically aborting the enclosing
    transaction). *)

(** {1 Management procedures}

    Every exported interface automatically answers three reserved
    procedure numbers, the stubs the paper says a stub compiler
    generates alongside the user's procedures. *)

val reserved_null_proc : int
(** An "are you there?" probe; used by the binding agent's garbage
    collector (§6.1). *)

val reserved_get_state_proc : int
(** Externalize the module state for a joining troupe member (§6.4.1);
    answered only when a provider is installed. *)

val reserved_set_troupe_id_proc : int
(** Install a new troupe ID during reconfiguration (§6.2); carries an
    optional {!Ids.Troupe_id.t} and bypasses the stale-binding check. *)

val set_state_provider : t -> module_no:int -> (unit -> bytes) -> unit

val detached_ctx : t -> ctx
(** A fresh context for management activity (cache refresh, garbage
    collection) not tied to any application thread.  Must be used from
    a fiber on this runtime's host. *)
