(** Conservative parallel discrete-event simulation across OCaml 5
    domains.

    The world is sharded into K logical processes ({!Lp.t}), each a
    complete sequential {!Engine.t}.  Execution proceeds in windows
    [\[W, W + L)] where [L] is the {e lookahead} — a caller-guaranteed
    lower bound on cross-LP message latency — so LPs run windows
    concurrently and exchange messages only at barriers.

    {b Determinism.}  K belongs to the workload; [domains] only maps
    LPs onto domains (LP [i] always runs on domain [i mod d]).  The
    window schedule, per-LP event order, and barrier drain order never
    observe the domain count, so equal seeds produce byte-identical
    traces for any [domains] value.  [K = 1] short-circuits to a plain
    {!Engine.run} on the calling domain — byte-identical to the
    sequential engine.  See DESIGN.md "Parallel simulation" for the
    ordering argument. *)

type t

val create : ?seed:int -> lps:int -> lookahead:float -> unit -> t
(** [create ~lps:k ~lookahead ()] builds [k] logical processes.  Each
    LP's PRNG is [Prng.stream root ~index:id] and seeds its engine, so
    every LP is a pure function of [(seed, id)].  [lookahead] must be
    positive: the caller guarantees no cross-LP message arrives less
    than [lookahead] after it was sent (for the network layer, the
    minimum propagation delay).  The [k * k] SPSC channels start small
    and grow to what a window posts. *)

val lp : t -> int -> Lp.t
val engine : t -> int -> Engine.t
val prng : t -> int -> Prng.t

val now : t -> float
(** Maximum clock across LPs (they agree at barriers). *)

val executed : t -> int
(** Total events executed across LPs, cumulative over runs. *)

val post : t -> src:int -> dst:int -> at:float -> (unit -> unit) -> unit
(** [post t ~src ~dst ~at f] sends a cross-LP message: [f] is
    scheduled on LP [dst]'s engine at absolute time [at], at the next
    barrier.  Must be called from LP [src]'s domain (the channels are
    single-producer).  Raises [Invalid_argument] if [src = dst]
    (schedule locally instead) or if [at] precedes the current
    window's barrier — a lookahead violation, meaning the receiver may
    already have run past [at]. *)

val run : ?until:float -> ?max_events:int -> ?domains:int -> t -> unit
(** Run all LPs to quiescence (or through [until], inclusive, like
    {!Engine.run}) using [domains] domains (default 1; clamped to
    [lp_count]).  The calling domain coordinates and runs its own
    share of LPs; [domains - 1] workers are spawned per call and
    joined before returning.  Barriers block on condition variables —
    never spin — so oversubscribed machines degrade gracefully.  An
    exception on any LP shuts the team down and is re-raised here.

    [max_events] (default 50 million) is {!Engine.run}'s runaway guard,
    checked at each barrier: [run] raises [Invalid_argument] only if an
    event is still due after [max_events] have run.  Each LP's window
    keeps {!Engine.run_window}'s own default guard.  With [K = 1] it is
    exactly {!Engine.run}'s.

    During a multi-LP run the calling domain's trace sink is swapped
    for the per-LP sinks (or [None] without {!enable_tracing}) and
    restored on return: a process-wide sink would be a cross-domain
    data race. *)

(** {1 Tracing}

    One sink per LP, merged deterministically at export. *)

val enable_tracing : ?capacity:int -> ?cats:string list -> ?quiet:bool -> t -> unit
(** Give every LP its own trace sink, driven by its engine clock.
    During rounds each domain records into the sink of the LP it is
    running; use {!merged_events} for the combined stream.  [cats]
    restricts recording to the named categories (see
    {!Circus_trace.Trace.make_sink}). *)

val with_lp : t -> int -> (unit -> 'a) -> 'a
(** [with_lp t i f] runs [f] with LP [i]'s sink installed on the
    calling domain (restoring the previous sink afterwards) — for
    setup code that schedules onto LP [i] before {!run} and wants its
    trace events attributed to that LP. *)

val merged_events : t -> Circus_trace.Event.t list
(** All LPs' events merged into one stream ordered by
    (time, lp-id, per-LP seq) with [seq] renumbered — a pure function
    of the per-LP traces, hence identical at any domain count. *)

val merged_dropped : t -> int
(** Total ring-overflow drops across LP sinks. *)
