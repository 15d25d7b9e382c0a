(** The structured event recorder.

    A {e domain-local} sink receives typed events ({!Event.t}) into a
    fixed-capacity ring buffer and aggregates counters/histograms into a
    {!Metrics.t} registry.  Each OCaml domain has its own sink slot
    (the parallel engine records one trace per logical process and
    merges them deterministically at export); single-domain programs
    see the familiar "one global sink" behaviour.  While no domain has
    a loud (non-quiet) sink installed, {!on} costs one load of a
    process-wide counter: instrumentation sites must guard emission
    with [if Trace.on () then Trace.emit ...] so argument lists are
    never allocated for a disabled trace.

    Because the simulation engine is deterministic, two runs with equal
    seeds produce identical event streams — the exporters in {!Export}
    render them byte-identically, which CI uses as a regression
    oracle. *)

type sink

val on : unit -> bool
(** True iff a loud (non-quiet) sink is installed on the calling
    domain. *)

val start :
  ?capacity:int -> ?cats:string list -> ?quiet:bool -> clock:(unit -> float) -> unit -> sink
(** Install a fresh sink on the calling domain.  [clock] supplies event
    timestamps — pass the simulation clock, never wall time.
    [capacity] is the ring size in events (default 65536); on overflow
    the oldest events are overwritten and counted in {!dropped}.
    [cats] restricts recording to the named categories (filtered
    events consume neither ring space nor sequence numbers) — the
    attribution pipeline uses this to keep full causal chains inside a
    bounded ring. *)

val stop : unit -> unit
val active : unit -> sink option

val make_sink :
  ?capacity:int -> ?cats:string list -> ?quiet:bool -> clock:(unit -> float) -> unit -> sink
(** Build a sink without installing it anywhere — {!start} is
    [make_sink] + {!use}.  The parallel engine creates one per logical
    process and installs it on whichever domain runs that LP. *)

val use : sink option -> unit
(** [use s] sets the calling domain's sink slot directly — [use (Some
    s)] resumes recording into an existing sink, [use None] is
    {!stop}.  The parallel engine uses this to point each worker
    domain at its logical process's sink without creating a fresh
    one.  Every install and removal goes through [use], which keeps
    the process-wide count of loud sinks that gates {!on}. *)

(** {1 Emission} *)

val emit :
  ?phase:Event.phase ->
  ?host:int ->
  ?fiber:int ->
  ?args:(string * Event.arg) list ->
  cat:string ->
  string ->
  unit
(** Record one event.  No-op when disabled, but callers on hot paths
    should still guard with {!on} to avoid building [args]. *)

val span_begin :
  ?host:int -> ?fiber:int -> ?args:(string * Event.arg) list -> cat:string -> string -> unit

val span_end :
  ?host:int -> ?fiber:int -> ?args:(string * Event.arg) list -> cat:string -> string -> unit

val span :
  ?host:int ->
  ?fiber:int ->
  ?args:(string * Event.arg) list ->
  cat:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [span ~cat name f] brackets [f ()] with Begin/End events (marking
    the End with [raised=true] if [f] raises).  Runs [f] directly when
    tracing is off. *)

(** {1 Metrics} *)

val incr : ?by:int -> string -> unit
val observe : string -> float -> unit

(** {1 Inspection} *)

val events : unit -> Event.t list
(** Recorded events, oldest first; [[]] when no sink is installed. *)

val dropped : unit -> int

val sink_events : sink -> Event.t list
val sink_dropped : sink -> int

(** {1 Trace-based assertions}

    Protocol-level checks over the recorded stream, for tests that want
    to assert what the protocols did ("exactly one commit per troupe
    member", "no delivery after the partition") rather than only the
    end state. *)

module Expect : sig
  exception Failed of string

  val count : ?cat:string -> ?name:string -> ?where:(Event.t -> bool) -> int -> unit
  (** Exactly [n] matching events. *)

  val at_least : ?cat:string -> ?name:string -> ?where:(Event.t -> bool) -> int -> unit
  (** At least [n] matching events, for tests that only need a protocol
      step to have happened (a retransmission, a drop). *)

  val none : ?cat:string -> ?name:string -> ?where:(Event.t -> bool) -> unit -> unit

  val ordered : before:(Event.t -> bool) -> after:(Event.t -> bool) -> unit -> unit
  (** Every [after] event must be preceded by some [before] event. *)

  val follows : before:(Event.t -> bool) -> after:(Event.t -> bool) -> unit -> unit
  (** Causal variant of {!ordered}: every [after] event must be
      preceded by a [before] event carrying the same ["req"] arg
      (request id), as {!Causal} events do.  The one checker for
      same-request precedence, e.g. no vote or collate before its
      call. *)

  val well_nested : unit -> unit
  (** Begin/End events balance per (host, fiber) scope: the oracle for
      the span nesting the Chrome exporter relies on. *)
end
