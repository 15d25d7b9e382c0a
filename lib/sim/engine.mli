(** Discrete-event simulation engine.

    The engine owns the virtual clock and a pending-event queue.
    Events scheduled for the same instant fire in scheduling order
    (FIFO), which keeps simulations deterministic.

    Internally events live in two structures whose merge preserves the
    total (time, seq) execution order exactly: a structure-of-arrays
    binary heap ({!Event_heap}) for future timers, and an
    allocation-free FIFO ring for events due at the current instant —
    the [schedule ~delay:0.0] fast path taken by every fiber spawn,
    wake, yield, and mailbox hand-off.  Ring entries carry no time (all
    are due now); heap times sit unboxed in a flat float array, and the
    clock itself lives in an all-float record, so advancing time never
    boxes a float or goes through the write barrier.  Cancelled events
    are swept from the heap in bulk when they outnumber live ones, so
    mass {!Fiber.cancel} does not bloat the queue.  See DESIGN.md
    "Simulator performance" for the ordering argument and the
    benchmark suite. *)

type t

type handle
(** A scheduled event; may be cancelled before it fires. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is a fresh engine with clock at 0.  [seed]
    (default 42) seeds the root {!Prng.t}. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val prng : t -> Prng.t
(** The engine's root generator.  Components should [Prng.split] it
    rather than share it. *)

val next_fiber_id : t -> int
(** Allocate a fresh fiber identifier.  Used by {!Fiber.spawn}; ids are
    per-engine rather than per-process so that equal-seed simulations
    in one process produce identical traces. *)

val enable_tracing : ?capacity:int -> t -> Circus_trace.Trace.sink
(** Install a global {!Circus_trace.Trace} sink whose event timestamps
    come from this engine's virtual clock.  Returns the sink for later
    export.  With no sink installed, instrumentation throughout the
    simulator costs one boolean load per site. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  Negative
    delays are clamped to 0.  Raises [Invalid_argument] if the time is
    NaN (a NaN [delay]), which has no place in the (time, seq) order;
    nothing is queued then. *)

val schedule_abs : t -> at:float -> (unit -> unit) -> handle
(** [schedule_abs t ~at f] runs [f] at absolute time [at] (clamped to
    [now t]).  Raises [Invalid_argument] if [at] is NaN. *)

val cancel : handle -> unit
(** Prevent a pending event from firing.  The event drops its closure
    at once, so a cancelled event still waiting in the queue for its
    time keeps nothing alive.  A no-op if it already fired or was
    already cancelled: such a call neither runs nor counts anything, so
    spent handles may be cancelled freely. *)

val timer : t -> (unit -> unit) -> handle
(** [timer t f] is a reusable timer that runs [f] each time it fires.
    It starts unqueued; {!rearm} queues it.  Built once, it lets a
    wait that recurs (a fiber's sleeps, a server's idle expiries)
    allocate no event per arming. *)

val rearm : t -> handle -> delay:float -> unit
(** [rearm t h ~delay] queues the timer [h] of [t], fresh from {!timer}
    or fired since it was last queued, exactly as [schedule t ~delay]
    would queue a new event: it takes the same seq and goes to the same
    queue.  Raises [Invalid_argument] if [h] is still queued, was
    cancelled (its closure is gone; build a new timer), or belongs to
    another engine, and on a NaN [delay], as {!schedule} does. *)

type nap = { mutable nap_s : float }
(** A duration in a record of floats only, which OCaml lays out flat:
    storing a computed float into it allocates no box. *)

val sleep : t -> nap -> budget:int -> cancelled:(unit -> bool) -> bool
(** [sleep t nap ~budget ~cancelled] is every fiber sleep's fast path
    ({!Fiber.sleep}, {!Fiber.sleep_busy}): with [target] the clock plus
    the duration in [nap], run the events due before the sleeper's wake
    on the caller's stack, at most [budget] of them, in the engine's
    (time, seq) order, then jump the clock to [target] and return
    [true].  With nothing due it only jumps the clock.  A suspending
    sleep passes a zero budget: it jumps or suspends.

    An event is due while the ring of events at the current instant is
    non-empty (then the global minimum runs, whatever its seq), and
    otherwise when the heap's minimum lies strictly before [(target,
    seq at entry)], where a suspending sleep's wake would sit.  So a
    delay-0 event scheduled by an event due at exactly [target] runs
    before the sleeper wakes, where a suspending sleep wakes first.  A
    drained event also runs with the sleeper still in the running slot,
    so a plain callback drained here sees the sleeper in {!Fiber.self}
    (and its ambient causal context), where under a suspending sleep it
    would see no fiber.  CHANGES.md names both as FOUNDs;
    [test_sim]'s "busy sleep order" and [test_parallel]'s [running]
    group pin them as they stand.

    [target] may not pass the bound of the innermost active loop: a
    run's [until], a window's [limit], or the target of a sleep that is
    draining further up the stack.  It may equal it, so a sleep to
    exactly a window's limit wakes inside the window, before the
    barrier injects the arrivals due then, and a sleeper resumed inside
    a drain that sleeps to exactly the outer target wakes before the
    outer sleeper (two more FOUNDs, pinned by [test_parallel]'s "a
    sleep to the window's limit" and [test_sim]'s "nested busy sleep
    order").

    Returns [false] when the caller must suspend, with the events run
    so far executed, the clock short of [target], and the remaining
    duration ([target] minus the clock, at least 0) stored back into
    [nap]: [target] passes the bound, the budget ran out before a live
    due event, or [cancelled ()] turned true (cancellation is raised on
    the suspending path).  [cancelled] is polled after each event run;
    the caller checks it before the call. *)

(** {1 The running slot}

    Which fiber runs on a domain is kept in one slot per domain, read
    and written by the fiber layer.  An engine keeps its domain's slot
    at hand so that a fiber switch and a CPU charge, which know their
    engine, need no domain-local lookup. *)

type running = ..
(** What a running slot holds; {!Fiber} adds a constructor for its
    fibers. *)

type running += Idle  (** No fiber is running. *)

val running_slot : unit -> running ref
(** The calling domain's slot: one domain-local lookup. *)

val slot : t -> running ref
(** The running slot of the domain on which [t] last started a run
    ({!run}, {!run_counted} or {!run_window}, each of which refreshes
    it on entry): while any event of [t] executes, the executing
    domain's slot. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the event queue.  Stops when the queue is empty or the next
    event lies beyond [until] (inclusive).  Raises [Invalid_argument]
    if a live event is still due after [max_events] have run (default
    50 million, a runaway guard); a run that executes exactly
    [max_events] and has nothing left due returns normally.  The clock
    is left at [until] if a live event remains beyond it, and otherwise
    at the time of the last event executed; it never moves backwards,
    so an [until] behind the clock leaves it where it is. *)

val run_counted : ?until:float -> ?max_events:int -> t -> int
(** {!run}, returning the number of events executed — the parallel
    engine's per-LP accounting hook. *)

val next_time : t -> float
(** Time of the next live queued event (after discarding cancelled
    entries at the queue heads), or [infinity] when the queue is
    empty.  The parallel coordinator uses the
    minimum across logical processes to fast-forward empty windows. *)

val run_window : ?max_events:int -> t -> limit:float -> int
(** [run_window t ~limit] executes every queued event with time
    strictly below [limit], then sets the clock to exactly [limit] and
    returns the number of events executed.  [max_events] is {!run}'s
    runaway guard, per window.  The *exclusive* bound is
    the conservative-synchronization contract: an event at exactly
    [limit] waits for the barrier at that instant, where cross-LP
    arrivals due at [limit] are injected (gaining their sequence
    numbers) before anything at that time runs.  Used by
    {!Parallel.run}; sequential callers want {!run}. *)

val skip_window : t -> limit:float -> unit
(** [skip_window t ~limit] is [run_window t ~limit] for an engine whose
    {!next_time} is at or past [limit]: it only sets the clock to
    [limit] (never backwards).  The parallel coordinator uses it for a
    logical process with nothing due in a window. *)

val cancelled_pending : t -> int
(** Number of cancelled events still sitting in the queues — the count
    that decides when the heap is compacted.  Late cancels (of events
    that already fired) never raise it. *)

val pending : t -> int
(** Number of events still queued, counting cancelled events that
    have not yet been swept from the queues. *)
