(** Lightweight simulated processes (fibers) over {!Engine}.

    A fiber is the simulation's analogue of the paper's thread of
    control: a sequential computation that can block on virtual time
    and on synchronization objects.  Fibers are implemented with OCaml
    effect handlers, so protocol code is written in direct style.

    A fiber blocks in one of two ways: it sleeps for a duration of
    virtual time ({!sleep}), or it parks ({!park}) until whoever ends
    the wait unparks it.  Every wait in {!Mailbox} and {!Condition} is a
    parking.  All blocking operations must be called from inside a
    fiber; calling them elsewhere raises [Invalid_argument] (or, for
    those that need no current fiber, [Effect.Unhandled]). *)

type t
(** A spawned fiber. *)

exception Cancelled
(** Raised inside a fiber that is cancelled (e.g. because its simulated
    host crashed) at its current or next suspension point. *)

val spawn : Engine.t -> ?label:string -> (unit -> unit) -> t
(** [spawn engine f] creates a fiber that starts running [f] when the
    engine next reaches the current instant.  An uncaught exception
    other than {!Cancelled} is reported on stderr with the fiber's id
    and label, then re-raised, aborting the run. *)

val self : unit -> t
(** The currently executing fiber: one domain-local lookup.  Raises
    [Invalid_argument] outside a fiber (in engine callbacks that run no
    fiber, or before {!Engine.run}). *)

val running : Engine.t -> t
(** [running engine] is {!self} for a caller that runs under [engine]:
    it reads the running slot [engine] keeps ({!Engine.slot}), with no
    domain-local lookup.  Raises [Invalid_argument] outside a fiber. *)

val id : t -> int

type nap = Engine.nap = { mutable nap_s : float }
(** A duration in a record of floats only, which OCaml lays out flat:
    storing a computed float into it allocates no box. *)

val nap : t -> nap
(** The fiber's duration slot, which {!sleep_busy} reads. *)

val sleep_busy : t -> unit
(** [sleep_busy fiber], [fiber] the current fiber, is {!sleep} of the
    duration in [nap fiber], for the CPU-charge pattern ([Host.use_cpu],
    whose computed charge thus crosses into this module unboxed): when
    other events are due before the deadline, it runs them on this
    fiber's stack ({!Engine.sleep} with a drain budget) instead of
    suspending around them.  The virtual clock and the event order
    behave as with {!sleep}, with one exception: a delay-0 event
    scheduled by an event due at exactly the deadline runs before this
    fiber wakes, where {!sleep} wakes first (see {!Engine.sleep}). *)

val sleep : float -> unit
(** Block for a duration of virtual time.  The same body as
    {!sleep_busy} with a zero drain budget: when nothing else is due
    before the deadline the clock jumps to it ({!Engine.sleep}), and
    otherwise the fiber suspends until its wake. *)

type 'a park
(** A suspension point that one fiber parks on again and again, such as
    a server's idle wait on its request queue.  Its effect, handler,
    abort function and resume closures are built once: a parking
    allocates only the continuation and what [arm] allocates, and an
    {!unpark} or a {!kick} only its resume event. *)

val park_create :
  arm:(unit -> unit) -> poll:(unit -> 'a option) -> on_abort:(unit -> unit) -> 'a park
(** [park_create ~arm ~poll ~on_abort] is a park owned by the calling
    fiber.  [arm] registers the parking where its wakers find it; it
    runs each time the fiber parks, after the ["block"] trace event.
    [poll] runs in the resume slot of a {!kick}.  [on_abort] runs when
    cancellation aborts a parking, in the canceller's event: it unhooks
    what [arm] hooked (a queued waiter, a timer). *)

val park : 'a park -> 'a
(** Block the owning fiber on the park until {!unpark} or a successful
    poll resumes it, {!unpark_exn} raises at it, or cancellation raises
    {!Cancelled}.  A fiber with a cancellation pending aborts at once,
    with no ["block"] event and no [arm].  Each resumption runs in its
    own delay-0 resume event, which emits ["resume"]. *)

val unpark : 'a park -> 'a -> unit
(** [unpark p v] resumes the parked fiber with [v].  The first of
    {!unpark}, {!unpark_exn}, {!kick} and an abort wins; the others are
    no-ops until the fiber parks again. *)

val unpark_exn : 'a park -> exn -> unit
(** [unpark_exn p e] is {!unpark}, but raises [e] at the park, as an
    abort does without its [on_abort]. *)

val own_park : t -> unit park
(** [own_park fiber], [fiber] the calling fiber (from {!running}), is
    its own park, built on its first call: no [arm] or [poll] work.
    Every wait of the fiber parks on it: the wait hooks its wake
    sources just before it parks, whoever ends the wait leaves what the
    waiter needs in the waiter's record and {!unpark}s it with [()], and
    the wait unhooks every source when it resumes or is aborted, so
    none reaches a later wait.  A parking allocates only its
    continuation. *)

val park_own : unit park -> on_abort:(unit -> unit) -> unit
(** [park_own p ~on_abort] parks on [p], the current fiber's
    {!own_park}, with [on_abort] as the parking's abort work
    ({!park_create}'s).  On the hot path, pass a closure built once (a
    long-lived object's), not one per wait.  It stays with the fiber
    until another [park_own] replaces it, so the abort of a later
    {!park} on [p] runs it too: it must do nothing outside its own
    parking. *)

val is_parked : 'a park -> bool
(** Whether the park's fiber is parked on it and nothing has woken or
    aborted the parking yet: whether an {!unpark} would resume it. *)

val timeout : t -> float -> (unit -> unit) -> Engine.handle option
(** [timeout fiber d f], [fiber] the calling fiber, is the expiry timer
    of a wait that is about to park on its {!own_park} for at most [d]:
    [f] scheduled [d] from now, or [None] when a cancellation of [fiber]
    is pending.  Such a parking aborts at once, and a timer armed for it
    would still take a seq and leave a cancelled event behind, so every
    timed wait arms its timer here, after it hooks its other wake
    sources and just before it parks. *)

val kick : 'a park -> unit
(** Schedule the delay-0 resume event that [unpark] would, but run
    [poll] in it instead of resuming.  [Some v] resumes the fiber with
    [v].  [None] parks it again without resuming it: a cancellation
    requested meanwhile aborts the parking, and otherwise the slot
    emits ["block"] and calls [arm] again.  The trace events and the
    engine calls are those of a fiber that resumed, found nothing and
    parked anew. *)

val cancel : t -> unit
(** Request cancellation: a suspended fiber is woken with {!Cancelled};
    a running one receives it at its next suspension point.  Cancelling
    a terminated fiber is a no-op.  The request stays: every later
    suspension point of the fiber raises {!Cancelled} too. *)

val on_terminate : t -> (unit -> unit) -> unit
(** Register a callback run when the fiber terminates; runs immediately
    if it already has. *)
