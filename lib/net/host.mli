(** Simulated fail-stop machine (§2.1.1, §3.5.1).

    A host runs fibers, has a serially-occupied CPU with user/kernel
    cost accounting, a local clock with bounded skew, and an attribute
    list used by the troupe configuration language (§7.5.2).  Hosts
    crash (all fibers are killed, volatile state is lost) and may later
    be restarted with a new incarnation number — the fail-stop model. *)

type t

type attribute_value =
  | Str of string
  | Num of float
  | Flag of bool

val create :
  Circus_sim.Engine.t ->
  id:Addr.host_id ->
  ?name:string ->
  ?clock_offset:float ->
  ?attributes:(string * attribute_value) list ->
  unit ->
  t

val id : t -> Addr.host_id
val name : t -> string
val engine : t -> Circus_sim.Engine.t
val is_alive : t -> bool
val incarnation : t -> int

val attributes : t -> (string * attribute_value) list

val spawn : t -> ?label:string -> (unit -> unit) -> Circus_sim.Fiber.t
(** Spawn a fiber on this host; it is cancelled if the host crashes.
    Spawning on a dead host returns a fiber that never runs. *)

val run_pooled : t -> ?label:string -> (unit -> unit) -> unit
(** Run a task on a pooled worker fiber.  Equivalent to
    [ignore (spawn t ~label f)] — the task starts one delay-0 engine
    event after the dispatch, at exactly the position a fresh fiber's
    first run would occupy — but idle workers are reused, skipping the
    per-spawn effect-handler setup on hot protocol paths.  Tasks
    dispatched on a dead host, or delivered to a worker from a previous
    incarnation, are dropped, matching a spawned fiber's
    cancelled-at-crash behaviour.  [label] names the worker fiber if a
    fresh one must be spawned. *)

val crash : t -> unit
(** Fail-stop: kill all fibers, run crash hooks, mark dead. *)

val restart : t -> unit
(** Bring a crashed host back with a fresh incarnation.  Volatile state
    (fibers, anything the crash hooks cleared) is gone. *)

val on_crash : t -> (unit -> unit) -> unit
(** Register a hook run when the host crashes (e.g. to close its
    network ports). *)

val on_restart : t -> (unit -> unit) -> unit
(** Register a persistent "boot script" run every time the host is
    {!restart}ed (after [is_alive] is true and the incarnation has been
    bumped).  Unlike {!on_crash} hooks these survive crashes — they
    model what the machine does on boot, letting a fault injector bounce
    a host without knowing what services it was running.  Hooks run
    oldest-first.  A restarted fail-stop host (§2.2) comes back as a new
    incarnation with no state; the chaos tests use this hook to
    re-export its troupe member. *)

val gettimeofday : t -> float
(** Local clock: engine time plus this host's constant offset.  The
    synchronized-clocks assumption of §5.4 holds when offsets are
    bounded. *)

val use_cpu : t -> ?meter:Meter.t -> kind:[ `User | `Kernel of Meter.syscall ] -> float -> unit
(** Occupy this host's CPU for the given number of seconds, queueing
    behind other CPU users, and charge the optional meter.  Must run in
    a fiber.  Raises [Invalid_argument] if the host is crashed: a
    fail-stop machine burns no CPU, meters nothing, and traces nothing
    (callers racing a crash must check {!is_alive}, as
    {!run_pooled} does). *)

val cpu_time : t -> float
(** Total CPU seconds consumed on this host since creation: the
    per-host CPU time behind Table 4.1's measurements, read by the
    tests that check what a call or a crashed member was charged. *)
