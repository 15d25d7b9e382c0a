open Circus_sim
module Trace = Circus_trace.Trace

type attribute_value =
  | Str of string
  | Num of float
  | Flag of bool

(* CPU accounting, in a record of floats only so the per-charge updates
   are plain unboxed stores rather than a fresh box plus a write barrier
   each (as [mutable float] fields of the mixed record [t] would be). *)
type cpu = {
  mutable busy_until : float;  (* when queued CPU work finishes *)
  mutable total : float;  (* CPU seconds charged, ever *)
}

type t = {
  id : Addr.host_id;
  name : string;
  engine : Engine.t;
  clock_offset : float;
  attributes : (string * attribute_value) list;
  mutable alive : bool;
  mutable incarnation : int;
  cpu : cpu;
  mutable fibers : Fiber.t list;
  mutable crash_hooks : (unit -> unit) list;
  (* Unlike [crash_hooks] these persist across crashes: they model the
     machine's boot script (init, rc.local) rather than volatile state,
     so a fault injector can bounce a host and have its services come
     back without the injector knowing what the host was running. *)
  mutable restart_hooks : (unit -> unit) list;
  (* Worker-fiber pool for [run_pooled]; rebuilt lazily after a crash
     (the old pool's parked workers die with the incarnation). *)
  mutable pool : pool option;
}

and pool = {
  (* Parked workers, ready to be handed a task: a stack in
     [idle.(0 .. n_idle-1)], newest on top.  Storing their parks
     directly (rather than queueing tasks through a mailbox) makes a
     dispatch one pop and one delay-0 resume event — no queue nodes, no
     watcher bookkeeping — and a park allocates nothing (the array
     grows by doubling).  Slots above [n_idle] may still name parks of
     this pool's workers; the pool dies with its incarnation. *)
  mutable idle : (unit -> unit) Fiber.park array;
  mutable n_idle : int;
  pool_incarnation : int;
}

let create engine ~id ?name ?(clock_offset = 0.0) ?(attributes = []) () =
  let name = match name with Some n -> n | None -> Printf.sprintf "host%d" id in
  { id;
    name;
    engine;
    clock_offset;
    attributes;
    alive = true;
    incarnation = 1;
    cpu = { busy_until = 0.0; total = 0.0 };
    fibers = [];
    crash_hooks = [];
    restart_hooks = [];
    pool = None }

let id t = t.id
let name t = t.name
let engine t = t.engine
let is_alive t = t.alive
let incarnation t = t.incarnation
let attributes t = t.attributes

let spawn t ?label f =
  let label = match label with Some l -> l | None -> t.name ^ "/fiber" in
  let fiber =
    Fiber.spawn t.engine ~label (fun () -> if t.alive then f ())
  in
  if t.alive then begin
    t.fibers <- fiber :: t.fibers;
    Fiber.on_terminate fiber (fun () ->
        t.fibers <- List.filter (fun f' -> Fiber.id f' <> Fiber.id fiber) t.fibers)
  end
  else Fiber.cancel fiber;
  fiber

(* Offer a parked worker to dispatchers. *)
let push_idle pool p =
  let n = pool.n_idle in
  if n = Array.length pool.idle then begin
    let idle = Array.make (max 4 (2 * n)) p in
    Array.blit pool.idle 0 idle 0 n;
    pool.idle <- idle
  end;
  pool.idle.(n) <- p;
  pool.n_idle <- n + 1

(* Run a task on a pooled worker fiber.  Observationally this is
   [spawn t ~label (fun () -> f ())]: the task starts one delay-0 engine
   event after the dispatch, exactly where a fresh fiber's first run
   would sit in the event order — but a parked worker is reused when one
   is available, skipping the effect-handler setup and termination
   bookkeeping a spawn pays on every short-lived protocol task.  Tasks
   are only handed to a parked (idle) worker; when none is idle a new
   worker is spawned, so concurrent tasks still run concurrently.
   Workers die with the incarnation (crash cancels their parked
   receive), and a task dispatched to a worker that outlived a
   crash/restart cycle is dropped, matching the cancelled-at-crash fate
   of a spawned fiber. *)
let run_pooled t ?(label = "pool.worker") f =
  if t.alive then begin
    let pool =
      match t.pool with
      | Some p when p.pool_incarnation = t.incarnation -> p
      | Some _ | None ->
        let p = { idle = [||]; n_idle = 0; pool_incarnation = t.incarnation } in
        t.pool <- Some p;
        p
    in
    if pool.n_idle > 0 then begin
      pool.n_idle <- pool.n_idle - 1;
      (* Resumes the parked worker one delay-0 event from now — the
         same slot a fresh fiber's first run would occupy. *)
      Fiber.unpark pool.idle.(pool.n_idle) f
    end
    else begin
      let worker () =
        (* A worker waits between tasks on one reusable park, which a
           dispatcher unparks with the task: a wait allocates only its
           continuation.  Idle workers wait long, so anything built per
           wait would be promoted.  [arm] offers the park to
           dispatchers; it needs the park, hence [self]. *)
        let self = ref None in
        let park =
          Fiber.park_create
            ~arm:(fun () -> match !self with Some p -> push_idle pool p | None -> ())
            ~poll:(fun () -> None)
            ~on_abort:ignore
        in
        self := Some park;
        let rec loop task =
          (* A task dispatched just before a crash still resumes its
             worker (the wake was already in flight); the guard drops
             it, matching the cancelled-at-crash fate of a spawned
             fiber. *)
          if t.alive && t.incarnation = pool.pool_incarnation then task ();
          if t.alive && t.incarnation = pool.pool_incarnation then loop (Fiber.park park)
        in
        loop f
      in
      ignore (spawn t ~label worker)
    end
  end

let crash t =
  if t.alive then begin
    if Trace.on () then
      Trace.emit ~cat:"host" ~host:t.id
        ~args:[ ("name", Circus_trace.Event.Str t.name) ]
        "crash";
    t.alive <- false;
    let fibers = t.fibers in
    t.fibers <- [];
    List.iter Fiber.cancel fibers;
    let hooks = t.crash_hooks in
    t.crash_hooks <- [];
    List.iter (fun hook -> hook ()) hooks
  end

let restart t =
  if not t.alive then begin
    if Trace.on () then
      Trace.emit ~cat:"host" ~host:t.id
        ~args:[ ("incarnation", Circus_trace.Event.Int (t.incarnation + 1)) ]
        "restart";
    t.alive <- true;
    t.incarnation <- t.incarnation + 1;
    t.cpu.busy_until <- Engine.now t.engine;
    (* Boot scripts run oldest-first so services restart in the order
       they were originally registered. *)
    List.iter (fun hook -> hook ()) (List.rev t.restart_hooks)
  end

let on_crash t hook = if t.alive then t.crash_hooks <- hook :: t.crash_hooks
let on_restart t hook = t.restart_hooks <- hook :: t.restart_hooks

let gettimeofday t = Engine.now t.engine +. t.clock_offset

(* The accounting half of [use_cpu]: refuse charges on a crashed host
   (fail-stop — a dead machine burns no CPU, meters nothing, traces
   nothing), queue behind earlier CPU work, bump the busy horizon and
   totals, emit the trace slice at the *current* instant, and charge the
   meter.  Returns the duration [cpu.busy_until - now] the caller must
   now advance the clock through. *)
let[@inline] charge_account t meter kind cost =
  if not t.alive then invalid_arg (Printf.sprintf "Host.use_cpu: host %s is crashed" t.name);
  if cost < 0.0 then invalid_arg "Host.use_cpu: negative cost";
  let now = Engine.now t.engine in
  let cpu = t.cpu in
  let start = if cpu.busy_until > now then cpu.busy_until else now in
  cpu.busy_until <- start +. cost;
  cpu.total <- cpu.total +. cost;
  (* Syscall enter/exit with its metered cost: rendered as a complete
     slice ([ph:"X"]) on this host's track.  [queued] records how long
     the call waited behind earlier CPU work. *)
  if Trace.on () then begin
    match kind with
    | `User ->
      Trace.incr "cpu.user_calls";
      Trace.observe "cpu.user" cost
    | `Kernel sc ->
      Trace.emit ~cat:"syscall" ~host:t.id
        ~phase:(Circus_trace.Event.Complete cost)
        ~args:
          [ ("cost", Circus_trace.Event.Float cost);
            ("queued", Circus_trace.Event.Float (start -. now)) ]
        (Meter.syscall_name sc);
      let key = Meter.syscall_key sc in
      Trace.incr key;
      Trace.observe key cost
  end;
  (match meter with
  | None -> ()
  | Some m -> (
    match kind with
    | `User -> Meter.charge_user m cost
    | `Kernel sc -> Meter.charge_kernel m sc cost));
  cpu.busy_until -. now

let use_cpu t ?meter ~kind cost =
  let fiber = Fiber.running t.engine in
  (Fiber.nap fiber).Fiber.nap_s <- charge_account t meter kind cost;
  Fiber.sleep_busy fiber

let cpu_time t = t.cpu.total
