module Trace = Circus_trace.Trace

exception Cancelled

type state =
  | Running
  | Suspended of (exn -> unit)  (* schedules a discontinue of the stored continuation *)
  | Terminated

(* A float-only record is laid out flat, so storing a sleep's duration
   into it is a plain unboxed store: no box, no write barrier.  It is
   the engine's, so a sleep hands it to [Engine.sleep] as is. *)
type nap = Engine.nap = { mutable nap_s : float }

type t = {
  id : int;
  engine_ : Engine.t;
  label_ : string;
  mutable state : state;
  mutable cancel_requested : bool;
  mutable terminate_callbacks : (unit -> unit) list;
  (* Consecutive sleeps served by [Engine.sleep] without a real
     suspension.  Capped so a fiber sleeping in a tight loop still
     yields to the engine periodically and remains subject to the
     [run ~max_events] runaway guard. *)
  mutable ff_streak : int;
  (* Ambient causal context ([Circus_trace.Causal.ctx]): which request
     this fiber is currently working on behalf of.  Per-fiber rather
     than domain-local so it survives parks/resumes untouched. *)
  mutable ctx : int;
  (* [Fiber self], built once at spawn: [enter] and [transfer] store it
     into the running slot on every resume instead of building it each
     time. *)
  as_running : Engine.running;
  (* The continuation of the pending [Sleep], or [unset ()] once an
     abort has taken it.  The only pointer a sleep stores (see the
     [Sleep] handler). *)
  mutable sleep_k : (unit, unit) Effect.Deep.continuation;
  (* The duration of the current sleep, written by [sleep] or a CPU
     charge; what is left of it when the sleep performs the
     payload-free [Sleep]. *)
  nap : nap;
  (* [fun () -> cancel_requested], built once: every sleep hands it to
     [Engine.sleep]. *)
  cancelled : unit -> bool;
  (* The fiber's own payload-free park ([own_park]), or [unset ()]
     until its first use, and the abort work of its current parking
     ([park_own]). *)
  mutable own : unit park;
  mutable own_abort : unit -> unit;
}

(* A suspension point one fiber parks on again and again (see [park]).
   Everything but the continuation is built once: [fired] makes every
   wake but the first a no-op, [parked] is the fiber's [Suspended]
   state, [resume] is the engine timer that an [unpark] or a [kick]
   re-arms as its resume event ([polling] tells the two apart), [eff]
   the performed effect and [on_park] its handler.  Per parking only
   the continuation is stored, into [k], where it stays while the fiber
   stays parked; an [unpark]'s value waits in [v] for its resume
   event. *)
and 'a park = {
  owner : t;
  arm : unit -> unit;
  poll : unit -> 'a option;
  on_abort : unit -> unit;
  mutable k : ('a, unit) Effect.Deep.continuation;
  (* Set by the first of [unpark], [unpark_exn], [kick] and an abort,
     cleared when the fiber parks again: later wakes of the same
     parking are no-ops. *)
  mutable fired : bool;
  mutable v : 'a;
  parked : state;
  (* Idle whenever the fiber parks: its last arming ran the fiber
     before it could park again. *)
  mutable resume : Engine.handle;
  mutable polling : bool;
  eff : 'a Effect.t;
  on_park : (('a, unit) Effect.Deep.continuation -> unit) option;
}

(* The empty value of [sleep_k], of [own] and of a park's [k] and [v]:
   an immediate, compared by identity, never continued or returned. *)
let unset () = Obj.magic 0

type _ Effect.t +=
  | Park : 'a park -> 'a Effect.t
  | Sleep : unit Effect.t

type Engine.running += Fiber of t

(* The fiber currently executing lives in the domain's running slot
   ([Engine.running_slot]), which every site that transfers control onto
   a fiber stack maintains ([match_with] at spawn, [continue]/
   [discontinue] at resume): set before the transfer, restored after it
   returns.  Restoring (rather than clearing) keeps the value correct
   under busy sleeps ([Engine.sleep]), where fiber B is resumed
   by an event executing on fiber A's stack, and under a nested
   [Engine.run] of another engine inside a fiber.  Those sites, and
   every caller that knows its engine ([running]), reach the slot
   through the engine, which keeps its domain's slot at hand
   ([Engine.slot]): a switch is a load, a load and two stores, with no
   domain-local lookup.  Outside a fiber the slot holds
   [Engine.Idle], and [self] and [running] raise.

   Domain-local, not global: the parallel engine runs one logical
   process per domain, and each domain has its own executing fiber. *)
let[@inline] enter fiber f =
  let slot = Engine.slot fiber.engine_ in
  let prev = !slot in
  slot := fiber.as_running;
  f ();
  slot := prev

(* The running fiber's record is the natural home of the ambient
   causal context (it must ride across parks and resumes), but
   [Causal] lives below the simulator in the dependency order — so
   register accessors over the per-fiber slot.  Outside a fiber there
   is no context: a read is [none] and a write is dropped.  (Only
   [Causal.reset] writes there, and nothing reads there.) *)
let () =
  Circus_trace.Causal.register_ambient
    ~get:(fun () ->
      match !(Engine.running_slot ()) with
      | Fiber f -> f.ctx
      | _ -> Circus_trace.Causal.none)
    ~set:(fun c -> match !(Engine.running_slot ()) with Fiber f -> f.ctx <- c | _ -> ())

let no_cleanup () = ()

let uncaught fiber e =
  Printf.eprintf "fiber %d (%s): uncaught exception\n%!" fiber.id fiber.label_;
  raise e

let finish fiber =
  if Trace.on () then Trace.emit ~cat:"fiber" ~fiber:fiber.id "end";
  fiber.state <- Terminated;
  let callbacks = List.rev fiber.terminate_callbacks in
  fiber.terminate_callbacks <- [];
  List.iter (fun f -> f ()) callbacks

(* The head of every resume: the fiber is running again, and the
   trace says whether it resumes with a value or an exception. *)
let resumed fiber ok =
  fiber.state <- Running;
  if Trace.on () then
    Trace.emit ~cat:"fiber" ~fiber:fiber.id ~args:[ ("ok", Circus_trace.Event.Bool ok) ] "resume"

(* Continue [k] on [fiber] with [r]: [enter] with its body written in
   place, because without flambda [enter fiber (fun () -> ...)]
   allocates that closure on every resume. *)
let transfer fiber k r =
  let slot = Engine.slot fiber.engine_ in
  let prev = !slot in
  slot := fiber.as_running;
  (match r with Ok v -> Effect.Deep.continue k v | Error e -> Effect.Deep.discontinue k e);
  slot := prev

(* [transfer] of [Ok v], without the [Ok] block. *)
let transfer_ok fiber k v =
  let slot = Engine.slot fiber.engine_ in
  let prev = !slot in
  slot := fiber.as_running;
  Effect.Deep.continue k v;
  slot := prev

(* The resume event's body of a sleep, of an abort and of [unpark_exn]. *)
let resume fiber k r =
  resumed fiber (Result.is_ok r);
  transfer fiber k r

(* [suspended] is a [Suspended] state: the sleep timer's and a park's
   are built once, so blocking on them allocates nothing. *)
let[@inline] block fiber suspended =
  if Trace.on () then Trace.emit ~cat:"fiber" ~fiber:fiber.id "block";
  fiber.state <- suspended

let park_k p = if p.k == unset () then invalid_arg "Fiber.park: not parked" else p.k

(* End the parking by raising [e] at it, in a resume event of its own. *)
let raise_parked p e =
  p.fired <- true;
  let k = park_k p in
  ignore (Engine.schedule p.owner.engine_ ~delay:0.0 (fun () -> resume p.owner k (Error e)))

(* Abandon the parking: unhook now, in the aborter's context — a
   [cancel w; signal c] pair inside one engine event must not find the
   doomed waiter still registered — and discontinue in a resume event. *)
let abort_parked p e =
  p.fired <- true;
  p.on_abort ();
  raise_parked p e

(* Park (again): a fiber whose cancellation is pending aborts at once,
   without blocking or arming; any other blocks, then arms. *)
let repark p =
  if p.owner.cancel_requested then abort_parked p Cancelled
  else begin
    p.fired <- false;
    block p.owner p.parked;
    p.arm ()
  end

(* The resume slot of a [kick]: the event a resume would have used, but
   the fiber is continued only when the poll yields a value.  Otherwise
   it parks again from here, with the same trace events and the same
   engine calls, in the same order, as a fiber that resumed, found
   nothing and parked anew. *)
let poll_slot p =
  resumed p.owner true;
  match p.poll () with
  | Some v -> transfer_ok p.owner (park_k p) v
  | None -> repark p

(* The resume event of an [unpark]. *)
let unpark_slot p =
  let v = p.v in
  p.v <- unset ();
  resumed p.owner true;
  transfer_ok p.owner (park_k p) v

(* The sleep timer's abort, what a sleeping fiber's [Suspended] holds:
   disarm the timer and discontinue in a resume event, once — a second
   [cancel] before that event runs finds the continuation gone. *)
let abort_sleep fiber timer e =
  let k = fiber.sleep_k in
  if k != unset () then begin
    fiber.sleep_k <- unset ();
    Engine.cancel timer;
    ignore (Engine.schedule fiber.engine_ ~delay:0.0 (fun () -> resume fiber k (Error e)))
  end

let spawn engine ?(label = "fiber") f =
  let id = Engine.next_fiber_id engine in
  let rec fiber =
    { id;
      engine_ = engine;
      label_ = label;
      state = Running;
      cancel_requested = false;
      terminate_callbacks = [];
      ff_streak = 0;
      ctx = 0;
      as_running = Fiber fiber;
      sleep_k = unset ();
      nap = { nap_s = 0.0 };
      cancelled = (fun () -> fiber.cancel_requested);
      own = unset ();
      own_abort = no_cleanup }
  in
  (* Built once per fiber, so a sleep allocates no event, closure, ref,
     option or state: the timer's expiry resumes whatever continuation
     the current sleep stored. *)
  let sleep_timer = Engine.timer engine (fun () -> resume fiber fiber.sleep_k (Ok ())) in
  let asleep = Suspended (abort_sleep fiber sleep_timer) in
  (* Timer-only suspension on the fiber's own timer: the expiry runs in
     the engine loop and transfers control straight back to the fiber —
     one event instead of a timer that unparks a park and the park's
     resume event.  Per sleep only the continuation is stored,
     into the long-lived fiber record: the effect carries no payload
     (the duration waits in [nap]), this handler, [asleep] and the timer
     are built once, and a re-armed timer is already in the major heap,
     so the sleep makes no young pointer other than [k] for the write
     barrier to remember.  Cancellation still goes through a scheduled
     discontinue so the canceller's stack is never nested into ours. *)
  let on_sleep =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        if fiber.cancel_requested then
          ignore (Engine.schedule engine ~delay:0.0 (fun () -> resume fiber k (Error Cancelled)))
        else begin
          fiber.sleep_k <- k;
          block fiber asleep;
          Engine.rearm engine sleep_timer ~delay:fiber.nap.nap_s
        end)
  in
  let handler : (unit, unit) Effect.Deep.handler =
    { retc = (fun () -> finish fiber);
      exnc =
        (fun e ->
          finish fiber;
          match e with Cancelled -> () | e -> uncaught fiber e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Sleep -> on_sleep
          | Park p -> p.on_park
          | _ -> None)
    }
  in
  if Trace.on () then
    Trace.emit ~cat:"fiber" ~fiber:fiber.id
      ~args:[ ("label", Circus_trace.Event.Str label) ]
      "spawn";
  ignore
    (Engine.schedule engine ~delay:0.0 (fun () ->
         if fiber.cancel_requested then finish fiber
         else enter fiber (fun () -> Effect.Deep.match_with f () handler)));
  fiber

let self () =
  match !(Engine.running_slot ()) with
  | Fiber f -> f
  | _ -> invalid_arg "Fiber.self: not in a fiber"

let running engine =
  match !(Engine.slot engine) with
  | Fiber f -> f
  | _ -> invalid_arg "Fiber.running: not in a fiber"

let id t = t.id

let park_of owner ~arm ~poll ~on_abort =
  let rec p =
    { owner;
      arm;
      poll;
      on_abort;
      k = unset ();
      fired = true;
      v = unset ();
      parked = Suspended (fun e -> if not p.fired then abort_parked p e);
      resume = Engine.timer owner.engine_ ignore;
      polling = false;
      eff = Park p;
      on_park =
        Some
          (fun k ->
            p.k <- k;
            repark p) }
  in
  p.resume <- Engine.timer owner.engine_ (fun () -> if p.polling then poll_slot p else unpark_slot p);
  p

let park_create ~arm ~poll ~on_abort = park_of (self ()) ~arm ~poll ~on_abort

let park p =
  if p.owner != running p.owner.engine_ then invalid_arg "Fiber.park: not the park's fiber";
  Effect.perform p.eff

(* Built on first use, so only fibers that wait this way pay for it;
   it is the one young value ever stored into [own]. *)
let own_park fiber =
  if fiber.own == unset () then
    fiber.own <-
      park_of fiber ~arm:ignore
        ~poll:(fun () -> None)
        ~on_abort:(fun () -> fiber.own_abort ());
  fiber.own

(* [on_abort] is kept in the (old) fiber record: a closure built once
   with a long-lived object costs no remembered-set entry there, where a
   per-wait closure would, and it is stored only when it changes, since
   every store into an old record goes through the write barrier.  A
   stale one is harmless: it is only run when a later parking on the
   own park is aborted, and [park] parkings that need none pass
   [no_cleanup] through [park_own] or run it against state (a mailbox's
   linked waiters) that holds nothing of theirs. *)
let park_own p ~on_abort =
  let fiber = p.owner in
  if fiber.own_abort != on_abort then fiber.own_abort <- on_abort;
  park p

let is_parked p = not p.fired

let timeout fiber duration f =
  if fiber.cancel_requested then None else Some (Engine.schedule fiber.engine_ ~delay:duration f)

let unpark p v =
  if not p.fired then begin
    p.fired <- true;
    p.v <- v;
    p.polling <- false;
    Engine.rearm p.owner.engine_ p.resume ~delay:0.0
  end

let unpark_exn p e = if not p.fired then raise_parked p e

let kick p =
  if not p.fired then begin
    p.fired <- true;
    p.polling <- true;
    Engine.rearm p.owner.engine_ p.resume ~delay:0.0
  end

let ff_streak_cap = 1024

(* The most events one busy sleep runs on the sleeper's stack: a stack
   safeguard, past which the sleeper suspends. *)
let drain_budget = 256

(* Every sleep, of the duration in the fiber's [nap]: [Engine.sleep]
   jumps the clock to the deadline when nothing else is due before it,
   observationally identical to the schedule-and-wake of a suspension
   minus the suspend/resume event pair, after running up to [budget]
   due events on this stack.  Otherwise the fiber suspends on its timer
   for what is left of the duration, which [Engine.sleep] leaves in
   [nap], so the wake still lands on the original target.  A plain
   sleep drains nothing (budget 0); a charge's busy sleep drains.  A
   cancellation request or a long streak of fast sleeps goes straight
   to the suspending path, which is where cancellation is raised and
   engine accounting happens. *)
let[@inline] sleep_for fiber ~budget =
  if
    fiber.nap.nap_s > 0.0
    && (not fiber.cancel_requested)
    && fiber.ff_streak < ff_streak_cap
    && Engine.sleep fiber.engine_ fiber.nap ~budget ~cancelled:fiber.cancelled
  then fiber.ff_streak <- fiber.ff_streak + 1
  else begin
    fiber.ff_streak <- 0;
    Effect.perform Sleep
  end

let sleep duration =
  let fiber = self () in
  fiber.nap.nap_s <- duration;
  sleep_for fiber ~budget:0

let nap fiber = fiber.nap
let sleep_busy fiber = sleep_for fiber ~budget:drain_budget

let cancel fiber =
  match fiber.state with
  | Terminated -> ()
  | Running -> fiber.cancel_requested <- true
  | Suspended discontinue ->
    fiber.cancel_requested <- true;
    discontinue Cancelled

let is_terminated fiber = match fiber.state with Terminated -> true | Running | Suspended _ -> false

let on_terminate fiber f =
  if is_terminated fiber then f ()
  else fiber.terminate_callbacks <- f :: fiber.terminate_callbacks
