module Trace = Circus_trace.Trace

type event = Event_heap.event = {
  mutable seq : int;
  mutable run : unit -> unit;
  mutable live : bool;
  cell : Event_heap.cell;
}

type handle = event

(* FIFO ring buffer for events due at the current instant.

   The overwhelmingly common scheduling pattern is [schedule ~delay:0.0]
   — every fiber spawn, wake, yield, and mailbox hand-off.  Those
   events bypass the O(log n) heap entirely.

   Ordering argument (see DESIGN.md "Simulator performance"): an event
   enters the ring only when its (clamped) time equals the current
   clock [now].  The clock never advances while the ring is non-empty
   (the engine always executes the globally minimal (time, seq) event,
   and a ring event's time is <= any future heap event's time), so all
   ring entries share time = now, and because [seq] increases
   monotonically across all scheduling, FIFO order within the ring IS
   (time, seq) order.  A single head-to-head comparison against the
   heap minimum at dispatch time then reproduces exactly the total
   (time, seq) execution order of the old heap-only engine.  Since every
   entry is due at [now], the ring stores no times at all. *)
module Ready = struct
  type t = {
    mutable buf : event array;  (* capacity is a power of two *)
    mutable head : int;
    mutable count : int;
  }

  let create () = { buf = Array.make 64 Event_heap.sentinel; head = 0; count = 0 }
  let length q = q.count

  let grow q =
    let cap = Array.length q.buf in
    let buf' = Array.make (2 * cap) Event_heap.sentinel in
    for i = 0 to q.count - 1 do
      buf'.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- buf';
    q.head <- 0

  let push q ev =
    if q.count = Array.length q.buf then grow q;
    q.buf.((q.head + q.count) land (Array.length q.buf - 1)) <- ev;
    q.count <- q.count + 1

  (* Both require [count > 0]; the engine checks. *)
  let peek q = q.buf.(q.head)

  let pop q =
    let ev = q.buf.(q.head) in
    q.buf.(q.head) <- Event_heap.sentinel;
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.count <- q.count - 1;
    ev
end

(* The hot mutable floats, in a record of floats only: OCaml lays such
   a record out flat, so a clock write is a plain unboxed store — no
   fresh box per advance and no write barrier, which a [mutable float]
   field of the mixed record [t] would cost. *)
type clock = {
  mutable now : float;
  (* Upper bound for [try_advance]: a [run ~until] horizon the clock
     must not silently jump past.  Infinity outside such a run. *)
  mutable horizon : float;
  (* Innermost active [sleep_drain] deadline.  While a fiber is inline-
     draining, no nested advance (jump or drain) may move the clock past
     this point: the outer sleeper must wake exactly at its target,
     before any later event.  Infinity when no drain is active. *)
  mutable drain_limit : float;
}

(* Who is running on a domain, as the fiber layer defines it: [Fiber]
   adds a constructor for its fibers, built once per fiber.  One slot
   per domain, in DLS; each engine keeps its domain's slot at hand (see
   [slot]) so a fiber switch stores into it without a DLS lookup. *)
type running = ..
type running += Idle

let running_key : running ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Idle)
let running_slot () = Domain.DLS.get running_key

(* A duration in a record of floats only (laid out flat), so a charge
   hands it to [sleep_drain] without boxing it. *)
type nap = { mutable nap_s : float }

type t = {
  clock : clock;
  (* The running slot of the domain this engine last started a run on.
     Events execute only inside a run ([run_counted], [run_window], and
     drains nested in them), and every run refreshes it on entry, so
     while any of this engine's events executes it is the executing
     domain's slot. *)
  mutable slot : running ref;
  mutable seq : int;
  mutable next_fiber : int;
  heap : Event_heap.t;  (* future events: time > enqueue-instant *)
  ready : Ready.t;  (* events due now, FIFO = (time, seq) order *)
  cell : Event_heap.cell;  (* cancelled-but-queued count *)
  root_prng : Prng.t;
}

let create ?(seed = 42) () =
  { clock = { now = 0.0; horizon = infinity; drain_limit = infinity };
    slot = running_slot ();
    seq = 0;
    next_fiber = 0;
    heap = Event_heap.create ();
    ready = Ready.create ();
    cell = { Event_heap.cancelled_pending = 0 };
    root_prng = Prng.create seed }

let[@inline] now t = t.clock.now
let[@inline] slot t = t.slot
let prng t = t.root_prng

(* Fiber identifiers are allocated per engine, not per process, so two
   simulations with equal seeds in one process still number their
   fibers — and hence their traces — identically. *)
let next_fiber_id t =
  t.next_fiber <- t.next_fiber + 1;
  t.next_fiber

(* Install a global trace sink driven by this engine's clock.  The
   clock closure is the only coupling: the recorder itself knows
   nothing about the engine, and with no sink installed the per-event
   overhead below is a single boolean load. *)
let enable_tracing ?capacity t = Trace.start ?capacity ~clock:(fun () -> t.clock.now) ()

(* Mass [Fiber.cancel] can leave the heap dominated by dead events
   (e.g. thousands of abandoned timeout guards with far-future
   deadlines).  When cancelled events outnumber live ones — beyond a
   floor that keeps small heaps alone — sweep them out in O(n).
   Correctness: compaction only removes events that could never have
   executed, and cannot reorder survivors (total (time, seq) order;
   see Event_heap).  The check is two loads and a compare, cheap
   enough for the schedule path. *)
let[@inline] maybe_compact t =
  let c = t.cell.Event_heap.cancelled_pending in
  if c > 64 && c * 2 > Event_heap.length t.heap + Ready.length t.ready then begin
    let removed = Event_heap.compact t.heap in
    t.cell.Event_heap.cancelled_pending <- c - removed
  end

(* Queue [ev], which is not queued and carries the next seq.  An event
   is due now exactly when its clamped time equals the clock, i.e. when
   [at <= now]; otherwise, when [at > now], its time is [at] itself.
   Only NaN fails both tests: in the heap it would compare neither
   before nor after anything, breaking the time order, so it is
   rejected, with nothing queued and no seq taken — on the heap path
   only, so the ring path gains no compare. *)
let[@inline] queue t ~at ev =
  if at <= t.clock.now then Ready.push t.ready ev
  else if at > t.clock.now then begin
    maybe_compact t;
    Event_heap.push t.heap ~time:at ev
  end
  else invalid_arg "Engine.schedule: event time is NaN";
  t.seq <- ev.seq + 1

let[@inline] enqueue t ~at f =
  let ev = { seq = t.seq; run = f; live = true; cell = t.cell } in
  queue t ~at ev;
  ev

let schedule_abs t ~at f = enqueue t ~at f

let[@inline] clamp delay = if delay < 0.0 then 0.0 else delay
let schedule t ~delay f = enqueue t ~at:(t.clock.now +. clamp delay) f

(* What a cancelled event runs instead of its closure.  A cancelled
   event may sit in the heap until its time comes (or a compaction), and
   must not keep what its closure captured alive that long: a pairmsg
   watchdog holds its whole exchange for the 0.5 s probe interval. *)
let cancelled () = ()

(* A reusable timer: an unqueued event built once, queued again by
   [rearm] each time it has fired, so a fiber's sleeps or a server's
   idle expiries allocate no event. *)
let timer t f = { seq = -1; run = f; live = false; cell = t.cell }

(* [live] is set only once the event is queued: a NaN time raises in
   [queue] and leaves the timer unqueued. *)
let rearm t ev ~delay =
  if ev.live then invalid_arg "Engine.rearm: timer still queued";
  if ev.run == cancelled then invalid_arg "Engine.rearm: timer cancelled";
  if ev.cell != t.cell then invalid_arg "Engine.rearm: timer of another engine";
  ev.seq <- t.seq;
  queue t ~at:(t.clock.now +. clamp delay) ev;
  ev.live <- true

(* [live] is cleared both here and when the event fires, so cancelling
   a spent handle is a true no-op: it must not count an event that is
   no longer queued, or the stale count would keep [maybe_compact]
   rebuilding the heap on every push — and it must not drop the closure
   of a fired timer its owner may still re-arm. *)
let cancel ev =
  if ev.live then begin
    ev.live <- false;
    ev.run <- cancelled;
    ev.cell.Event_heap.cancelled_pending <- ev.cell.Event_heap.cancelled_pending + 1
  end

let[@inline] note_dropped t = t.cell.Event_heap.cancelled_pending <- t.cell.Event_heap.cancelled_pending - 1

(* Whether the heap minimum precedes the ring head (ring non-empty).
   Ring entries are due at [now], so this is the (time, seq) compare of
   the heap top against (now, head seq). *)
let[@inline] heap_first t =
  let ht = Event_heap.top_time t.heap in
  let now = t.clock.now in
  ht < now || (ht = now && Event_heap.top_seq t.heap < (Ready.peek t.ready).seq)

(* Run a live event that has just left its queue. *)
let[@inline] exec ev =
  ev.live <- false;
  if Trace.on () then Trace.incr "engine.events";
  ev.run ()

(* Execute the globally minimal (time, seq) event across ring and heap.
   Cancelled events are dropped without advancing the clock; a ring
   event runs at [now], so only a heap event moves the clock. *)
let rec step t =
  if Ready.length t.ready > 0 && not (heap_first t) then fire t (Ready.pop t.ready)
  else if Event_heap.is_empty t.heap then false
  else begin
    let time = Event_heap.top_time t.heap in
    let ev = Event_heap.pop_exn t.heap in
    if ev.live then t.clock.now <- time;
    fire t ev
  end

and fire t ev =
  if not ev.live then begin
    note_dropped t;
    step t
  end
  else begin
    exec ev;
    true
  end

(* Drop cancelled events sitting at the front of either queue so the
   horizon check below only ever looks at a live event. *)
let rec drop_cancelled t =
  if Ready.length t.ready > 0 && not (Ready.peek t.ready).live then begin
    ignore (Ready.pop t.ready);
    note_dropped t;
    drop_cancelled t
  end
  else if (not (Event_heap.is_empty t.heap)) && not (Event_heap.top_exn t.heap).live then begin
    ignore (Event_heap.pop_exn t.heap);
    note_dropped t;
    drop_cancelled t
  end

(* Time of the next event after [drop_cancelled]: ring entries are due
   at [now], at or before anything in the heap. *)
let[@inline] head_time t =
  if Ready.length t.ready > 0 then t.clock.now else Event_heap.top_time t.heap

(* Advance the clock to [target = now + delay] without executing
   anything, provided doing so is observationally equivalent to
   scheduling a wake event at [target] and draining the queue up to it:
   nothing is due at the current instant and every queued event lies
   strictly beyond [target] (an event at exactly [target] was scheduled
   earlier, so it would have run before the hypothetical wake).  This
   is the [Fiber.sleep] fast path: a lone sleeper — the overwhelmingly
   common shape under [Host.use_cpu] — skips the
   suspend/schedule/resume machinery entirely.  Refused beyond a
   [run ~until] horizon so bounded runs still stop at their boundary.
   The caller passes the delay, not the target, so a build without
   cross-module inlining boxes no computed float for the call; a build
   with it inlines this into [Fiber.sleep_busy], whose delay then stays
   unboxed from the CPU charge that computed it. *)
let[@inline] try_advance t ~delay =
  let clock = t.clock in
  let target = clock.now +. delay in
  target <= clock.horizon
  && target <= clock.drain_limit
  && begin
       drop_cancelled t;
       Ready.length t.ready = 0
       && (Event_heap.is_empty t.heap || Event_heap.top_time t.heap > target)
       && begin
            if target > clock.now then clock.now <- target;
            true
          end
     end

(* Inline-drain variant of the sleep fast path, for the CPU-charge
   pattern ([Host.use_cpu]): advance the clock to [target], [now] plus
   the duration in [nap], executing every due event on the sleeper's
   stack instead of suspending around them.  An event is due when the
   ring is non-empty (then the global minimum is due, whatever its seq:
   ring events sit at [now], at or before [target]), or when the heap
   top precedes the wake the slow path would have scheduled, (time,
   seq) strictly below [(target, seq at entry)].  Executing due events
   here is what the engine loop would have done while the sleeper was
   parked, and the sleeper then wakes at [target] by jumping the clock,
   where its wake event would have fired.  With nothing due it is the
   plain clock jump of [try_advance].

   The ring rule is the quirk pinned by [test_sim]'s "busy sleep order"
   case: a delay-0 event that an event due at exactly [target]
   schedules has a seq past the entry seq, so a suspending sleep's wake
   would run before it, yet it sits in the ring and is drained first.
   Stopping the drain at [(target, seq at entry)] would fix that but
   move schedules, so it waits for a change that re-pins them.

   Each pass decides one event: it takes the (time, seq) minimum of the
   ring head and the heap top once, stops if that is not due, drops it
   if it was cancelled, and otherwise runs it.  A cancelled minimum
   cannot change the outcome (every live event lies at or after it).
   [cancelled] is polled after each event that ran: the caller checked
   it before the call, and only an event can change it.

   Nesting: a drained event may resume another fiber that charges CPU
   and drains in turn.  [drain_limit] (the innermost active target)
   caps every nested advance, so an inner sleeper can never move the
   clock past an outer sleeper's wake point: an inner sleep reaching
   further than the outer target falls back to a real suspension.
   Depth is bounded by the number of simultaneously-charging fibers.
   [drain_budget] bounds the number of events drained per call as a
   stack safeguard; on exhaustion the caller falls back to suspending.

   Returns [false], with the clock moved only by drained events and the
   rest of the sleep ([target] minus the clock, at least 0) stored back
   into [nap], if the caller must suspend instead: the budget ran out,
   the target overshoots a horizon or an outer drain, or the fiber was
   cancelled by a drained event (the suspending path is where
   cancellation raises). *)
let drain_budget = 256

let sleep_drain t nap ~cancelled =
  let clock = t.clock in
  let target = clock.now +. nap.nap_s in
  let woke =
    target <= clock.horizon
    && target <= clock.drain_limit
    && begin
         let seq_limit = t.seq in
         let saved = clock.drain_limit in
         clock.drain_limit <- target;
         let budget = ref drain_budget in
         (* 0: draining, 1: woke at [target], 2: must suspend. *)
         let outcome = ref 0 in
         while !outcome = 0 do
           let queued = Ready.length t.ready in
           let time = Event_heap.top_time t.heap in
           (* [heap_first], on the time already read. *)
           let from_ring =
             queued > 0
             && not
                  (time < clock.now
                  || (time = clock.now && Event_heap.top_seq t.heap < (Ready.peek t.ready).seq))
           in
           (* While the ring is non-empty the minimum is due, whichever
              queue holds it. *)
           if
             queued > 0
             || time < target
             || (time = target && Event_heap.top_seq t.heap < seq_limit)
           then begin
             let ev = if from_ring then Ready.peek t.ready else Event_heap.top_exn t.heap in
             if ev.live && !budget = 0 then outcome := 2
             else begin
               ignore (if from_ring then Ready.pop t.ready else Event_heap.pop_exn t.heap);
               if not ev.live then note_dropped t
               else begin
                 decr budget;
                 if not from_ring then clock.now <- time;
                 exec ev;
                 if cancelled () then outcome := 2
               end
             end
           end
           else begin
             if target > clock.now then clock.now <- target;
             outcome := 1
           end
         done;
         clock.drain_limit <- saved;
         !outcome = 1
       end
  in
  if not woke then begin
    let remaining = target -. clock.now in
    nap.nap_s <- (if remaining > 0.0 then remaining else 0.0)
  end;
  woke

let run_counted ?until ?(max_events = 50_000_000) t =
  t.slot <- running_slot ();
  let executed = ref 0 in
  let continue_run = ref true in
  (match until with
  | None ->
    (* No horizon: tight loop, no per-event peeking. *)
    while !continue_run && !executed < max_events do
      if step t then incr executed else continue_run := false
    done
  | Some horizon ->
    t.clock.horizon <- horizon;
    while !continue_run && !executed < max_events do
      drop_cancelled t;
      if Ready.length t.ready = 0 && Event_heap.is_empty t.heap then continue_run := false
      else if head_time t > horizon then begin
        (* A horizon behind the clock leaves it where it is. *)
        if horizon > t.clock.now then t.clock.now <- horizon;
        continue_run := false
      end
      else begin
        ignore (step t);
        incr executed
      end
    done;
    t.clock.horizon <- infinity);
  if !executed >= max_events then
    invalid_arg "Engine.run: max_events exceeded (runaway simulation?)";
  !executed

let run ?until ?max_events t = ignore (run_counted ?until ?max_events t)

let next_time t =
  drop_cancelled t;
  head_time t

(* The parallel engine's per-window drain.  Identical to [run ~until]
   except that the bound is *exclusive*: an event at exactly [limit]
   belongs to the next window (its instant is the synchronization
   barrier, where cross-LP arrivals due at [limit] are still being
   injected and must obtain their sequence numbers before anything at
   that instant executes in engine order).  The clock is left exactly
   at [limit] so every logical process agrees on the window boundary
   regardless of where its last event fell.  Returns the number of
   events executed, which the coordinator sums into the scaling
   numbers.

   Each queued event is decided once: the loop takes the (time, seq)
   minimum of the two queue heads, stops if its time reaches [limit],
   and otherwise pops it and either runs it or, if it was cancelled,
   drops it.  A cancelled head cannot change the outcome: every live
   event lies at or after it, so stopping at it stops exactly where the
   first live event would, and dropping it leaves the live events'
   order alone. *)
let run_window ?(max_events = 50_000_000) t ~limit =
  let clock = t.clock in
  t.slot <- running_slot ();
  let executed = ref 0 in
  let continue_run = ref true in
  clock.horizon <- limit;
  while !continue_run && !executed < max_events do
    if Ready.length t.ready > 0 && not (heap_first t) then begin
      if clock.now >= limit then continue_run := false
      else begin
        let ev = Ready.pop t.ready in
        if ev.live then begin
          exec ev;
          incr executed
        end
        else note_dropped t
      end
    end
    else begin
      (* [top_time] is [infinity] on an empty heap. *)
      let time = Event_heap.top_time t.heap in
      if time >= limit then begin
        if limit > clock.now then clock.now <- limit;
        continue_run := false
      end
      else begin
        let ev = Event_heap.pop_exn t.heap in
        if ev.live then begin
          clock.now <- time;
          exec ev;
          incr executed
        end
        else note_dropped t
      end
    end
  done;
  clock.horizon <- infinity;
  if !executed >= max_events then
    invalid_arg "Engine.run_window: max_events exceeded (runaway simulation?)";
  !executed

(* [run_window] on an engine with nothing due before [limit]: all it
   would do is set the clock. *)
let skip_window t ~limit = if limit > t.clock.now then t.clock.now <- limit

let cancelled_pending t = t.cell.Event_heap.cancelled_pending
let pending t = Event_heap.length t.heap + Ready.length t.ready
