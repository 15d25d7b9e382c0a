module Trace = Circus_trace.Trace

type event = Event_heap.event = {
  time : float;
  seq : int;
  run : unit -> unit;
  mutable cancelled : bool;
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
   (time, seq) execution order of the old heap-only engine. *)
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

type t = {
  mutable now : float;
  mutable seq : int;
  mutable next_fiber : int;
  heap : Event_heap.t;  (* future events: time > enqueue-instant *)
  ready : Ready.t;  (* events due now, FIFO = (time, seq) order *)
  cell : Event_heap.cell;  (* cancelled-but-queued count *)
  root_prng : Prng.t;
  (* Upper bound for [try_advance]: a [run ~until] horizon the clock
     must not silently jump past.  Infinity outside such a run. *)
  mutable horizon : float;
  (* Innermost active [sleep_drain] deadline.  While a fiber is inline-
     draining, no nested advance (jump or drain) may move the clock past
     this point: the outer sleeper must wake exactly at its target,
     before any later event.  Infinity when no drain is active. *)
  mutable drain_limit : float;
}

let create ?(seed = 42) () =
  { now = 0.0;
    seq = 0;
    next_fiber = 0;
    heap = Event_heap.create ();
    ready = Ready.create ();
    cell = { Event_heap.cancelled_pending = 0 };
    root_prng = Prng.create seed;
    horizon = infinity;
    drain_limit = infinity }

let now t = t.now
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
let enable_tracing ?capacity t = Trace.start ?capacity ~clock:(fun () -> t.now) ()

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

let schedule_abs t ~at f =
  let time = if at <= t.now then t.now else at in
  let seq = t.seq in
  t.seq <- seq + 1;
  let ev = { time; seq; run = f; cancelled = false; cell = t.cell } in
  if time = t.now then Ready.push t.ready ev
  else begin
    maybe_compact t;
    Event_heap.push t.heap ev
  end;
  ev

let schedule t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_abs t ~at:(t.now +. delay) f

let cancel ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    ev.cell.Event_heap.cancelled_pending <- ev.cell.Event_heap.cancelled_pending + 1
  end

let[@inline] note_dropped t = t.cell.Event_heap.cancelled_pending <- t.cell.Event_heap.cancelled_pending - 1

(* Pop the globally minimal (time, seq) event across ring and heap. *)
let[@inline] pop_next t =
  if Ready.length t.ready = 0 then Event_heap.pop_exn t.heap
  else if Event_heap.is_empty t.heap then Ready.pop t.ready
  else if Event_heap.before (Event_heap.peek_exn t.heap) (Ready.peek t.ready) then
    Event_heap.pop_exn t.heap
  else Ready.pop t.ready

(* Cancelled events are dropped without advancing the clock. *)
let rec step t =
  if Ready.length t.ready = 0 && Event_heap.is_empty t.heap then false
  else begin
    let ev = pop_next t in
    if ev.cancelled then begin
      note_dropped t;
      step t
    end
    else begin
      t.now <- ev.time;
      if Trace.on () then Trace.incr "engine.events";
      ev.run ();
      true
    end
  end

(* Drop cancelled events sitting at the front of either queue so the
   horizon check below only ever looks at a live event. *)
let rec drop_cancelled t =
  if Ready.length t.ready > 0 && (Ready.peek t.ready).cancelled then begin
    ignore (Ready.pop t.ready);
    note_dropped t;
    drop_cancelled t
  end
  else if (not (Event_heap.is_empty t.heap)) && (Event_heap.peek_exn t.heap).cancelled
  then begin
    ignore (Event_heap.pop_exn t.heap);
    note_dropped t;
    drop_cancelled t
  end

(* Advance the clock to [target] without executing anything, provided
   doing so is observationally equivalent to scheduling a wake event at
   [target] and draining the queue up to it: nothing is due at the
   current instant and every queued event lies strictly beyond [target]
   (an event at exactly [target] was scheduled earlier, so it would have
   run before the hypothetical wake).  This is the [Fiber.sleep] fast
   path: a lone sleeper — the overwhelmingly common shape under
   [Host.use_cpu] — skips the suspend/schedule/resume machinery
   entirely.  Refused beyond a [run ~until] horizon so bounded runs
   still stop at their boundary. *)
let try_advance t ~target =
  target <= t.horizon
  && target <= t.drain_limit
  && begin
       drop_cancelled t;
       Ready.length t.ready = 0
       && (Event_heap.is_empty t.heap || (Event_heap.peek_exn t.heap).time > target)
       && begin
            if target > t.now then t.now <- target;
            true
          end
     end

(* Inline-drain variant of the sleep fast path, for the CPU-charge
   pattern ([Host.use_cpu]): execute due events on the sleeper's stack
   instead of suspending around them.  An event is due if it precedes
   the wake the slow path would have scheduled — (time, seq) strictly
   below [(target, seq at entry)].  Executing it here is exactly what
   the engine loop would have done while the sleeper was parked, so the
   total event order is unchanged; the sleeper then wakes at [target]
   by jumping the clock, precisely where its wake event would have
   fired.

   Nesting: a drained event may resume another fiber that charges CPU
   and drains in turn.  [drain_limit] (the innermost active target)
   caps every nested advance, so an inner sleeper can never move the
   clock past an outer sleeper's wake point — an inner sleep reaching
   further than the outer target falls back to a real suspension.
   Depth is bounded by the number of simultaneously-charging fibers.
   [budget] bounds the number of events drained per call as a stack
   safeguard; on exhaustion the caller falls back to suspending.

   Returns [false] (clock untouched beyond drained events) if the
   caller must suspend instead: budget ran out, the target overshoots
   a horizon or an outer drain, or the fiber was cancelled by a
   drained event (the suspending path is where cancellation raises). *)
let sleep_drain t ~target ~cancelled =
  if target > t.horizon || target > t.drain_limit then false
  else begin
    let seq_limit = t.seq in
    let saved = t.drain_limit in
    t.drain_limit <- target;
    let budget = ref 256 in
    let verdict = ref None in
    while !verdict = None do
      if cancelled () then verdict := Some false
      else begin
        drop_cancelled t;
        let due =
          Ready.length t.ready > 0
          || (not (Event_heap.is_empty t.heap))
             &&
             let ev = Event_heap.peek_exn t.heap in
             ev.time < target || (ev.time = target && ev.seq < seq_limit)
        in
        if not due then begin
          if target > t.now then t.now <- target;
          verdict := Some true
        end
        else if !budget = 0 then verdict := Some false
        else begin
          decr budget;
          ignore (step t)
        end
      end
    done;
    t.drain_limit <- saved;
    Option.get !verdict
  end

let run_counted ?until ?(max_events = 50_000_000) t =
  let executed = ref 0 in
  let continue_run = ref true in
  (match until with
  | None ->
    (* No horizon: tight loop, no per-event peeking. *)
    while !continue_run && !executed < max_events do
      if step t then incr executed else continue_run := false
    done
  | Some horizon ->
    t.horizon <- horizon;
    while !continue_run && !executed < max_events do
      drop_cancelled t;
      let have_ready = Ready.length t.ready > 0 in
      let have_heap = not (Event_heap.is_empty t.heap) in
      if not (have_ready || have_heap) then continue_run := false
      else begin
        let next_time =
          if have_ready then
            (* Ring entries are due at or before any heap entry. *)
            (Ready.peek t.ready).time
          else (Event_heap.peek_exn t.heap).time
        in
        if next_time > horizon then begin
          t.now <- horizon;
          continue_run := false
        end
        else begin
          ignore (step t);
          incr executed
        end
      end
    done;
    t.horizon <- infinity);
  if !executed >= max_events then
    invalid_arg "Engine.run: max_events exceeded (runaway simulation?)";
  !executed

let run ?until ?max_events t = ignore (run_counted ?until ?max_events t)

let next_time t =
  drop_cancelled t;
  if Ready.length t.ready > 0 then (Ready.peek t.ready).time
  else if Event_heap.is_empty t.heap then infinity
  else (Event_heap.peek_exn t.heap).time

(* The parallel engine's per-window drain.  Identical to [run ~until]
   except that the bound is *exclusive*: an event at exactly [limit]
   belongs to the next window (its instant is the synchronization
   barrier, where cross-LP arrivals due at [limit] are still being
   injected and must obtain their sequence numbers before anything at
   that instant executes in engine order).  The clock is left exactly
   at [limit] so every logical process agrees on the window boundary
   regardless of where its last event fell.  Returns the number of
   events executed, which the coordinator sums into the scaling
   numbers. *)
let run_window ?(max_events = 50_000_000) t ~limit =
  let executed = ref 0 in
  let continue_run = ref true in
  t.horizon <- limit;
  while !continue_run && !executed < max_events do
    if next_time t >= limit then begin
      if limit > t.now then t.now <- limit;
      continue_run := false
    end
    else begin
      ignore (step t);
      incr executed
    end
  done;
  t.horizon <- infinity;
  if !executed >= max_events then
    invalid_arg "Engine.run_window: max_events exceeded (runaway simulation?)";
  !executed

let pending t = Event_heap.length t.heap + Ready.length t.ready
