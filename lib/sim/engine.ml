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
  (* The time bound of the innermost active loop (see [drain]): a run's
     [until] or window limit, or a sleeper's target while it drains.
     No event past it runs, and no sleep jumps the clock past it, so a
     bounded run stops at its boundary and an outer sleeper wakes
     exactly at its target.  Infinity outside every run. *)
  mutable bound : float;
}

(* Who is running on a domain, as the fiber layer defines it: [Fiber]
   adds a constructor for its fibers, built once per fiber.  One slot
   per domain, in DLS; each engine keeps its domain's slot at hand (see
   [slot]) so a fiber switch stores into it without a DLS lookup. *)
type running = ..
type running += Idle

let running_key : running ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Idle)
let running_slot () = Domain.DLS.get running_key

(* A duration in a record of floats only (laid out flat), so a sleep
   hands it to [sleep] without boxing it. *)
type nap = { mutable nap_s : float }

type t = {
  clock : clock;
  (* The running slot of the domain this engine last started a run on.
     Events execute only inside a run ([run_counted], [run_window], and
     sleeps nested in them), and every run refreshes it on entry, so
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
  { clock = { now = 0.0; bound = infinity };
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

(* Run a live event that has just left its queue. *)
let[@inline] exec ev =
  ev.live <- false;
  if Trace.on () then Trace.incr "engine.events";
  ev.run ()

(* The one event loop.  Each pass takes the (time, seq) minimum of the
   ring head and the heap top once (ring entries sit at [now], so the
   ring head comes first unless the heap top is at [now] with a smaller
   seq) and decides it once: it stops if the minimum is not due, drops
   it if it was cancelled, and otherwise runs it.  A cancelled minimum
   cannot change the outcome: every live event lies at or after it, so
   stopping at it stops where the first live one would, and dropping
   it leaves the live events' order alone.  Only a heap event moves the
   clock.

   The minimum is due when its (time, seq) precedes [(clock.bound,
   seq_limit)].  A run passes [max_int] for an inclusive bound (its
   [until], or infinity) and [min_int] for an exclusive one (a window's
   limit).  A sleep passes its target and the seq a wake scheduled at
   entry would take, and [greedy]: while the ring is non-empty, the
   minimum is due whichever queue holds it.  That is the quirk
   [test_sim]'s "busy sleep order" pins: a delay-0 event that an event
   due at exactly the target schedules has a seq past the wake's, yet
   it runs before the sleeper wakes.  Empty queues are a minimum at
   infinity with seq [max_int], never due.

   At most [budget] live events run, and [cancelled] is polled after
   each.  Returns how many ran, or -1 when it stopped early: the budget
   was spent with a live due event left, or [cancelled ()] turned true.  No
   float crosses the call (the bound is read from the clock), so a
   build without cross-module inlining boxes nothing for it. *)
let[@inline] drain t ~greedy ~seq_limit ~budget ~cancelled =
  let clock = t.clock in
  let ran = ref 0 in
  let go = ref true in
  while !go do
    let queued = Ready.length t.ready in
    let time = Event_heap.top_time t.heap in
    let now = clock.now in
    let bound = clock.bound in
    let from_ring =
      queued > 0
      && not (time < now || (time = now && Event_heap.top_seq t.heap < (Ready.peek t.ready).seq))
    in
    let due =
      (greedy && queued > 0)
      ||
      if from_ring then now < bound || (now = bound && (Ready.peek t.ready).seq < seq_limit)
      else time < bound || (time = bound && Event_heap.top_seq t.heap < seq_limit)
    in
    if not due then go := false
    else if
      !ran = budget
      && (if from_ring then Ready.peek t.ready else Event_heap.top_exn t.heap).live
    then begin
      ran := -1;
      go := false
    end
    else begin
      let ev = if from_ring then Ready.pop t.ready else Event_heap.pop_exn t.heap in
      if not ev.live then note_dropped t
      else begin
        incr ran;
        if not from_ring then clock.now <- time;
        exec ev;
        if cancelled () then begin
          ran := -1;
          go := false
        end
      end
    end
  done;
  !ran

(* A fiber's sleep for the duration in [nap], without suspending: the
   loop under the sleeper's wake, [(target, seq at entry)], runs up to
   [budget] due events on the sleeper's stack, then the clock jumps to
   [target], where a suspending sleep's wake would have fired.  With
   nothing due it is the plain jump.  A target past the bound of an
   enclosing loop (a run's [until] or window limit, or an outer
   sleeper's target) is refused, so an inner sleep never moves the
   clock past an outer sleeper's wake; one equal to it is not (the
   orders [test_sim]'s "nested busy sleep order" and [test_parallel]'s
   "a sleep to the window's limit" pin).  Depth is bounded by the
   number of simultaneously sleeping fibers.

   Returns [false] when the caller must suspend, with the clock moved
   only by the events run and the rest of the sleep ([target] minus the
   clock, at least 0) stored back into [nap]. *)
let[@inline] sleep t nap ~budget ~cancelled =
  let clock = t.clock in
  let target = clock.now +. nap.nap_s in
  let woke =
    target <= clock.bound
    && begin
         let saved = clock.bound in
         clock.bound <- target;
         let ran = drain t ~greedy:true ~seq_limit:t.seq ~budget ~cancelled in
         clock.bound <- saved;
         ran >= 0
       end
  in
  if woke then begin
    if target > clock.now then clock.now <- target
  end
  else begin
    let remaining = target -. clock.now in
    nap.nap_s <- (if remaining > 0.0 then remaining else 0.0)
  end;
  woke

let never () = false

(* A run: the loop under [bound], from the calling domain, its budget
   the runaway guard.  [what] names the run in the guard's error. *)
let run_loop t ~bound ~seq_limit ~max_events what =
  let clock = t.clock in
  t.slot <- running_slot ();
  let saved = clock.bound in
  clock.bound <- bound;
  let ran = drain t ~greedy:false ~seq_limit ~budget:max_events ~cancelled:never in
  clock.bound <- saved;
  if ran < 0 then invalid_arg (what ^ ": max_events exceeded (runaway simulation?)");
  ran

(* Drop cancelled events sitting at the front of either queue, so the
   queue heads are live. *)
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

let pending t = Event_heap.length t.heap + Ready.length t.ready

(* An inclusive run.  Stopping short of a live event beyond [until], it
   leaves the clock at [until]; with nothing left, at the last event. *)
let run_counted ?until ?(max_events = 50_000_000) t =
  let bound = Option.value until ~default:infinity in
  let ran = run_loop t ~bound ~seq_limit:max_int ~max_events "Engine.run" in
  if Option.is_some until then begin
    drop_cancelled t;
    (* A horizon behind the clock leaves it where it is. *)
    if pending t > 0 && bound > t.clock.now then t.clock.now <- bound
  end;
  ran

let run ?until ?max_events t = ignore (run_counted ?until ?max_events t)

let next_time t =
  drop_cancelled t;
  if Ready.length t.ready > 0 then t.clock.now else Event_heap.top_time t.heap

(* The parallel engine's per-window drain: [run ~until] with an
   *exclusive* bound.  An event at exactly [limit] belongs to the next
   window: its instant is the synchronization barrier, where cross-LP
   arrivals due at [limit] are still being injected and must obtain
   their sequence numbers before anything at that instant executes in
   engine order.  The clock is left exactly at [limit], so every
   logical process agrees on the window boundary wherever its last
   event fell.  Returns the number of events executed, which the
   coordinator sums into the scaling numbers.  The cancelled heads it
   leaves at [limit] are dropped by the [next_time] the coordinator
   reads right after the round. *)
let run_window ?(max_events = 50_000_000) t ~limit =
  let ran = run_loop t ~bound:limit ~seq_limit:min_int ~max_events "Engine.run_window" in
  if limit > t.clock.now then t.clock.now <- limit;
  ran

(* [run_window] on an engine with nothing due before [limit]: all it
   would do is set the clock. *)
let skip_window t ~limit = if limit > t.clock.now then t.clock.now <- limit

let cancelled_pending t = t.cell.Event_heap.cancelled_pending
