(* A logical process: the unit of parallelism in the parallel engine.

   Each LP owns a full sequential simulation engine — its own
   monomorphic event heap, ready ring, clock, and PRNG stream — plus an
   optional per-LP trace sink.  LPs never share mutable simulation
   state; the only cross-LP traffic is timestamped messages pushed into
   the SPSC channels below, which are drained at conservative barriers
   by the coordinator (see Parallel).

   The PRNG is derived with [Prng.stream root ~index:id], a pure
   function of the root seed and the LP id, so an LP's random draws are
   identical no matter how many other LPs exist or how they are mapped
   onto domains. *)

module Trace = Circus_trace.Trace

(* Single-producer single-consumer channel for cross-LP messages.

   The synchronization story is deliberately minimal.  During a window
   only the producing domain touches the channel ([push]); the
   coordinator drains it only at a barrier, while every domain is
   parked and after the producer has passed through the team mutex, so
   every window-time write happens-before every drain read.  The
   Atomic head/tail indices make the ring well-defined even for the
   coordinator's read-only [is_empty] probe at the barrier.

   Boundedness: the ring has fixed capacity; once it fills, *all*
   subsequent pushes in the window spill to a producer-side overflow
   list (not just the ones that no longer fit — partial spilling would
   break FIFO order, and FIFO is what makes the drain deterministic).
   Blocking the producer instead would deadlock the barrier: the
   consumer only drains once every producer has arrived at it. *)
module Channel = struct
  type thunk = unit -> unit

  type t = {
    (* Parallel rings, capacity a power of two: arrival times stored
       flat beside their thunks, so a push allocates nothing. *)
    arrivals : Float.Array.t;
    thunks : thunk array;
    mask : int;
    head : int Atomic.t;  (* consumer index *)
    tail : int Atomic.t;  (* producer index *)
    mutable overflow : (float * thunk) list;  (* producer-side spill, newest first *)
    mutable spilled : bool;
  }

  let create ?(capacity = 1024) () =
    if capacity < 1 then invalid_arg "Lp.Channel.create: capacity < 1";
    let cap = ref 1 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    { arrivals = Float.Array.make !cap infinity;
      thunks = Array.make !cap ignore;
      mask = !cap - 1;
      head = Atomic.make 0;
      tail = Atomic.make 0;
      overflow = [];
      spilled = false }

  let push t ~arrival x =
    if t.spilled then t.overflow <- (arrival, x) :: t.overflow
    else begin
      let tail = Atomic.get t.tail in
      if tail - Atomic.get t.head > t.mask then begin
        t.spilled <- true;
        t.overflow <- [ (arrival, x) ]
      end
      else begin
        Float.Array.set t.arrivals (tail land t.mask) arrival;
        t.thunks.(tail land t.mask) <- x;
        Atomic.set t.tail (tail + 1)
      end
    end

  let is_empty t = Atomic.get t.head = Atomic.get t.tail && not t.spilled

  (* Barrier-only: requires the producer to be quiescent. *)
  let drain t ~f =
    let head = ref (Atomic.get t.head) in
    let tail = Atomic.get t.tail in
    while !head < tail do
      let i = !head land t.mask in
      let x = t.thunks.(i) in
      t.thunks.(i) <- ignore;
      f ~arrival:(Float.Array.get t.arrivals i) x;
      incr head
    done;
    Atomic.set t.head tail;
    if t.spilled then begin
      List.iter (fun (arrival, x) -> f ~arrival x) (List.rev t.overflow);
      t.overflow <- [];
      t.spilled <- false
    end
end

type t = {
  id : int;
  engine : Engine.t;
  prng : Prng.t;
  mutable sink : Trace.sink option;
  mutable executed : int;
}

(* The engine seed is the stream's first draw, so the whole LP — engine
   PRNG included — is a pure function of (root seed, lp id). *)
let make ~id ~prng =
  let seed = Int64.to_int (Prng.int64 prng) land max_int in
  { id; engine = Engine.create ~seed (); prng; sink = None; executed = 0 }
