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

(* Single-producer single-consumer channel for cross-LP messages: a
   growable FIFO of (arrival, thunk) pairs.

   It needs no synchronization of its own.  During a window only the
   producing domain touches the channel ([push]); the coordinator
   reads and drains it only at a barrier, while every domain is parked
   and after the producer has passed through the team mutex, so every
   window-time write happens-before every barrier read ([Parallel]'s
   per-source [posted] flags and minima rely on the same edge).

   A window carries a few cross-LP datagrams, so the buffer starts
   small and doubles when full; it never spills and never blocks
   (blocking the producer would deadlock the barrier, since the
   consumer only drains once every producer has arrived at it).
   Pushes and drains never interleave, so the buffer is filled from
   its start and a drain empties all of it. *)
module Channel = struct
  type thunk = unit -> unit

  type t = {
    (* Parallel arrays: arrival times stored flat beside their thunks,
       so a push allocates nothing while there is room. *)
    mutable arrivals : Float.Array.t;
    mutable thunks : thunk array;
    mutable count : int;
  }

  let create () =
    { arrivals = Float.Array.make 16 infinity; thunks = Array.make 16 ignore; count = 0 }

  let grow t =
    let cap = 2 * Array.length t.thunks in
    let arrivals = Float.Array.make cap infinity and thunks = Array.make cap ignore in
    Float.Array.blit t.arrivals 0 arrivals 0 t.count;
    Array.blit t.thunks 0 thunks 0 t.count;
    t.arrivals <- arrivals;
    t.thunks <- thunks

  let push t ~arrival x =
    if t.count = Array.length t.thunks then grow t;
    Float.Array.set t.arrivals t.count arrival;
    t.thunks.(t.count) <- x;
    t.count <- t.count + 1

  let is_empty t = t.count = 0

  (* Barrier-only: requires the producer to be quiescent.  A drained
     slot is cleared at once, so the channel keeps no thunk alive. *)
  let drain t ~f =
    let i = ref 0 in
    while !i < t.count do
      let x = t.thunks.(!i) in
      t.thunks.(!i) <- ignore;
      f ~arrival:(Float.Array.get t.arrivals !i) x;
      incr i
    done;
    t.count <- 0
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
