(** Logical processes: the unit of parallelism in {!Parallel}.

    An LP owns a complete sequential {!Engine.t} (event heap, ready
    ring, clock), a {!Prng.t} stream derived as a pure function of the
    root seed and the LP id, and an optional per-LP trace sink.  LPs
    share no mutable simulation state; cross-LP traffic flows through
    the SPSC {!Channel}s, drained only at conservative barriers. *)

(** Single-producer single-consumer channel carrying timestamped
    cross-LP messages (thunks to schedule on the receiving engine): a
    growable FIFO that starts at 16 entries and doubles when full, so
    it holds only what is in flight and never spills or blocks.
    [push] may only be called by the owning producer during a window;
    [is_empty] and [drain] only by the consumer at a barrier, once the
    producer is quiescent.  The barrier's mutex orders the two, so the
    channel has no synchronization of its own. *)
module Channel : sig
  type t

  val create : unit -> t

  val push : t -> arrival:float -> (unit -> unit) -> unit
  (** Allocation-free while the buffer has room: the arrival time and
      the thunk go into parallel flat arrays. *)

  val is_empty : t -> bool

  val drain : t -> f:(arrival:float -> (unit -> unit) -> unit) -> unit
  (** Apply [f] to every buffered message in push (FIFO) order and
      empty the channel, which then keeps no drained thunk alive.
      Barrier-only. *)
end

type t = {
  id : int;
  engine : Engine.t;
  prng : Prng.t;  (** the LP's {!Prng.stream}; stable under re-partitioning *)
  mutable sink : Circus_trace.Trace.sink option;
  mutable executed : int;  (** events executed on this LP, cumulative *)
}

val make : id:int -> prng:Prng.t -> t
(** [make ~id ~prng] is a fresh LP whose engine seed is [prng]'s first
    draw — the entire LP is a pure function of (root seed, id). *)
