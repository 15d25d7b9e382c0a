(** Binary min-heap over simulation events, keyed by (time, seq).

    Structure of arrays: the keys live in a flat [Float.Array.t] of
    times and an [int array] of seqs, with a parallel [int array]
    naming the pool cell that holds each event.  Sifts move only those
    immediates, so an event is written into its pool cell once on
    {!push} and reset to {!sentinel} once on {!pop_exn} — the only two
    pointer stores (write-barrier calls) an event costs the heap.  Times
    are stored unboxed and are not part of {!event}; read the minimum's
    with {!top_time}.

    The ordering key (time, seq) is a {e total} order — [seq] is
    unique per engine — so the pop sequence is independent of the
    internal layout.  That is what makes {!compact} safe: it may
    rearrange the arrays but cannot change which event pops next. *)

type cell = { mutable cancelled_pending : int }
(** Shared counter of cancelled-but-still-queued events.  Each event
    points at its engine's cell so cancellation (which only sees the
    event) can maintain the count the engine uses to decide when to
    {!compact}. *)

type event = {
  mutable seq : int;
      (** engine-wide schedule sequence number, unique among queued
          events; a re-armed timer takes a fresh one *)
  mutable run : unit -> unit;  (** what firing runs; a cancel drops it *)
  mutable live : bool;
      (** queued and neither fired nor cancelled; the engine clears it
          on both, so a cancel after firing is detectably late *)
  cell : cell;
}

val sentinel : event
(** Fills empty pool cells; never [live], so it can never execute. *)

type t

val create : unit -> t
(** An empty heap with room for 16 events; it doubles as needed. *)

val length : t -> int
val is_empty : t -> bool

val top_time : t -> float
(** Time of the minimum event; [infinity] when empty.  Read straight
    out of the flat time array (no allocation when inlined). *)

val top_seq : t -> int
(** Seq of the minimum event; [max_int] when empty. *)

val top_exn : t -> event
(** The minimum event; raises [Invalid_argument] when empty. *)

val push : t -> time:float -> event -> unit
(** O(log n), allocation-free (amortized array growth aside). *)

val pop_exn : t -> event
(** Remove and return the minimum event; raises [Invalid_argument]
    when empty.  Its pool cell is reset to {!sentinel} and reused.
    Bottom-up: one key compare per level down, then a short sift-up. *)

val compact : t -> int
(** Drop every event that is not [live] and re-heapify in O(n);
    returns the number removed.  Pop order of the survivors is
    unchanged. *)

val clear : t -> unit
(** Drop every event, releasing all pool cells. *)
