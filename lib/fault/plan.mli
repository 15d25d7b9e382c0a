(** Chaos schedules: first-class fault events on the simulated clock.

    A plan is a time-ordered list of fault steps — host crashes and
    restarts, time-bounded partition episodes, bursts of extra loss,
    duplication, delay, or datagram corruption — that {!Injector}
    executes as engine events.  Plans are plain data: they can be
    written by hand for a directed test, or drawn from {!random}, whose
    output is a pure function of its seed.  Equal seeds therefore give
    equal plans give (by the simulator's own determinism) byte-identical
    fault traces. *)

type action =
  | Crash of int  (** fail-stop the host with this id *)
  | Restart of int  (** bring it back with a fresh incarnation *)
  | Partition of { groups : int list list; duration : float }
      (** partition episode: {!Circus_net.Net.set_partition_for} *)
  | Heal  (** explicit heal, for hand-written plans *)
  | Loss_burst of { rate : float; duration : float }
  | Dup_burst of { rate : float; duration : float }
  | Delay_burst of { extra_mean : float; duration : float }
  | Corrupt_burst of { rate : float; duration : float }

type step = { at : float; action : action }

type t = step list
(** Sorted by [at], ties in list order. *)

val validate : t -> (unit, string) result
(** Structural checks: non-negative times, sorted order, positive
    durations, probabilities in [0,1], partitions of one to
    {!Circus_net.Net.max_partition_groups} groups, no crash of an
    already-down host and no restart of an up one (per the plan's own
    bookkeeping). *)

val pp : Format.formatter -> t -> unit

(** {1 Random plans} *)

val random :
  seed:int ->
  victims:int list ->
  others:int list ->
  ?max_down:int ->
  ?horizon:float ->
  unit ->
  t
(** Draw a reproducible chaos schedule from its own SplitMix64 stream
    (independent of every simulation PRNG; equal seeds give equal
    plans).

    [victims] are the host ids faults may target; [others] are hosts
    that must never crash and always sit in the majority partition group
    (binding agents, the observing client).  Invariants of the generated
    plan:

    - at most [max_down] victims (default [max 1 ((n-1)/2)] for [n]
      victims — a minority) are simultaneously {e disturbed}, i.e.
      crashed or partitioned away;
    - every crash is paired with a restart, and every partition and
      burst episode has a bounded duration, all ending strictly before
      [horizon] (default 30 s): after the horizon the network is whole
      and every victim is back up;
    - at most one episode of each burst kind (and one partition) is in
      flight at a time. *)
