(** Seeded open-loop arrival processes.

    Each generator is a pure function of its own {!Circus_sim.Prng.t}
    stream: equal seeds give the identical arrival sequence, and a
    per-shard generator built from [Prng.stream root ~index:lp] is
    stable under re-partitioning — the shard's sequence does not depend
    on how many domains execute the simulation. *)

open Circus_sim

type process =
  | Poisson of { rate : float }  (** Homogeneous Poisson, [rate] arrivals/s. *)
  | Onoff of { rate_on : float; rate_off : float; mean_on : float; mean_off : float }
      (** Markov-modulated (bursty / self-similar-ish) Poisson: fire at
          [rate_on] during on-phases of mean length [mean_on] s, at
          [rate_off] during off-phases of mean length [mean_off] s,
          phase lengths exponential. *)
  | Diurnal of { base : float; peak : float; period : float }
      (** Inhomogeneous Poisson ramp: rate(t) sweeps [base..peak]
          sinusoidally with [period] s (trough at t = 0), sampled by
          Lewis–Shedler thinning. *)

type t

val create : ?start:float -> Prng.t -> process -> t
(** Generator whose first arrival falls after [start] (default 0).
    Raises [Invalid_argument] if the process cannot fire: a Poisson
    rate not positive; an on/off process with a negative rate, a phase
    mean not positive, or no phase that fires; a diurnal ramp with a
    negative base, a peak below the base or not positive, or a period
    not positive. *)

val next : t -> float
(** The next absolute arrival time; strictly increasing. *)
