(** The paper's probabilistic models, in closed form and by Monte Carlo.

    - §4.4.2: the expected time of a multicast-based replicated call to
      a troupe of size [n] with exponentially distributed round trips
      is [H_n · r] (Theorem 4.3) — logarithmic growth, versus the
      linear growth of repeated point-to-point [sendmsg].
    - §5.3.1 Eq. 5.1: the troupe commit protocol deadlocks with
      probability [1 - (1/k!)^(n-1)] when [n] members independently
      serialize [k] conflicting transactions.
    - §6.4.2 Eq. 6.1/6.2: troupe availability from the birth-death
      (M/M/n/n) model, and the replacement time needed to meet an
      availability target. *)

val harmonic : int -> float
(** [harmonic n] is H_n = 1 + 1/2 + ... + 1/n. *)

val expected_max_exponential : n:int -> mean:float -> float
(** Theorem 4.3: E[max of n iid exponentials] = H_n · mean. *)

val monte_carlo_max_exponential :
  Circus_sim.Prng.t -> n:int -> mean:float -> trials:int -> float
(** Empirical mean of the max over [trials] samples. *)

(** {1 Troupe commit deadlock (Eq. 5.1)} *)

val deadlock_probability : members:int -> conflicts:int -> float
(** [1 - (1/k!)^(n-1)]: the chance that [members] members do not all
    pick the same serialization order of [conflicts] transactions. *)

val monte_carlo_deadlock :
  Circus_sim.Prng.t -> members:int -> conflicts:int -> trials:int -> float
(** Empirical frequency with which [members] independently uniform
    permutations of [conflicts] transactions are not all equal. *)

(** {1 Troupe reliability (Figure 6.3, Eq. 6.1/6.2)} *)

val availability : n:int -> failure_rate:float -> repair_rate:float -> float
(** Eq. 6.1: A = 1 - (λ / (λ + μ))ⁿ. *)

val state_probability : n:int -> k:int -> failure_rate:float -> repair_rate:float -> float
(** M/M/n/n equilibrium probability of [k] failed members:
    pₖ = C(n,k) ρᵏ / (1+ρ)ⁿ with ρ = λ/μ. *)

val required_repair_time : n:int -> availability:float -> lifetime:float -> float
(** Eq. 6.2: the mean replacement time 1/μ that achieves the target
    availability given member mean lifetime 1/λ = [lifetime]. *)

val simulate_availability :
  Circus_sim.Prng.t ->
  n:int -> failure_rate:float -> repair_rate:float -> horizon:float -> float
(** Fraction of [0, horizon] during which at least one member of an
    [n]-member troupe is alive, simulating independent exponential
    failures and repairs (the birth-death process of Figure 6.3). *)
