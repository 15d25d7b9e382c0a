(** Binary exponential back-off (§5.3.1).

    An aborted transaction is delayed a random interval before retry;
    the mean delay doubles on each successive retry, alleviating the
    starvation the troupe commit protocol is subject to under
    conflict. *)

type t

val create : ?initial:float -> ?max_delay:float -> Circus_sim.Prng.t -> t
val next_delay : t -> float
(** Sample the next delay and double the mean (capped). *)
