type t = {
  initial : float;
  max_delay : float;
  prng : Circus_sim.Prng.t;
  mutable mean : float;
  mutable attempts : int;
}

let create ?(initial = 0.05) ?(max_delay = 5.0) prng =
  { initial; max_delay; prng; mean = initial; attempts = 0 }

let next_delay t =
  let delay = Circus_sim.Prng.uniform t.prng ~lo:0.0 ~hi:(2.0 *. t.mean) in
  t.attempts <- t.attempts + 1;
  t.mean <- min t.max_delay (t.mean *. 2.0);
  delay
