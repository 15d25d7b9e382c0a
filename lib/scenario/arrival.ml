open Circus_sim

type process =
  | Poisson of { rate : float }
  | Onoff of { rate_on : float; rate_off : float; mean_on : float; mean_off : float }
  | Diurnal of { base : float; peak : float; period : float }

let validate = function
  | Poisson { rate } -> if rate > 0.0 then Ok () else Error "poisson: rate must be > 0"
  | Onoff { rate_on; rate_off; mean_on; mean_off } ->
    if rate_on < 0.0 || rate_off < 0.0 then Error "onoff: rates must be >= 0"
    else if mean_on <= 0.0 || mean_off <= 0.0 then Error "onoff: phase means must be > 0"
    else if rate_on <= 0.0 && rate_off <= 0.0 then Error "onoff: at least one phase must fire"
    else Ok ()
  | Diurnal { base; peak; period } ->
    if base < 0.0 then Error "diurnal: base must be >= 0"
    else if peak < base then Error "diurnal: peak must be >= base"
    else if peak <= 0.0 then Error "diurnal: peak must be > 0"
    else if period <= 0.0 then Error "diurnal: period must be > 0"
    else Ok ()

type t = {
  prng : Prng.t;
  process : process;
  mutable clock : float;
  (* On/off phase machine. *)
  mutable on : bool;
  mutable phase_until : float;
}

let create ?(start = 0.0) prng process =
  (match validate process with Ok () -> () | Error msg -> invalid_arg ("Arrival.create: " ^ msg));
  let t = { prng; process; clock = start; on = true; phase_until = infinity } in
  (match process with
  | Onoff { mean_on; _ } -> t.phase_until <- start +. Prng.exponential prng ~mean:mean_on
  | Poisson _ | Diurnal _ -> ());
  t

let flip t ~mean_on ~mean_off =
  t.on <- not t.on;
  let mean = if t.on then mean_on else mean_off in
  t.phase_until <- t.clock +. Prng.exponential t.prng ~mean

(* Markov-modulated Poisson process.  At a phase boundary the partial
   inter-arrival draw is discarded and redrawn in the new phase — the
   exponential is memoryless, so this is the exact MMPP. *)
let rec next_onoff t ~rate_on ~rate_off ~mean_on ~mean_off =
  let rate = if t.on then rate_on else rate_off in
  if rate <= 0.0 then begin
    t.clock <- t.phase_until;
    flip t ~mean_on ~mean_off;
    next_onoff t ~rate_on ~rate_off ~mean_on ~mean_off
  end
  else begin
    let d = Prng.exponential t.prng ~mean:(1.0 /. rate) in
    if t.clock +. d <= t.phase_until then begin
      t.clock <- t.clock +. d;
      t.clock
    end
    else begin
      t.clock <- t.phase_until;
      flip t ~mean_on ~mean_off;
      next_onoff t ~rate_on ~rate_off ~mean_on ~mean_off
    end
  end

let diurnal_rate ~base ~peak ~period now =
  base +. ((peak -. base) *. 0.5 *. (1.0 -. Float.cos (2.0 *. Float.pi *. now /. period)))

(* Lewis–Shedler thinning at the peak rate: candidate arrivals come
   from a homogeneous Poisson at [peak] and survive with probability
   rate(t)/peak.  Terminates with probability 1 since peak > 0. *)
let rec next_diurnal t ~base ~peak ~period =
  t.clock <- t.clock +. Prng.exponential t.prng ~mean:(1.0 /. peak);
  let u = Prng.float t.prng in
  if u *. peak <= diurnal_rate ~base ~peak ~period t.clock then t.clock
  else next_diurnal t ~base ~peak ~period

let next t =
  match t.process with
  | Poisson { rate } ->
    t.clock <- t.clock +. Prng.exponential t.prng ~mean:(1.0 /. rate);
    t.clock
  | Onoff { rate_on; rate_off; mean_on; mean_off } ->
    next_onoff t ~rate_on ~rate_off ~mean_on ~mean_off
  | Diurnal { base; peak; period } -> next_diurnal t ~base ~peak ~period
