open Circus_sim

type action =
  | Crash of int
  | Restart of int
  | Partition of { groups : int list list; duration : float }
  | Heal
  | Loss_burst of { rate : float; duration : float }
  | Dup_burst of { rate : float; duration : float }
  | Delay_burst of { extra_mean : float; duration : float }
  | Corrupt_burst of { rate : float; duration : float }

type step = { at : float; action : action }
type t = step list

let sort steps = List.stable_sort (fun a b -> Float.compare a.at b.at) steps

let validate plan =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec go prev_at down = function
    | [] -> Ok ()
    | { at; action } :: rest ->
      if at < 0.0 then err "step at t=%g: negative time" at
      else if at < prev_at then err "step at t=%g: out of order (previous %g)" at prev_at
      else begin
        let rate_ok r = r >= 0.0 && r <= 1.0 in
        match action with
        | Crash h ->
          if List.mem h down then err "t=%g: crash of already-down host %d" at h
          else go at (h :: down) rest
        | Restart h ->
          if not (List.mem h down) then err "t=%g: restart of up host %d" at h
          else go at (List.filter (fun h' -> h' <> h) down) rest
        | Partition { groups; duration } ->
          let n_groups = List.length groups and most = Circus_net.Net.max_partition_groups in
          if duration <= 0.0 then err "t=%g: partition with non-positive duration" at
          else if n_groups = 0 then err "t=%g: partition with no groups" at
          else if n_groups > most then
            err "t=%g: partition with %d groups, at most %d" at n_groups most
          else go at down rest
        | Heal -> go at down rest
        | Loss_burst { rate; duration } | Dup_burst { rate; duration }
        | Corrupt_burst { rate; duration } ->
          if not (rate_ok rate) then err "t=%g: burst rate %g outside [0,1]" at rate
          else if duration <= 0.0 then err "t=%g: burst with non-positive duration" at
          else go at down rest
        | Delay_burst { extra_mean; duration } ->
          if extra_mean <= 0.0 then err "t=%g: delay burst with non-positive mean" at
          else if duration <= 0.0 then err "t=%g: burst with non-positive duration" at
          else go at down rest
      end
  in
  go 0.0 [] plan

let pp_action ppf = function
  | Crash h -> Fmt.pf ppf "crash %d" h
  | Restart h -> Fmt.pf ppf "restart %d" h
  | Partition { groups; duration } ->
    Fmt.pf ppf "partition %a for %gs"
      Fmt.(list ~sep:(any "|") (list ~sep:comma int))
      groups duration
  | Heal -> Fmt.pf ppf "heal"
  | Loss_burst { rate; duration } -> Fmt.pf ppf "loss %.3f for %gs" rate duration
  | Dup_burst { rate; duration } -> Fmt.pf ppf "dup %.3f for %gs" rate duration
  | Delay_burst { extra_mean; duration } -> Fmt.pf ppf "delay +%gs for %gs" extra_mean duration
  | Corrupt_burst { rate; duration } -> Fmt.pf ppf "corrupt %.3f for %gs" rate duration

let pp ppf plan =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list (fun ppf { at; action } -> Fmt.pf ppf "%8.3f  %a" at pp_action action))
    plan

(* ------------------------------------------------------------------ *)
(* Random plans *)

let random ~seed ~victims ~others ?max_down ?(horizon = 30.0) () =
  if victims = [] then invalid_arg "Plan.random: no victims";
  if horizon <= 0.0 then invalid_arg "Plan.random: non-positive horizon";
  let victims = Array.of_list victims in
  let n = Array.length victims in
  let max_down =
    match max_down with Some m -> max 1 (min m n) | None -> max 1 ((n - 1) / 2)
  in
  (* The plan generator owns its PRNG: it never touches any simulation
     stream, so the plan is a pure function of [seed] alone. *)
  let prng = Prng.create seed in
  (* Per-victim time until which it is "disturbed" — down or isolated.
     The invariant |{i : disturbed_until i > t}| <= max_down holds at
     every instant: a majority of victims is always fully available. *)
  let disturbed_until = Array.make n 0.0 in
  (* At most one in-flight episode per kind. *)
  let partition_until = ref 0.0 in
  let loss_until = ref 0.0 in
  let dup_until = ref 0.0 in
  let delay_until = ref 0.0 in
  let corrupt_until = ref 0.0 in
  let steps = ref [] in
  let push at action = steps := { at; action } :: !steps in
  let latest_start = horizon *. 0.8 in
  let latest_end = horizon *. 0.95 in
  let gap_mean = horizon /. 12.0 in
  let burst_duration t = Float.min (Prng.uniform prng ~lo:0.3 ~hi:1.5) (latest_end -. t) in
  let rec loop t =
    let t = t +. Prng.exponential prng ~mean:gap_mean in
    if t < latest_start then begin
      let disturbed = ref 0 in
      Array.iter (fun u -> if u > t then incr disturbed) disturbed_until;
      let free = ref [] in
      for i = n - 1 downto 0 do
        if disturbed_until.(i) <= t then free := i :: !free
      done;
      let free = Array.of_list !free in
      let room = max_down - !disturbed in
      let can_disturb = room > 0 && Array.length free > 0 in
      let gen_crash () =
        let i = free.(Prng.int prng (Array.length free)) in
        let downtime = Prng.uniform prng ~lo:0.5 ~hi:2.5 in
        let back_at = Float.min (t +. downtime) (horizon *. 0.9) in
        disturbed_until.(i) <- back_at;
        push t (Crash victims.(i));
        push back_at (Restart victims.(i))
      in
      let gen_partition () =
        let kmax = min room (Array.length free) in
        let k = 1 + Prng.int prng kmax in
        Prng.shuffle prng free;
        let isolated = Array.to_list (Array.sub free 0 k) in
        let duration = Float.min (Prng.uniform prng ~lo:0.3 ~hi:2.0) (latest_end -. t) in
        List.iter
          (fun i -> disturbed_until.(i) <- Float.max disturbed_until.(i) (t +. duration))
          isolated;
        partition_until := t +. duration;
        let minority = List.map (fun i -> victims.(i)) isolated in
        let majority =
          others
          @ (Array.to_list victims |> List.filter (fun v -> not (List.mem v minority)))
        in
        push t (Partition { groups = [ majority; minority ]; duration })
      in
      let gen_loss () =
        let duration = burst_duration t in
        loss_until := t +. duration;
        push t (Loss_burst { rate = Prng.uniform prng ~lo:0.05 ~hi:0.4; duration })
      in
      let gen_dup () =
        let duration = burst_duration t in
        dup_until := t +. duration;
        push t (Dup_burst { rate = Prng.uniform prng ~lo:0.05 ~hi:0.3; duration })
      in
      let gen_delay () =
        let duration = burst_duration t in
        delay_until := t +. duration;
        push t
          (Delay_burst { extra_mean = Prng.uniform prng ~lo:0.001 ~hi:0.01; duration })
      in
      let gen_corrupt () =
        let duration = burst_duration t in
        corrupt_until := t +. duration;
        push t (Corrupt_burst { rate = Prng.uniform prng ~lo:0.01 ~hi:0.15; duration })
      in
      let menu =
        List.concat
          [ (if can_disturb then [ gen_crash ] else []);
            (if can_disturb && !partition_until <= t then [ gen_partition ] else []);
            (if !loss_until <= t then [ gen_loss ] else []);
            (if !dup_until <= t then [ gen_dup ] else []);
            (if !delay_until <= t then [ gen_delay ] else []);
            (if !corrupt_until <= t then [ gen_corrupt ] else []) ]
      in
      (match menu with
      | [] -> ()
      | _ :: _ -> (List.nth menu (Prng.int prng (List.length menu))) ());
      loop t
    end
  in
  loop 0.5;
  sort (List.rev !steps)
