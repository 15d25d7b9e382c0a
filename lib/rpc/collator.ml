open Circus_net
module Trace = Circus_trace.Trace

type reply = { from : Addr.module_addr; message : Rpc_msg.return_msg option }
type t = total:int -> reply Seq.t -> Rpc_msg.return_msg

exception Disagreement
exception No_majority
exception Troupe_failed

(* Collation policies are pure, so instrumentation is metrics-only: a
   counter per policy, plus one for detected disagreements — the
   quantity the paper's voting discussion (§4.3.4) turns on. *)
let tick name = if Trace.on () then Trace.incr ("rpc.collate." ^ name)

(* The scan loops below thread their state through arguments of
   top-level recursive functions rather than capturing it in closures:
   collation runs once per RPC, and the closure-free form keeps the
   whole vote-counting path out of the per-call allocation budget
   (asserted by the allocation regression test). *)
let unanimous ~total:_ replies =
  tick "unanimous";
  let rec scan repr s =
    match s () with
    | Seq.Nil -> ( match repr with Some msg -> msg | None -> raise Troupe_failed)
    | Seq.Cons (r, rest) -> (
      match r.message with
      | None -> scan repr rest  (* crashed member: correction, not disagreement *)
      | Some msg -> (
        match repr with
        | None -> scan (Some msg) rest
        | Some first ->
          if msg <> first then begin
            tick "disagreement";
            raise Disagreement
          end
          else scan repr rest))
  in
  scan None replies

let first_come ~total:_ replies =
  tick "first_come";
  let rec scan s =
    match s () with
    | Seq.Nil -> raise Troupe_failed
    | Seq.Cons (r, rest) -> ( match r.message with Some msg -> msg | None -> scan rest)
  in
  scan replies

let rec find_vote msg votes =
  match votes with
  | [] -> None
  | (m, n) :: rest -> if m = msg then Some n else find_vote msg rest

let rec best_vote acc votes =
  match votes with
  | [] -> acc
  | (_, n) :: rest -> best_vote (if !n > acc then !n else acc) rest

(* Accept as soon as some message reaches [threshold] copies; fail as
   soon as it can no longer be reached. *)
let count_votes ~threshold ~total replies =
  let votes : (Rpc_msg.return_msg * int ref) list ref = ref [] in
  let seen = ref 0 in
  let rec scan s =
    match s () with
    | Seq.Nil -> raise No_majority
    | Seq.Cons (r, rest) -> (
      incr seen;
      match r.message with
      | None ->
        (* A lost vote: can any message still reach the threshold? *)
        let remaining = total - !seen in
        if best_vote 0 !votes + remaining < threshold then raise No_majority else scan rest
      | Some msg -> (
        let n =
          match find_vote msg !votes with
          | Some n -> n
          | None ->
            let n = ref 0 in
            votes := (msg, n) :: !votes;
            n
        in
        incr n;
        if !n >= threshold then msg
        else
          let remaining = total - !seen in
          if best_vote 0 !votes + remaining < threshold then raise No_majority else scan rest))
  in
  scan replies

let majority ~total replies =
  tick "majority";
  let threshold = (total / 2) + 1 in
  count_votes ~threshold ~total replies

let quorum k ~total replies =
  tick "quorum";
  if k < 1 || k > total then invalid_arg "Collator.quorum: bad quorum size";
  try count_votes ~threshold:k ~total replies with No_majority -> raise Troupe_failed

(* Weighted voting: like [count_votes] but each member's message carries
   its configured weight. *)
let weighted_quorum ~weights ~threshold ~total replies =
  if threshold < 1 then invalid_arg "Collator.weighted_quorum: bad threshold";
  let weight_of from =
    match List.find_opt (fun (m, _) -> Addr.equal_module m from) weights with
    | Some (_, w) -> w
    | None -> 1
  in
  let total_weight =
    (* conservative upper bound on the outstanding weight: assume every
       not-yet-seen member could carry the heaviest configured weight *)
    let max_weight = List.fold_left (fun acc (_, w) -> max acc w) 1 weights in
    total * max_weight
  in
  let votes : (Rpc_msg.return_msg * int ref) list ref = ref [] in
  let spent = ref 0 in
  let rec scan s =
    match s () with
    | Seq.Nil -> raise No_majority
    | Seq.Cons (r, rest) -> (
      let w = weight_of r.from in
      spent := !spent + w;
      match r.message with
      | None ->
        if best_vote 0 !votes + (total_weight - !spent) < threshold then raise No_majority
        else scan rest
      | Some msg ->
        let n =
          match find_vote msg !votes with
          | Some n -> n
          | None ->
            let n = ref 0 in
            votes := (msg, n) :: !votes;
            n
        in
        n := !n + w;
        if !n >= threshold then msg
        else if best_vote 0 !votes + (total_weight - !spent) < threshold then raise No_majority
        else scan rest)
  in
  scan replies
