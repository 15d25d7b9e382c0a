open Circus_net
open Circus_rpc
module Codec = Circus_wire.Codec
module Fiber = Circus_sim.Fiber
module Causal = Circus_trace.Causal

exception Unknown_service of string

(* Key for the single-flight table: one entry per binding question in
   flight, whether asked by name (lookup/rebind) or by id (resolve). *)
type flight_key = By_name of string | By_id of Ids.Troupe_id.t

(* The lookups that follow a flight, each parked on its fiber's own
   park, and the answer the asker leaves them; [orphaned] once the
   asker was cancelled instead. *)
type flight = {
  mutable followers : unit Fiber.park list;
  mutable answer : Troupe.t option;
  mutable orphaned : bool;
}

type t = {
  rt : Runtime.t;
  ringmaster : Troupe.t;
  by_name : (string, Troupe.t) Hashtbl.t;
  by_id : (Ids.Troupe_id.t, Addr.t list) Hashtbl.t;
  (* Round-robin cursor for single-member binding reads. *)
  mutable read_rr : int;
  (* Lookup gate.  A cold cache (or a reconfiguration noticed by a
     whole worker pool at once) turns every caller into a Ringmaster
     client simultaneously; unbounded, that dogpile queues the binding
     troupe's hosts past the paired-message retransmit interval and
     the storm feeds itself.  Two structural bounds defuse it:
     identical in-flight questions are deduplicated ([inflight] —
     one rm call, every waiter shares its answer), and distinct
     questions pass through a gate of one permit ([lookup_busy]) so a
     cold cache ramps one question at a time. *)
  inflight : (flight_key, flight) Hashtbl.t;
  mutable lookup_busy : bool;  (* the permit is taken *)
  mutable lookup_q : unit Fiber.park list;  (* oldest first *)
}

let runtime t = t.rt

(* Registry replicas execute writes from *different* clients in
   whatever order the datagrams land, so a call collated while two
   writes are crossing can gather answers computed from different
   intermediate states and raise [Collator.Disagreement].  The registry
   state itself converges (member lists are kept sorted so changes
   commute, and the id counter advances in lockstep at every replica),
   which makes the disagreement a transient: re-asking after the
   in-flight writes have landed yields agreeing answers.  Bounded
   retries keep a genuine replica divergence detectable. *)
let ringmaster_call ?multicast t ctx ~proc_no body =
  let rec attempt retries delay =
    match Runtime.call_troupe ctx t.ringmaster ~proc_no ?multicast body with
    | answer -> answer
    | exception Collator.Disagreement when retries > 0 ->
      Fiber.sleep delay;
      attempt (retries - 1) (2.0 *. delay)
  in
  attempt 3 0.05

(* Binding reads are hints (§6.1): a stale answer is already masked by
   troupe-id rejection plus rebind, so a read does not need the full
   replicated call that makes every registry member execute it.
   Asking one member — rotating through the troupe — divides the
   partition's per-read CPU by the replication factor, which is what
   lets binding read capacity scale with partitions instead of burning
   every replica on every lookup.  A failed member (crashed, lagging,
   rejecting) falls back to the replicated call, which masks
   individual failures the usual way. *)
let ringmaster_read t ctx ~proc_no body =
  match t.ringmaster.Troupe.members with
  | [] | [ _ ] -> ringmaster_call t ctx ~proc_no body
  | members -> (
    let n = List.length members in
    let k = t.read_rr mod n in
    t.read_rr <- (k + 1) mod n;
    match Runtime.call_module ctx (List.nth members k) ~proc_no body with
    | answer -> answer
    | exception _ -> ringmaster_call t ctx ~proc_no body)

let without p = List.filter (fun q -> q != p)

(* A lookup cancelled in the queue leaves it: the permit goes to the
   next live one. *)
let gate_acquire t =
  if not t.lookup_busy then t.lookup_busy <- true
  else begin
    let p = Fiber.own_park (Fiber.self ()) in
    t.lookup_q <- t.lookup_q @ [ p ];
    Fiber.park_own p ~on_abort:(fun () -> t.lookup_q <- without p t.lookup_q)
  end

let gate_release t =
  match t.lookup_q with
  | p :: rest ->
    (* Hand the permit straight to the next waiter; it stays taken. *)
    t.lookup_q <- rest;
    Fiber.unpark p ()
  | [] -> t.lookup_busy <- false

(* Run [f] as the single flight for [key]: the first asker performs the
   (gated) Ringmaster call, everyone arriving while it is in flight
   waits and shares the same outcome — answer or exception.  A follower
   cancelled meanwhile leaves the flight.  An asker cancelled meanwhile
   does not hand its cancellation on: its followers wake and ask again,
   so the first of them to resume makes a new flight, which the rest
   follow (a follower takes over from a failed leader). *)
let rec single_flight t key f =
  match Hashtbl.find_opt t.inflight key with
  | Some flight ->
    let p = Fiber.own_park (Fiber.self ()) in
    flight.followers <- p :: flight.followers;
    Fiber.park_own p ~on_abort:(fun () -> flight.followers <- without p flight.followers);
    if flight.orphaned then single_flight t key f else flight.answer
  | None ->
    let flight = { followers = []; answer = None; orphaned = false } in
    Hashtbl.replace t.inflight key flight;
    let result =
      match gate_acquire t with
      | () -> (
        match f () with
        | answer ->
          gate_release t;
          Ok answer
        | exception e ->
          gate_release t;
          Error e)
      | exception e -> Error e
    in
    Hashtbl.remove t.inflight key;
    let followers = List.rev flight.followers in
    match result with
    | Ok answer ->
      flight.answer <- answer;
      List.iter (fun p -> Fiber.unpark p ()) followers;
      answer
    | Error Fiber.Cancelled ->
      flight.orphaned <- true;
      List.iter (fun p -> Fiber.unpark p ()) followers;
      raise Fiber.Cancelled
    | Error e ->
      List.iter (fun p -> Fiber.unpark_exn p e) followers;
      raise e

(* One copy of what the caches share.  Every client on a domain decodes
   the same registry answers — a scenario's front ends each warm their
   own cache from the same partitions — so each troupe, name and member
   list a cache keeps passes through a weak intern set first, and equal
   values become one.  The sets are weak, so they keep nothing alive
   that no cache holds, and per domain, so parallel runs share no
   mutable state.  Sharing is safe because these values are immutable
   and nothing compares them physically; interning bypasses
   [Troupe.make], which would emit a trace event. *)
module Troupes = Weak.Make (struct
  type t = Troupe.t

  let equal (a : t) (b : t) =
    Ids.Troupe_id.equal a.id b.id && List.equal Addr.equal_module a.members b.members

  let hash = Hashtbl.hash
end)

module Names = Weak.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Processes = Weak.Make (struct
  type t = Addr.t list

  let equal = List.equal Addr.equal
  let hash = Hashtbl.hash
end)

type interned = { troupes : Troupes.t; names : Names.t; processes : Processes.t }

let interned =
  Domain.DLS.new_key (fun () ->
      { troupes = Troupes.create 64; names = Names.create 64; processes = Processes.create 64 })

let cache_troupe t troupe =
  let i = Domain.DLS.get interned in
  let troupe = Troupes.merge i.troupes troupe in
  Hashtbl.replace t.by_id troupe.Troupe.id
    (Processes.merge i.processes (Troupe.member_processes troupe));
  troupe

let cache_named t name troupe =
  let troupe = cache_troupe t troupe in
  Hashtbl.replace t.by_name (Names.merge (Domain.DLS.get interned).names name) troupe;
  troupe

let cache_name_answer t name answer =
  Option.map (cache_named t name) (Codec.decode Ringmaster.troupe_opt answer)

(* Each asker's own chain gets the lookup bracket — cache hits in
   [import] skip it entirely, so the "lookup" attribution stage counts
   only time actually spent asking (or queueing behind) the
   Ringmaster. *)
let causal_step t name =
  if Causal.on () then
    ignore (Causal.step ~host:(Host.id (Runtime.host t.rt)) name)

let lookup t ctx name =
  causal_step t "lookup";
  match
    single_flight t (By_name name) (fun () ->
        cache_name_answer t name
          (ringmaster_read t ctx ~proc_no:Ringmaster.proc_lookup_by_name
             (Codec.encode Codec.string name)))
  with
  | Some troupe ->
    causal_step t "lookup_done";
    troupe
  | None -> raise (Unknown_service name)

let import t ctx name =
  match Hashtbl.find_opt t.by_name name with Some troupe -> troupe | None -> lookup t ctx name

let invalidate t name = Hashtbl.remove t.by_name name

let cached t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name troupe acc -> (name, troupe) :: acc) t.by_name [])

let rebind t ctx name =
  causal_step t "lookup";
  match
    single_flight t (By_name name) (fun () ->
        let old_id =
          match Hashtbl.find_opt t.by_name name with
          | Some troupe -> troupe.Troupe.id
          | None -> Ids.Troupe_id.none
        in
        Hashtbl.remove t.by_name name;
        cache_name_answer t name
          (ringmaster_read t ctx ~proc_no:Ringmaster.proc_rebind
             (Codec.encode Ringmaster.rebind_args (name, old_id))))
  with
  | Some troupe ->
    causal_step t "lookup_done";
    troupe
  | None -> raise (Unknown_service name)

let call t ctx ~service ~proc_no ?multicast ?collator ?(retries = 3) body =
  let rec attempt remaining troupe =
    match Runtime.call_troupe ctx troupe ~proc_no ?multicast ?collator body with
    | result -> result
    | exception
        (( Runtime.Stale_binding _ | Circus_pairmsg.Endpoint.Rejected _
         | Circus_pairmsg.Endpoint.Crashed _ | Collator.Troupe_failed ) as e) ->
      if remaining = 0 then raise e
      else begin
        (* Stale cached binding (§6.1): refresh and retry. *)
        let troupe = rebind t ctx service in
        attempt (remaining - 1) troupe
      end
  in
  attempt retries (import t ctx service)

let register t ctx ~name troupe =
  let answer =
    ringmaster_call t ctx ~proc_no:Ringmaster.proc_register_troupe
      (Codec.encode Ringmaster.register_args (name, troupe))
  in
  invalidate t name;
  Codec.decode Ids.Troupe_id.codec answer

let member_change t ctx ~proc_no ~name member =
  let answer =
    ringmaster_call t ctx ~proc_no (Codec.encode Ringmaster.member_args (name, member))
  in
  invalidate t name;
  cache_name_answer t name answer

let add_member t ctx ~name member =
  member_change t ctx ~proc_no:Ringmaster.proc_add_troupe_member ~name member

let remove_member t ctx ~name member =
  member_change t ctx ~proc_no:Ringmaster.proc_remove_troupe_member ~name member

let enumerate t ctx =
  Codec.decode Ringmaster.listing
    (ringmaster_read t ctx ~proc_no:Ringmaster.proc_enumerate Bytes.empty)

(* Bulk cache warm: one enumerate call fills the whole name cache for
   this client's registry, O(1) registry calls per client instead of
   one lookup per name.  At fleet scale that is the difference between
   front ends warming in a few calls and a cold-start lookup storm the
   binding troupe cannot absorb.  Names registered after the snapshot
   fall back to on-demand lookups. *)
let warm t ctx =
  List.iter (fun (name, troupe) -> ignore (cache_named t name troupe)) (enumerate t ctx)

let export_service t ctx ~name ~module_no =
  (* From now on, reconfiguration pushes for this module also rename our
     client identity. *)
  Runtime.set_self_troupe_follows t.rt (Some module_no);
  match add_member t ctx ~name (Runtime.module_addr t.rt module_no) with
  | Some troupe ->
    (* The Ringmaster already pushed the new troupe ID to every member
       (including us) via set_troupe_id; adopt it as our client
       identity too — monotonically, since a later reconfiguration may
       have raced past this reply. *)
    Runtime.adopt_self_troupe t.rt troupe.Troupe.id;
    Runtime.adopt_export_troupe t.rt ~module_no troupe.Troupe.id;
    troupe
  | None -> raise (Unknown_service name)

(* Resolve a client troupe ID for the server half of the runtime: local
   cache first, then a lookup at the Ringmaster (§4.3.2).  The
   comparison is against this client's own registry troupe id, so the
   same code serves any Ringmaster partition (ids 1..P). *)
let resolve t id =
  if Ids.Troupe_id.equal id t.ringmaster.Troupe.id then
    Some (Troupe.member_processes t.ringmaster)
  else
    match Hashtbl.find_opt t.by_id id with
    | Some members -> Some members
    | None -> (
      match
        single_flight t (By_id id) (fun () ->
            let ctx = Runtime.detached_ctx t.rt in
            let answer =
              ringmaster_read t ctx ~proc_no:Ringmaster.proc_lookup_by_id
                (Codec.encode Ids.Troupe_id.codec id)
            in
            Option.map (cache_troupe t) (Codec.decode Ringmaster.troupe_opt answer))
      with
      | Some troupe -> Some (Troupe.member_processes troupe)
      | None -> None
      | exception _ -> None)

let create rt ~ringmaster =
  let t =
    { rt;
      ringmaster;
      by_name = Hashtbl.create 16;
      by_id = Hashtbl.create 16;
      read_rr = 0;
      inflight = Hashtbl.create 8;
      lookup_busy = false;
      lookup_q = [] }
  in
  Runtime.set_resolver rt (resolve t);
  t
