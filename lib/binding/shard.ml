open Circus_rpc

type t = {
  rt : Runtime.t;
  clients : Client.t array;
  ringmasters : Troupe.t array;
}

let partitions t = Array.length t.clients
let client t p = t.clients.(p)
let partition_of t name = Ringmaster.partition_of_name ~partitions:(partitions t) name

(* Route an id to the partition that can resolve it: the reserved ids
   1..P are the registry troupes themselves (degenerate binding), and
   any minted id carries its partition in its high 32 bits.  An id from
   outside both ranges (e.g. a stale id from a wider old partition map)
   falls through to partition 0's remote lookup, which simply fails. *)
let route ringmasters id =
  let n = Array.length ringmasters in
  if Int64.compare id 1L >= 0 && Int64.compare id (Int64.of_int n) <= 0 then
    Some (Int64.to_int id - 1)
  else
    let p = Ringmaster.partition_of_id id in
    if p >= 0 && p < n then Some p else None

let resolve t id =
  match route t.ringmasters id with
  | Some p ->
    if Ids.Troupe_id.equal id t.ringmasters.(p).Troupe.id then
      Some (Troupe.member_processes t.ringmasters.(p))
    else Client.resolve t.clients.(p) id
  | None -> Client.resolve t.clients.(0) id

let member_resolver ringmasters id =
  match route ringmasters id with
  | Some p when Ids.Troupe_id.equal id ringmasters.(p).Troupe.id ->
    Some (Troupe.member_processes ringmasters.(p))
  | Some _ | None -> None

let create rt ~ringmasters =
  if Array.length ringmasters = 0 then invalid_arg "Shard.create: no partitions";
  Array.iteri
    (fun p rm ->
      if not (Ids.Troupe_id.equal rm.Troupe.id (Ringmaster.partition_troupe_id p)) then
        invalid_arg "Shard.create: ringmaster id does not match its partition")
    ringmasters;
  let clients = Array.map (fun rm -> Client.create rt ~ringmaster:rm) ringmasters in
  let t = { rt; clients; ringmasters } in
  (* Each Client.create installed itself as the runtime's resolver;
     overwrite with the partition-routing one. *)
  Runtime.set_resolver rt (resolve t);
  t

let call t ctx ~service ~proc_no ?multicast ?collator ?retries body =
  Client.call
    t.clients.(partition_of t service)
    ctx ~service ~proc_no ?multicast ?collator ?retries body

let register t ctx ~name troupe = Client.register t.clients.(partition_of t name) ctx ~name troupe
