open Circus_net
open Circus_rpc
module Codec = Circus_wire.Codec

let ringmaster_port = 111

(* Name-hash partitioning.  Partition [p]'s registry troupe identifies
   itself with the reserved id [1 + p] (partition 0 is the legacy
   single-partition Ringmaster, id 1), and mints troupe ids from
   generator seed [7 + p], so the minting partition of any assigned id
   can be read back from its high 32 bits.  Reserved ids stay clear of
   minted ones: generators put their seed in the high word, and seeds
   start at 7, so minted ids are >= 7 * 2^32. *)

let id_seed_base = 7

let partition_troupe_id p =
  if p < 0 then invalid_arg "Ringmaster.partition_troupe_id: negative partition";
  Int64.of_int (1 + p)

(* FNV-1a, 64-bit.  Every client and every registry member must agree
   on the partition of a name, so the hash is a fixed function of the
   bytes — never [Hashtbl.hash], whose value is unspecified. *)
let name_hash name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    name;
  !h

let partition_of_name ~partitions name =
  if partitions <= 0 then invalid_arg "Ringmaster.partition_of_name: partitions <= 0";
  if partitions = 1 then 0
  else Int64.to_int (Int64.unsigned_rem (name_hash name) (Int64.of_int partitions))

let partition_of_id id = Int64.to_int (Int64.shift_right_logical id 32) - id_seed_base

let proc_register_troupe = 0
let proc_add_troupe_member = 1
let proc_lookup_by_name = 2
let proc_lookup_by_id = 3
let proc_remove_troupe_member = 4
let proc_enumerate = 5
let proc_rebind = 6

let register_args = Codec.pair Codec.string Troupe.codec
let member_args = Codec.pair Codec.string Troupe.module_addr_codec
let troupe_opt = Codec.option Troupe.codec
let listing = Codec.list (Codec.pair Codec.string Troupe.codec)
let rebind_args = Codec.pair Codec.string Ids.Troupe_id.codec

let bootstrap_troupe ?(partition = 0) ~hosts () =
  let members =
    List.map (fun host -> Addr.module_addr (Addr.make ~host ~port:ringmaster_port) 0) hosts
  in
  Troupe.make ~id:(partition_troupe_id partition) ~members

type registry = {
  table : (string, Troupe.t) Hashtbl.t;
  fresh_id : unit -> Ids.Troupe_id.t;
  partition : int;
  partitions : int;
}

(* A misrouted name means a client disagrees with the registry about
   the partition map — registering it here would silently split the
   namespace, so reject loudly instead. *)
let check_owner registry name =
  if
    registry.partitions > 1
    && partition_of_name ~partitions:registry.partitions name <> registry.partition
  then raise Runtime.Bad_interface

(* Push the new troupe ID to every member via the generated
   set_troupe_id procedure, as a subtransaction of the membership
   change (Figure 6.2).  Unreachable members are skipped: they will be
   garbage-collected, and meanwhile they reject calls, which is safe. *)
let push_troupe_id ctx (troupe : Troupe.t) =
  let payload = Codec.encode (Codec.option Ids.Troupe_id.codec) (Some troupe.Troupe.id) in
  List.iter
    (fun (member : Addr.module_addr) ->
      try
        ignore
          (Runtime.call_module ctx member ~proc_no:Runtime.reserved_set_troupe_id_proc payload)
      with _ -> ())
    troupe.Troupe.members

let register registry ctx name (troupe : Troupe.t) =
  let id = registry.fresh_id () in
  let renamed =
    { Troupe.id = id;
      members = List.sort Addr.compare_module troupe.Troupe.members }
  in
  Hashtbl.replace registry.table name renamed;
  push_troupe_id ctx renamed;
  id

let change_members registry ctx name transform =
  let current = Hashtbl.find_opt registry.table name in
  let members =
    match current with Some t -> transform t.Troupe.members | None -> transform []
  in
  match members with
  | [] ->
    Hashtbl.remove registry.table name;
    None
  | members ->
    (* Canonical member order.  The registry is itself replicated, and
       one-to-many calls from *different* clients carry no cross-client
       ordering guarantee: two concurrent joins can reach the registry
       replicas in opposite orders.  Keeping the member list sorted
       makes add/remove commute — every replica converges on the same
       troupe bytes regardless of arrival order, so the unanimous
       collation of later lookups cannot diverge permanently.  (The id
       counter already commutes: it advances once per change at every
       replica.) *)
    let members = List.sort Addr.compare_module members in
    let id = registry.fresh_id () in
    let troupe = Troupe.make ~id ~members in
    Hashtbl.replace registry.table name troupe;
    push_troupe_id ctx troupe;
    Some troupe

let add_member registry ctx name member =
  change_members registry ctx name (fun members ->
      if List.exists (Addr.equal_module member) members then members else members @ [ member ])

let remove_member registry ctx name member =
  change_members registry ctx name
    (fun members -> List.filter (fun m -> not (Addr.equal_module m member)) members)

let lookup_by_id registry id =
  Hashtbl.fold
    (fun _ troupe acc ->
      match acc with
      | Some _ -> acc
      | None -> if Ids.Troupe_id.equal troupe.Troupe.id id then Some troupe else acc)
    registry.table None

let enumerate registry =
  Hashtbl.fold (fun name troupe acc -> (name, troupe) :: acc) registry.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dispatch registry ctx ~proc_no body =
  if proc_no = proc_register_troupe then begin
    let name, troupe = Codec.decode register_args body in
    check_owner registry name;
    Codec.encode Ids.Troupe_id.codec (register registry ctx name troupe)
  end
  else if proc_no = proc_add_troupe_member then begin
    let name, member = Codec.decode member_args body in
    check_owner registry name;
    Codec.encode troupe_opt (add_member registry ctx name member)
  end
  else if proc_no = proc_lookup_by_name then begin
    let name = Codec.decode Codec.string body in
    check_owner registry name;
    Codec.encode troupe_opt (Hashtbl.find_opt registry.table name)
  end
  else if proc_no = proc_lookup_by_id then
    Codec.encode troupe_opt (lookup_by_id registry (Codec.decode Ids.Troupe_id.codec body))
  else if proc_no = proc_remove_troupe_member then begin
    let name, member = Codec.decode member_args body in
    check_owner registry name;
    Codec.encode troupe_opt (remove_member registry ctx name member)
  end
  else if proc_no = proc_enumerate then Codec.encode listing (enumerate registry)
  else if proc_no = proc_rebind then begin
    (* The old binding is only a hint (§6.1): answer with the current
       truth; stale ids need no explicit deletion because registration
       already replaced them. *)
    let name, _old_id = Codec.decode rebind_args body in
    check_owner registry name;
    Codec.encode troupe_opt (Hashtbl.find_opt registry.table name)
  end
  else raise Runtime.Bad_interface

let start_member ?(partition = 0) ?(partitions = 1) ?pairmsg_config env host =
  if partition < 0 || partition >= partitions then
    invalid_arg "Ringmaster.start_member: partition outside [0, partitions)";
  let rt = Runtime.create env host ~port:ringmaster_port ?pairmsg_config () in
  let self_id = partition_troupe_id partition in
  Runtime.set_self_troupe rt self_id;
  (* Seeded identically at every member of the partition: replicas of a
     deterministic module mint identical id sequences, and distinct
     partitions use distinct seeds so their id spaces never collide. *)
  let registry =
    { table = Hashtbl.create 32;
      fresh_id = Ids.Troupe_id.generator ~seed:(id_seed_base + partition);
      partition;
      partitions }
  in
  let module_no = Runtime.export rt (fun ctx ~proc_no body -> dispatch registry ctx ~proc_no body) in
  Runtime.set_export_troupe rt ~module_no (Some self_id);
  rt
