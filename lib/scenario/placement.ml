open Circus_net
open Circus_config

type t = {
  lps : int;
  universe : Solver.machine list ref array; (* server machines per LP, registration order *)
  load : (Addr.host_id, int ref) Hashtbl.t; (* members placed per host *)
  lp_load : int array; (* members placed per LP *)
}

let create ~lps () =
  if lps <= 0 then invalid_arg "Placement.create: lps <= 0";
  { lps;
    universe = Array.init lps (fun _ -> ref []);
    load = Hashtbl.create 256;
    lp_load = Array.make lps 0 }

let add_server t ~lp host =
  if lp < 0 || lp >= t.lps then invalid_arg "Placement.add_server: lp out of range";
  let m = Solver.machine_of_host host in
  t.universe.(lp) := m :: !(t.universe.(lp));
  Hashtbl.replace t.load m.Solver.machine_id (ref 0)

let server_count t =
  Array.fold_left (fun acc l -> acc + List.length !l) 0 t.universe

let host_load t host_id =
  match Hashtbl.find_opt t.load host_id with Some r -> !r | None -> 0

(* LPs that have at least one server, cheapest first (ties by index). *)
let lps_by_load t =
  let eligible = ref [] in
  for lp = t.lps - 1 downto 0 do
    if !(t.universe.(lp)) <> [] then eligible := lp :: !eligible
  done;
  List.stable_sort (fun a b -> compare t.lp_load.(a) t.lp_load.(b)) !eligible

(* Pick the shard of each of the [replicas] members: the first replica
   lands on [caller_lp] when it has servers (co-locate one member with
   the troupe's callers), the rest spread over the least-loaded other
   shards, cycling only when there are more replicas than shards. *)
let target_lps t ~caller_lp ~replicas =
  match lps_by_load t with
  | [] -> None
  | ranked ->
    let first =
      if caller_lp >= 0 && caller_lp < t.lps && !(t.universe.(caller_lp)) <> [] then caller_lp
      else List.hd ranked
    in
    let rest = List.filter (fun lp -> lp <> first) ranked in
    let rec fill acc n pool =
      if n = 0 then List.rev acc
      else
        match pool with
        | [] -> fill acc n (first :: rest) (* more replicas than shards: wrap *)
        | lp :: pool -> fill (lp :: acc) (n - 1) pool
    in
    Some (fill [ first ] (replicas - 1) rest)

let place t ~caller_lp ~replicas =
  if replicas <= 0 then invalid_arg "Placement.place: replicas <= 0";
  match target_lps t ~caller_lp ~replicas with
  | None -> Error "placement: no server hosts registered"
  | Some targets ->
    (* One solver variable per member, constrained to its target shard;
       candidates ranked least-loaded first so the solver's
       first-solution order implements load balancing.  Distinctness of
       the chosen machines is the solver's own job. *)
    let n = List.length targets in
    let formula =
      List.mapi
        (fun i lp ->
          Ast.And
            ( Ast.Property (i, "server"),
              Ast.Compare (i, "lp", Ast.Eq, Ast.Num (Float.of_int lp)) ))
        targets
      |> function
      | [] -> assert false
      | f :: fs -> List.fold_left (fun acc f -> Ast.And (acc, f)) f fs
    in
    let spec = { Ast.vars = List.init n (Printf.sprintf "m%d"); formula } in
    let by_key (la, a) (lb, b) =
      match Int.compare la lb with
      | 0 -> Int.compare a.Solver.machine_id b.Solver.machine_id
      | c -> c
    in
    let candidates =
      List.concat_map (fun lp -> !(t.universe.(lp))) (List.sort_uniq Int.compare targets)
      |> List.map (fun m -> (host_load t m.Solver.machine_id, m))
      |> List.stable_sort by_key |> List.map snd
    in
    (match Solver.instantiate spec ~universe:candidates with
    | None -> Error "placement: unsatisfiable (not enough distinct hosts on target shards)"
    | Some machines ->
      List.iter2
        (fun lp m ->
          (match Hashtbl.find_opt t.load m.Solver.machine_id with
          | Some r -> Stdlib.incr r
          | None -> Hashtbl.replace t.load m.Solver.machine_id (ref 1));
          t.lp_load.(lp) <- t.lp_load.(lp) + 1)
        targets machines;
      Ok machines)

let server_attributes ~lp = [ ("server", Host.Flag true); ("lp", Host.Num (Float.of_int lp)) ]
