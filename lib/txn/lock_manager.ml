open Circus_sim

type mode = Read | Write

type entry = {
  mutable granted : (int * mode) list;
  queue_changed : Condition.t;
}

type t = {
  engine : Engine.t;
  table : (string, entry) Hashtbl.t;
  graph : Waits_for.t;
}

let create engine = { engine; table = Hashtbl.create 64; graph = Waits_for.create () }

let entry t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    let e = { granted = []; queue_changed = Condition.create () } in
    Hashtbl.add t.table key e;
    e

let compatible requested held = match (requested, held) with Read, Read -> true | _ -> false

(* Holders that block [txn]'s request. *)
let conflicting e ~txn mode =
  List.filter (fun (holder, held) -> holder <> txn && not (compatible mode held)) e.granted

let holds e txn = List.assoc_opt txn e.granted

let acquire t ~txn ~key mode =
  let e = entry t key in
  let rec attempt () =
    match holds e txn with
    | Some Write -> `Granted
    | Some Read when mode = Read -> `Granted
    | held -> (
      let conflicts = conflicting e ~txn mode in
      if conflicts = [] then begin
        (match held with
        | Some Read when mode = Write ->
          (* Lone-holder upgrade. *)
          e.granted <- (txn, Write) :: List.remove_assoc txn e.granted
        | Some _ | None -> e.granted <- (txn, mode) :: e.granted);
        Waits_for.remove_waiter t.graph txn;
        `Granted
      end
      else
        let holders = List.map fst conflicts in
        if Waits_for.would_deadlock t.graph ~waiter:txn ~holders then begin
          Waits_for.remove_waiter t.graph txn;
          `Deadlock
        end
        else begin
          List.iter (fun holder -> Waits_for.add_edge t.graph ~waiter:txn ~holder) holders;
          Condition.await e.queue_changed;
          attempt ()
        end)
  in
  attempt ()

let release_all t ~txn =
  Waits_for.remove_txn t.graph txn;
  Hashtbl.iter
    (fun _ e ->
      let before = List.length e.granted in
      e.granted <- List.filter (fun (holder, _) -> holder <> txn) e.granted;
      if List.length e.granted <> before then Condition.broadcast e.queue_changed)
    t.table

let holders t ~key = match Hashtbl.find_opt t.table key with Some e -> e.granted | None -> []
