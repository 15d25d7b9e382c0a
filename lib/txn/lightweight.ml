module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event

exception Deadlock
exception Txn_aborted

type txn = {
  id : int;
  mutable active : bool;
  mutable undo : (unit -> unit) list;  (* newest first *)
}

type t = {
  lm : Lock_manager.t;
  store : (string, bytes) Hashtbl.t;
  mutable next_id : int;
}

type savepoint = int  (* undo-log length at the savepoint *)

let create engine = { lm = Lock_manager.create engine; store = Hashtbl.create 64; next_id = 0 }

let begin_txn t =
  t.next_id <- t.next_id + 1;
  { id = t.next_id; active = true; undo = [] }

let txn_id txn = txn.id

let check txn = if not txn.active then raise Txn_aborted

let lock t txn key mode =
  match Lock_manager.acquire t.lm ~txn:txn.id ~key mode with
  | `Granted ->
    if Trace.on () then
      Trace.emit ~cat:"txn"
        ~args:
          [ ("txn", Tev.Int txn.id);
            ("key", Tev.Str key);
            ("mode", Tev.Str (match mode with Lock_manager.Read -> "read" | Write -> "write")) ]
        "lock"
  | `Deadlock ->
    if Trace.on () then begin
      Trace.incr "txn.deadlocks";
      Trace.emit ~cat:"txn"
        ~args:[ ("txn", Tev.Int txn.id); ("key", Tev.Str key) ]
        "deadlock"
    end;
    raise Deadlock

let get t txn key =
  check txn;
  lock t txn key Lock_manager.Read;
  Hashtbl.find_opt t.store key

let set t txn key value =
  check txn;
  lock t txn key Lock_manager.Write;
  let previous = Hashtbl.find_opt t.store key in
  txn.undo <-
    (fun () ->
      match previous with
      | Some old -> Hashtbl.replace t.store key old
      | None -> Hashtbl.remove t.store key)
    :: txn.undo;
  match value with
  | Some v -> Hashtbl.replace t.store key v
  | None -> Hashtbl.remove t.store key

let commit t txn =
  check txn;
  txn.active <- false;
  txn.undo <- [];
  Lock_manager.release_all t.lm ~txn:txn.id

let abort t txn =
  if txn.active then begin
    txn.active <- false;
    List.iter (fun undo -> undo ()) txn.undo;
    txn.undo <- [];
    Lock_manager.release_all t.lm ~txn:txn.id
  end

let savepoint _t txn = List.length txn.undo

let rollback_to _t txn mark =
  check txn;
  let to_undo = List.length txn.undo - mark in
  let rec undo_n n log =
    if n <= 0 then log
    else
      match log with
      | [] -> []
      | undo :: rest ->
        undo ();
        undo_n (n - 1) rest
  in
  txn.undo <- undo_n to_undo txn.undo

let read_committed t key = Hashtbl.find_opt t.store key

let snapshot t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.store []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let load t entries =
  Hashtbl.reset t.store;
  List.iter (fun (k, v) -> Hashtbl.replace t.store k v) entries
