type t = { edges : (int, int list ref) Hashtbl.t }

let create () = { edges = Hashtbl.create 32 }

let successors t n = match Hashtbl.find_opt t.edges n with Some l -> !l | None -> []

let add_edge t ~waiter ~holder =
  if waiter <> holder then begin
    match Hashtbl.find_opt t.edges waiter with
    | Some l -> if not (List.mem holder !l) then l := holder :: !l
    | None -> Hashtbl.add t.edges waiter (ref [ holder ])
  end

let remove_waiter t n = Hashtbl.remove t.edges n

let remove_txn t n =
  Hashtbl.remove t.edges n;
  Hashtbl.iter (fun _ l -> l := List.filter (fun m -> m <> n) !l) t.edges

(* DFS from [start]; true if [target] is reachable. *)
let reaches t start target =
  let visited = Hashtbl.create 16 in
  let rec dfs n =
    if n = target then true
    else if Hashtbl.mem visited n then false
    else begin
      Hashtbl.add visited n ();
      List.exists dfs (successors t n)
    end
  in
  dfs start

let would_deadlock t ~waiter ~holders = List.exists (fun h -> reaches t h waiter) holders
