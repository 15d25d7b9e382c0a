open Circus_net

type machine = { machine_id : Addr.host_id; attrs : (string * Host.attribute_value) list }

let machine_of_host host = { machine_id = Host.id host; attrs = Host.attributes host }

let compare_values cmp (actual : Host.attribute_value) (wanted : Ast.value) =
  let test order =
    match cmp with
    | Ast.Eq -> order = 0
    | Ast.Ne -> order <> 0
    | Ast.Lt -> order < 0
    | Ast.Le -> order <= 0
    | Ast.Gt -> order > 0
    | Ast.Ge -> order >= 0
  in
  match (actual, wanted) with
  | Host.Str s, Ast.Str s' -> test (String.compare s s')
  | Host.Num x, Ast.Num x' -> test (Float.compare x x')
  | Host.Flag _, _ | _, _ -> false

let rec eval formula assignment =
  match formula with
  | Ast.And (a, b) -> eval a assignment && eval b assignment
  | Ast.Or (a, b) -> eval a assignment || eval b assignment
  | Ast.Not a -> not (eval a assignment)
  | Ast.Property (v, attr) -> (
    match List.assoc_opt attr assignment.(v).attrs with
    | Some (Host.Flag b) -> b
    | Some (Host.Str _ | Host.Num _) | None -> false)
  | Ast.Compare (v, attr, cmp, wanted) -> (
    match List.assoc_opt attr assignment.(v).attrs with
    | Some actual -> compare_values cmp actual wanted
    | None -> false)

let satisfies spec machines =
  List.length machines = Ast.arity spec
  && eval spec.Ast.formula (Array.of_list machines)

let rec max_var n = function
  | Ast.And (a, b) | Ast.Or (a, b) -> Int.max (max_var n a) (max_var n b)
  | Ast.Not a -> max_var n a
  | Ast.Property (v, _) | Ast.Compare (v, _, _, _) ->
    if v < 0 || v >= n then invalid_arg (Printf.sprintf "Solver: variable %d out of range" v);
    v

(* Backtracking over assignments of distinct machines to variables, in
   [candidates] order.  Each top-level conjunct is checked as soon as
   its highest variable is assigned, so only subtrees holding no
   solution are cut and the solutions come out in the same order as a
   generate-and-test over full assignments would give them.  [found]
   sees each solution in turn and returns [true] to stop the search. *)
let search spec ~candidates ~found =
  let n = Ast.arity spec in
  let checks = Array.make n [] in
  let rec file = function
    | Ast.And (a, b) ->
      file b;
      file a
    | c ->
      let i = max_var n c in
      checks.(i) <- c :: checks.(i)
  in
  file spec.Ast.formula;
  let assignment = Array.make n { machine_id = -1; attrs = [] } in
  let used = Hashtbl.create 8 in
  let rec assign i = if i = n then found assignment else List.exists (assign_to i) candidates
  and assign_to i m =
    if Hashtbl.mem used m.machine_id then false
    else begin
      assignment.(i) <- m;
      if not (List.for_all (fun c -> eval c assignment) checks.(i)) then false
      else begin
        Hashtbl.replace used m.machine_id ();
        let stop = assign (i + 1) in
        Hashtbl.remove used m.machine_id;
        stop
      end
    end
  in
  ignore (assign 0)

let instantiate spec ~universe =
  let first = ref None in
  search spec ~candidates:universe ~found:(fun a ->
      first := Some (Array.to_list a);
      true);
  !first

(* All solutions, keeping the first with the smallest symmetric
   difference from the current member set. *)
let extend spec ~universe ~current =
  let best = ref None in
  let score machines =
    let ids = List.map (fun m -> m.machine_id) machines in
    let removed = List.length (List.filter (fun id -> not (List.mem id ids)) current) in
    let added = List.length (List.filter (fun id -> not (List.mem id current)) ids) in
    removed + added
  in
  search spec ~candidates:universe ~found:(fun a ->
      let machines = Array.to_list a in
      let s = score machines in
      (match !best with
      | Some (s', _) when s' <= s -> ()
      | Some _ | None -> best := Some (s, machines));
      false);
  Option.map snd !best
