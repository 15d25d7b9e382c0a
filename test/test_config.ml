(* Tests for the troupe configuration language and the troupe extension
   solver (§7.5). *)

open Circus_net
open Circus_config

let machine id attrs = { Solver.machine_id = id; attrs }

(* A little machine room modelled on §7.5.2's example. *)
let universe =
  [ machine 0
      [ ("name", Host.Str "UCB-Monet"); ("memory", Host.Num 10.0);
        ("has-floating-point", Host.Flag true) ];
    machine 1
      [ ("name", Host.Str "UCB-Degas"); ("memory", Host.Num 4.0);
        ("has-floating-point", Host.Flag false) ];
    machine 2
      [ ("name", Host.Str "UCB-Renoir"); ("memory", Host.Num 8.0);
        ("has-floating-point", Host.Flag true) ];
    machine 3 [ ("name", Host.Str "UCB-Matisse"); ("memory", Host.Num 16.0) ] ]

let ids machines = List.map (fun m -> m.Solver.machine_id) machines

let test_parse_example () =
  let spec =
    Parser.parse
      {|troupe (x) where x.name = "UCB-Monet" and x.memory = 10 and x.has-floating-point|}
  in
  Alcotest.(check (list string)) "vars" [ "x" ] spec.Ast.vars;
  Alcotest.(check bool) "machine 0 satisfies" true
    (Solver.satisfies spec [ List.nth universe 0 ]);
  Alcotest.(check bool) "machine 2 does not" false
    (Solver.satisfies spec [ List.nth universe 2 ])

let test_parse_rejects_garbage () =
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects " ^ src) true
        (try ignore (Parser.parse src); false with Parser.Parse_error _ -> true))
    [ "troupe () where x.a"; "troupe (x) x.a"; "troupe (x) where y.a"; "troupe (x) where x.a ="; "" ]

let test_precedence_and_not () =
  (* "not" binds tightest, then "and", then "or". *)
  let spec = Parser.parse {|troupe (x) where not x.has-floating-point and x.memory > 3 or x.memory > 15|} in
  (* Parsed as ((not p) and m>3) or (m>15). *)
  Alcotest.(check bool) "degas (no fp, 4G)" true (Solver.satisfies spec [ List.nth universe 1 ]);
  Alcotest.(check bool) "matisse (16G)" true (Solver.satisfies spec [ List.nth universe 3 ]);
  Alcotest.(check bool) "monet (fp, 10G)" false (Solver.satisfies spec [ List.nth universe 0 ])

let test_missing_attribute_is_false () =
  let spec = Parser.parse {|troupe (x) where x.has-floating-point|} in
  Alcotest.(check bool) "matisse lacks the property" false
    (Solver.satisfies spec [ List.nth universe 3 ])

let test_instantiate_distinct () =
  let spec = Parser.parse {|troupe (x, y) where x.memory >= 8 and y.memory >= 8|} in
  match Solver.instantiate spec ~universe with
  | Some machines ->
    let chosen = ids machines in
    Alcotest.(check int) "two machines" 2 (List.length chosen);
    Alcotest.(check bool) "distinct" true (List.nth chosen 0 <> List.nth chosen 1);
    List.iter
      (fun m ->
        match List.assoc_opt "memory" m.Solver.attrs with
        | Some (Host.Num mem) -> Alcotest.(check bool) "memory ok" true (mem >= 8.0)
        | _ -> Alcotest.fail "missing memory")
      machines
  | None -> Alcotest.fail "no solution found"

let test_instantiate_unsatisfiable () =
  let spec = Parser.parse {|troupe (x, y, z) where x.memory > 9 and y.memory > 9 and z.memory > 9|} in
  Alcotest.(check bool) "only two machines have >9G" true
    (Solver.instantiate spec ~universe = None)

let test_extend_prefers_current_members () =
  let spec = Parser.parse {|troupe (x, y) where x.memory >= 8 and y.memory >= 8|} in
  (* Three machines qualify: 0 (10G), 2 (8G), 3 (16G).  The current
     troupe is {2, 3}; the solver must keep both rather than swap in
     machine 0. *)
  match Solver.extend spec ~universe ~current:[ 2; 3 ] with
  | Some machines ->
    Alcotest.(check (list int)) "kept current" [ 2; 3 ] (List.sort Int.compare (ids machines))
  | None -> Alcotest.fail "no solution"

let test_extend_replaces_failed_member () =
  let spec = Parser.parse {|troupe (x, y) where x.memory >= 8 and y.memory >= 8|} in
  (* Machine 9 is gone from the universe (crashed); the solver keeps 0
     and replaces 9 with one of the other qualifying machines. *)
  match Solver.extend spec ~universe ~current:[ 0; 9 ] with
  | Some machines ->
    let chosen = List.sort Int.compare (ids machines) in
    Alcotest.(check bool) "kept machine 0" true (List.mem 0 chosen);
    Alcotest.(check bool) "replacement qualifies" true
      (List.for_all (fun id -> List.mem id [ 0; 2; 3 ]) chosen)
  | None -> Alcotest.fail "no solution"

let test_extend_minimal_change () =
  let spec = Parser.parse {|troupe (x) where x.memory >= 4|} in
  match Solver.extend spec ~universe ~current:[ 1 ] with
  | Some [ m ] -> Alcotest.(check int) "kept member 1" 1 m.Solver.machine_id
  | Some _ | None -> Alcotest.fail "expected a single machine"

let prop_solver_solutions_satisfy =
  QCheck.Test.make ~name:"solutions satisfy spec and are distinct" ~count:100
    QCheck.(pair (int_range 1 3) (int_range 0 20))
    (fun (arity, threshold) ->
      let vars = List.init arity (Printf.sprintf "v%d") in
      let formula =
        List.init arity (fun i -> Ast.Compare (i, "memory", Ast.Ge, Ast.Num (float_of_int threshold)))
        |> function
        | [] -> assert false
        | f :: rest -> List.fold_left (fun acc g -> Ast.And (acc, g)) f rest
      in
      let spec = { Ast.vars; formula } in
      match Solver.instantiate spec ~universe with
      | None -> true
      | Some machines ->
        Solver.satisfies spec machines
        && List.length (List.sort_uniq Int.compare (ids machines)) = arity)

let test_variable_out_of_range () =
  (* The parser cannot produce such a spec, but a hand-built formula
     can; the solver rejects it before searching, even over an empty
     universe. *)
  let spec =
    { Ast.vars = [ "x" ]; formula = Ast.And (Ast.Property (0, "p"), Ast.Property (1, "p")) }
  in
  let rejects name f =
    Alcotest.check_raises name (Invalid_argument "Solver: variable 1 out of range") (fun () ->
        ignore (f ()))
  in
  rejects "instantiate" (fun () -> Solver.instantiate spec ~universe);
  rejects "instantiate, empty universe" (fun () -> Solver.instantiate spec ~universe:[]);
  rejects "extend" (fun () -> Solver.extend spec ~universe ~current:[ 0 ])

(* The generate-and-test search the solver used before it checked
   conjuncts early, kept verbatim as the oracle for the pruned one: it
   evaluates the whole formula at full assignments only. *)
module Oracle = struct
  open Solver

  let search spec ~candidates =
    let n = Ast.arity spec in
    let assignment = Array.make n { machine_id = -1; attrs = [] } in
    let used = Hashtbl.create 8 in
    let rec assign i =
      if i = n then
        if eval spec.Ast.formula assignment then Some (Array.to_list assignment) else None
      else
        let rec try_candidates = function
          | [] -> None
          | m :: rest ->
            if Hashtbl.mem used m.machine_id then try_candidates rest
            else begin
              assignment.(i) <- m;
              Hashtbl.replace used m.machine_id ();
              match assign (i + 1) with
              | Some _ as solution -> solution
              | None ->
                Hashtbl.remove used m.machine_id;
                try_candidates rest
            end
        in
        try_candidates candidates
    in
    assign 0

  let instantiate spec ~universe = search spec ~candidates:universe

  let extend spec ~universe ~current =
    (* Enumerate all solutions and keep the one with the smallest
       symmetric difference from the current member set. *)
    let n = Ast.arity spec in
    let assignment = Array.make n { machine_id = -1; attrs = [] } in
    let used = Hashtbl.create 8 in
    let best = ref None in
    let score machines =
      let ids = List.map (fun m -> m.machine_id) machines in
      let removed = List.length (List.filter (fun id -> not (List.mem id ids)) current) in
      let added = List.length (List.filter (fun id -> not (List.mem id current)) ids) in
      removed + added
    in
    let consider () =
      if eval spec.Ast.formula assignment then begin
        let machines = Array.to_list assignment in
        let s = score machines in
        match !best with
        | Some (s', _) when s' <= s -> ()
        | Some _ | None -> best := Some (s, machines)
      end
    in
    let rec assign i =
      if i = n then consider ()
      else
        List.iter
          (fun m ->
            if not (Hashtbl.mem used m.machine_id) then begin
              assignment.(i) <- m;
              Hashtbl.replace used m.machine_id ();
              assign (i + 1);
              Hashtbl.remove used m.machine_id
            end)
          universe
    in
    assign 0;
    Option.map snd !best
end

(* Random specs over three attribute names, and machines that carry
   each attribute as a flag, a string, a number, or not at all, so that
   properties and comparisons meet every value kind and missing
   attributes. *)
let gen_solver_case =
  let open QCheck.Gen in
  let attr = oneofl [ "a"; "b"; "c" ] in
  let str = oneofl [ "x"; "y"; "z" ] in
  let num = map Float.of_int (int_range 0 3) in
  let value = oneof [ map (fun s -> Ast.Str s) str; map (fun x -> Ast.Num x) num ] in
  let host_value =
    oneof
      [ map (fun b -> Host.Flag b) bool; map (fun s -> Host.Str s) str;
        map (fun x -> Host.Num x) num ]
  in
  let cmp = oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let* arity = int_range 1 4 in
  let var = int_bound (arity - 1) in
  let atom =
    oneof
      [ map2 (fun v a -> Ast.Property (v, a)) var attr;
        map4 (fun v a c x -> Ast.Compare (v, a, c, x)) var attr cmp value ]
  in
  let gen_formula =
    sized_size (int_bound 10)
    @@ fix (fun self size ->
           if size = 0 then atom
           else
             frequency
               [ (1, atom);
                 (4, map2 (fun a b -> Ast.And (a, b)) (self (size / 2)) (self (size / 2)));
                 (2, map2 (fun a b -> Ast.Or (a, b)) (self (size / 2)) (self (size / 2)));
                 (1, map (fun a -> Ast.Not a) (self (size - 1))) ])
  in
  let gen_machine id =
    map
      (fun values ->
        machine id
          (List.filter_map
             (fun (name, v) -> Option.map (fun v -> (name, v)) v)
             (List.combine [ "a"; "b"; "c" ] values)))
      (list_repeat 3 (option ~ratio:0.8 host_value))
  in
  let* formula = gen_formula in
  let* size = int_range 0 12 in
  let* ids = shuffle_l (List.init 16 Fun.id) in
  let* universe = flatten_l (List.map gen_machine (List.filteri (fun i _ -> i < size) ids)) in
  let* current = list_size (int_range 0 4) (int_bound 15) in
  return ({ Ast.vars = List.init arity (Printf.sprintf "x%d"); formula }, universe, current)

let print_solver_case (spec, universe, current) =
  let pp_attr ppf (name, v) =
    match v with
    | Host.Flag b -> Format.fprintf ppf "%s=%b" name b
    | Host.Str s -> Format.fprintf ppf "%s=%S" name s
    | Host.Num x -> Format.fprintf ppf "%s=%g" name x
  in
  let pp_machine ppf m =
    Format.fprintf ppf "%d{%a}" m.Solver.machine_id
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp_attr)
      m.Solver.attrs
  in
  Format.asprintf "%a@.universe: %a@.current: %s" Ast.pp_spec spec
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_machine)
    universe
    (String.concat "," (List.map string_of_int current))

let prop_pruned_matches_generate_and_test =
  QCheck.Test.make ~name:"pruned search matches generate-and-test" ~count:500
    (QCheck.make ~print:print_solver_case gen_solver_case)
    (fun (spec, universe, current) ->
      let ids = Option.map ids in
      ids (Solver.instantiate spec ~universe) = ids (Oracle.instantiate spec ~universe)
      && ids (Solver.extend spec ~universe ~current)
         = ids (Oracle.extend spec ~universe ~current))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_config"
    [ ( "language",
        [ Alcotest.test_case "example" `Quick test_parse_example;
          Alcotest.test_case "garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "precedence" `Quick test_precedence_and_not;
          Alcotest.test_case "missing attribute" `Quick test_missing_attribute_is_false ] );
      ( "solver",
        [ Alcotest.test_case "instantiate" `Quick test_instantiate_distinct;
          Alcotest.test_case "unsatisfiable" `Quick test_instantiate_unsatisfiable;
          Alcotest.test_case "extend keeps members" `Quick test_extend_prefers_current_members;
          Alcotest.test_case "extend replaces failed" `Quick test_extend_replaces_failed_member;
          Alcotest.test_case "extend minimal change" `Quick test_extend_minimal_change;
          Alcotest.test_case "variable out of range" `Quick test_variable_out_of_range ]
        @ qcheck [ prop_solver_solutions_satisfy; prop_pruned_matches_generate_and_test ] ) ]
