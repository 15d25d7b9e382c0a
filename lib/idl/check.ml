exception Check_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Check_error s)) fmt

let resolve program name =
  match List.assoc_opt name (Ast.types program) with
  | Some ty -> ty
  | None -> fail "undeclared type %s" name

let distinct ~what names =
  let sorted = List.sort compare names in
  let rec scan = function
    | a :: b :: _ when a = b -> fail "duplicate %s %s" what a
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan sorted

let distinct_ints ~what codes =
  distinct ~what (List.map string_of_int codes)

(* Detect cycles among type definitions: depth-first search over Named
   references, with [visiting] as the recursion stack. *)
let check_acyclic program =
  let types = Ast.types program in
  let visited = Hashtbl.create 16 in
  let rec visit visiting name =
    if List.mem name visiting then
      fail "recursive type %s (cycle: %s)" name (String.concat " -> " (List.rev (name :: visiting)))
    else if not (Hashtbl.mem visited name) then begin
      let ty = resolve program name in
      walk (name :: visiting) ty;
      Hashtbl.replace visited name ()
    end
  and walk visiting = function
    | Ast.Named n -> visit visiting n
    | Ast.Array (_, t) | Ast.Sequence t -> walk visiting t
    | Ast.Record fields -> List.iter (fun f -> walk visiting f.Ast.field_type) fields
    | Ast.Choice cases -> List.iter (fun (_, _, t) -> walk visiting t) cases
    | Ast.Boolean | Ast.Cardinal | Ast.Long_cardinal | Ast.Integer | Ast.Long_integer
    | Ast.String | Ast.Unspecified | Ast.Enumeration _ ->
      ()
  in
  List.iter (fun (name, _) -> visit [] name) types

let rec check_type program = function
  | Ast.Named n -> ignore (resolve program n)
  | Ast.Enumeration cases ->
    if cases = [] then fail "empty enumeration";
    distinct ~what:"enumeration name" (List.map fst cases);
    distinct_ints ~what:"enumeration value" (List.map snd cases)
  | Ast.Array (n, t) ->
    if n < 0 || n > 0xffff then fail "array size %d out of range" n;
    check_type program t
  | Ast.Sequence t -> check_type program t
  | Ast.Record fields ->
    distinct ~what:"field" (List.map (fun f -> f.Ast.field_name) fields);
    List.iter (fun f -> check_type program f.Ast.field_type) fields
  | Ast.Choice cases ->
    if cases = [] then fail "empty choice";
    distinct ~what:"choice case" (List.map (fun (n, _, _) -> n) cases);
    distinct_ints ~what:"choice tag" (List.map (fun (_, v, _) -> v) cases);
    List.iter (fun (_, _, t) -> check_type program t) cases
  | Ast.Boolean | Ast.Cardinal | Ast.Long_cardinal | Ast.Integer | Ast.Long_integer
  | Ast.String | Ast.Unspecified ->
    ()

let check program =
  distinct ~what:"type name" (List.map fst (Ast.types program));
  List.iter (fun (_, ty) -> check_type program ty) (Ast.types program);
  check_acyclic program;
  let errors = Ast.errors program in
  distinct ~what:"error name" (List.map (fun e -> e.Ast.error_name) errors);
  distinct_ints ~what:"error code" (List.map (fun e -> e.Ast.error_code) errors);
  List.iter
    (fun e -> List.iter (fun f -> check_type program f.Ast.field_type) e.Ast.error_args)
    errors;
  let procs = Ast.procs program in
  distinct ~what:"procedure name" (List.map (fun p -> p.Ast.proc_name) procs);
  distinct_ints ~what:"procedure code" (List.map (fun p -> p.Ast.proc_code) procs);
  List.iter
    (fun p ->
      List.iter (fun f -> check_type program f.Ast.field_type) p.Ast.proc_args;
      List.iter (fun f -> check_type program f.Ast.field_type) p.Ast.proc_results;
      List.iter
        (fun name ->
          if not (List.exists (fun e -> e.Ast.error_name = name) errors) then
            fail "procedure %s reports undeclared error %s" p.Ast.proc_name name)
        p.Ast.proc_reports)
    procs
