type ty =
  | Boolean
  | Cardinal
  | Long_cardinal
  | Integer
  | Long_integer
  | String
  | Unspecified
  | Named of string
  | Enumeration of (string * int) list
  | Array of int * ty
  | Sequence of ty
  | Record of field list
  | Choice of (string * int * ty) list

and field = { field_name : string; field_type : ty }

type error_decl = { error_name : string; error_args : field list; error_code : int }

type proc_decl = {
  proc_name : string;
  proc_args : field list;
  proc_results : field list;
  proc_reports : string list;
  proc_code : int;
}

type decl =
  | Type_decl of string * ty
  | Error_decl of error_decl
  | Proc_decl of proc_decl

type program = {
  program_name : string;
  program_no : int;
  version : int;
  decls : decl list;
}

let types p =
  List.filter_map (function Type_decl (n, t) -> Some (n, t) | _ -> None) p.decls

let errors p = List.filter_map (function Error_decl e -> Some e | _ -> None) p.decls
let procs p = List.filter_map (function Proc_decl pr -> Some pr | _ -> None) p.decls
