(** Abstract syntax of the Courier-like interface language (§7.1,
    Figure 7.2).

    A program declares types, errors, and procedures.  The predefined
    types are Booleans, 16- and 32-bit signed and unsigned integers,
    character strings, and uninterpreted words; the constructed types
    are enumerations, fixed arrays, records, variable-length sequences,
    and discriminated choices. *)

type ty =
  | Boolean
  | Cardinal  (** unsigned 16-bit *)
  | Long_cardinal  (** unsigned 32-bit *)
  | Integer  (** signed 16-bit *)
  | Long_integer  (** signed 32-bit *)
  | String
  | Unspecified  (** one uninterpreted 16-bit word *)
  | Named of string
  | Enumeration of (string * int) list
  | Array of int * ty
  | Sequence of ty
  | Record of field list
  | Choice of (string * int * ty) list  (** discriminated union *)

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

val types : program -> (string * ty) list
val errors : program -> error_decl list
val procs : program -> proc_decl list
