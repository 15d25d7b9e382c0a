(** Semantic checks for interface programs.

    The stub compiler verifies what the language can: every named type
    resolves, type definitions are not cyclic (Courier's external
    representation cannot carry recursive values; the Modula-2 stub
    compiler likewise "does not handle recursive types automatically",
    §7.1.4), enumeration and choice tags are distinct, procedure and
    error codes are distinct, and REPORTS clauses name declared
    errors. *)

exception Check_error of string

val check : Ast.program -> unit
(** Raises {!Check_error} describing the first problem found. *)

val resolve : Ast.program -> string -> Ast.ty
(** Look up a named type; raises {!Check_error} if undeclared. *)
