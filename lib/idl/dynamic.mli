(** Interpreted stubs: dynamic values and run-time codec derivation.

    The Interlisp-D binding of §7.1.2 kept each Courier specification
    as data and translated values at run time; this module is that
    style of stub.  A {!value} mirrors the Courier data model, and
    {!codec} derives an externalizer/internalizer for any checked type
    directly from the AST — no code generation step. *)

type value =
  | Bool of bool
  | Card of int
  | Long_card of int32
  | Int of int
  | Long_int of int32
  | Str of string
  | Word of int  (** UNSPECIFIED *)
  | Enum of string
  | Arr of value list  (** fixed-size array *)
  | Seq of value list
  | Rec of (string * value) list  (** fields in declaration order *)
  | Ch of string * value  (** choice case and payload *)

exception Type_error of string
(** Raised when a value does not conform to the type being encoded. *)

val codec : Ast.program -> Ast.ty -> value Circus_wire.Codec.t
(** Derive the external representation for a (checked) type. *)

val pp : Format.formatter -> value -> unit
val equal : value -> value -> bool
