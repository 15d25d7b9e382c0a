(** Abstract syntax of the troupe configuration language (§7.5.2,
    Figure 7.12).

    An extension of propositional logic with variables ranging over the
    machines of the distributed system.  Machines possess attributes —
    (name, value) pairs where values are strings, numbers, or truth
    values; Boolean attributes are called properties, making the
    constants true and false unnecessary.  A troupe specification
    [troupe (x1, ..., xn) where phi] is satisfied by any assignment of
    [n] {e distinct} machines to the variables under which [phi] holds. *)

type value = Str of string | Num of float

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type formula =
  | Compare of int * string * comparison * value
      (** [Compare (var, attr, cmp, value)]: variable index, attribute
          name, comparison, constant *)
  | Property of int * string  (** [x.attr] used as a Boolean *)
  | And of formula * formula
  | Or of formula * formula
  | Not of formula

type spec = { vars : string list; formula : formula }

val arity : spec -> int
val pp_spec : Format.formatter -> spec -> unit
