(** Evaluation and the troupe extension problem (§7.5.3).

    Given a specification phi(x1, ..., xn), a universe of machines with
    attributes, and a current set M, find M' = \{m1, ..., mn\} satisfying
    phi and as close to M as possible (minimal symmetric difference).
    Instantiation is the case M = empty-set.

    Both are answered by backtracking over assignments of distinct
    machines in universe order.  The formula's top-level conjuncts are
    each checked as soon as their highest variable is assigned, and a
    failing one cuts the subtree at once.  Only subtrees holding no
    solution are cut, so solutions come out in the same order as a
    generate-and-test over full assignments gives them: [instantiate]
    returns that order's first solution.  The worst case stays
    exponential in the number of variables, which is acceptable given
    the small size of troupe specifications (the paper's own
    judgement).

    A formula naming a variable outside [0, arity) raises
    [Invalid_argument "Solver: variable N out of range"] before the
    search starts. *)

open Circus_net

type machine = { machine_id : Addr.host_id; attrs : (string * Host.attribute_value) list }

val machine_of_host : Host.t -> machine

val eval : Ast.formula -> machine array -> bool
(** Evaluate under an assignment of machines to variables (index [i]
    of the array is variable [i]).  Missing attributes make comparisons
    and properties false. *)

val satisfies : Ast.spec -> machine list -> bool
(** Do these (distinct) machines, in order, satisfy the spec?  The
    generate-and-test oracle the tests check {!instantiate}'s pruned
    search against. *)

val instantiate : Ast.spec -> universe:machine list -> machine list option
(** The first satisfying assignment of distinct machines in universe
    order, or [None]. *)

val extend : Ast.spec -> universe:machine list -> current:Addr.host_id list -> machine list option
(** The troupe extension problem: a satisfying assignment minimizing
    the symmetric difference with [current]; the first such in
    universe order. *)
