(** Post-run consistency checking for chaos experiments.

    These are test oracles.  After a fault schedule has run to
    quiescence, the harness asserts the two properties Cooper's design
    promises to preserve across member crashes and partitions (§4.3):

    - {e replica-state equivalence}: every surviving, never-disturbed
      troupe member agrees on the observable state ({!agree_on},
      {!all_equal});
    - {e exactly-once execution}: no replicated call executed more than
      once per member incarnation ({!exactly_once}).

    Checkers return violations rather than raising, so a test can
    aggregate them across episodes; {!report} renders them and mirrors
    each into the trace. *)

type violation = { subject : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit
(** Renders a violation for a failing test's message. *)

val exactly_once : (string * int) list -> violation list
(** [(call identity, execution count)] pairs; every count must be
    exactly 1.  Counts of 0 should not appear (log only executed
    calls). *)

val all_equal : label:string -> (string * string) list -> violation list
(** [(member, state representation)] pairs; all representations must be
    equal.  Empty and singleton lists are vacuously consistent. *)

val agree_on :
  keys:'k list ->
  show:('k -> string) ->
  members:(string * ('k -> string option)) list ->
  violation list
(** Pointwise replica comparison: for every key, every member's lookup
    must return the same value.  [None] (a member missing the key) is a
    violation when another member has it.  A client's expected view can
    be modeled as just another member. *)

val report : violation list -> unit
(** Emit each violation as a [cat:"fault"] ["violation"] trace event
    (when tracing is on). *)
