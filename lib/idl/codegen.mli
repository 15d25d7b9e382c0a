(** The compiled-stub back end: Courier-like interfaces to OCaml
    (the analogue of the Courier-to-C compiler of §7.1.1).

    From one checked program the generator emits a single OCaml module
    containing: the type declarations (records, variants, lists), a
    codec per type, one error variant plus a carrier exception, client
    stub functions (one per procedure, calling through
    [Circus_rpc.Runtime.call_troupe]), and a server dispatcher to pass
    to [Circus_rpc.Runtime.export].  Once compiled, no editing or
    recompilation is needed to change the number or location of troupe
    members (§7.1.1).

    Mapping notes: top-level RECORD and CHOICE declarations become
    OCaml records and variants; anonymous records nest as tuples;
    enumerations become constant variants.  The "one construct, one
    use" lesson of §7.2 shows up as copy-in/copy-out argument and
    result tuples. *)

val generate : Ast.program -> string
(** OCaml source text for the checked program. *)
