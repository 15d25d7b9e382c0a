(** Typed interfaces: the programming-language face of replicated
    procedure call.

    A procedure declaration pairs a procedure number with the codecs
    for its arguments and results — exactly what a stub compiler
    derives from an interface declaration (§7.1); here the combinators
    {e are} the stubs.  [call] is the client stub (the syntax of a
    remote call is that of a local call); [handle]/[export] build the
    server side. *)

open Circus_rpc
module Codec = Circus_wire.Codec

type ('a, 'b) proc
(** A procedure taking ['a] and returning ['b]. *)

val proc : proc_no:int -> name:string -> 'a Codec.t -> 'b Codec.t -> ('a, 'b) proc
val proc_no : ('a, 'b) proc -> int
val encoder : ('a, 'b) proc -> 'a Codec.t
val decoder : ('a, 'b) proc -> 'b Codec.t

val call :
  Runtime.ctx -> Troupe.t -> ('a, 'b) proc ->
  ?multicast:bool -> ?collator:Collator.t -> 'a -> 'b
(** Replicated procedure call with typed arguments and results. *)

val call_gen :
  Runtime.ctx -> Troupe.t -> ('a, 'b) proc -> ?multicast:bool -> 'a -> int * 'b option Seq.t
(** Explicit replication (§7.4): troupe size and the generator of typed
    results ([None] for a member that crashed or answered with an
    error). *)

type handler

val handle : ('a, 'b) proc -> (Runtime.ctx -> 'a -> 'b) -> handler
(** Implement one procedure.  Raising [Runtime.Remote_error] reports an
    application error to the caller. *)

val handle_collated : ('a, 'b) proc -> (Runtime.ctx -> expected:int -> 'a list -> 'b) -> handler
(** Implement one procedure with explicit replication at the server
    (§7.4): see every client member's arguments. *)

val export : Runtime.t -> ?policy:Runtime.server_policy -> handler list -> int
(** Export an interface (a set of handlers); returns the module
    number.  Handlers must have distinct procedure numbers.  An
    interface may freely mix plain and collated handlers. *)
