(** Named replicated services: export-and-join, import-and-call.

    The programming-in-the-large glue: a server process exports an
    interface and joins the named troupe (with state transfer if it is
    not the first member, §6.4.1); a client calls procedures by service
    name with cached bindings and transparent rebinding (§6.1). *)

open Circus_rpc

val serve :
  System.process ->
  Runtime.ctx ->
  name:string ->
  ?policy:Runtime.server_policy ->
  ?state:(unit -> bytes) * (bytes -> unit) ->
  Interface.handler list ->
  Troupe.t
(** Export the handlers as a module, transfer state from the existing
    members if any, and register with the binding agent.  Returns the
    resulting troupe (whose ID this process has adopted). *)

val call :
  System.process -> Runtime.ctx -> service:string -> ('a, 'b) Interface.proc ->
  ?collator:Collator.t -> 'a -> 'b
(** Typed call by service name, rebinding automatically on stale
    bindings and member crashes. *)
