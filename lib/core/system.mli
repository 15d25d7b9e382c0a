(** Whole-system construction: the simulated internet, the Ringmaster
    troupe, and per-process bundles of runtime plus binding client.

    This is the entry point for applications: create a system, add
    machines, create processes on them, export and import services by
    name, and run the simulation. *)

open Circus_net
open Circus_rpc
open Circus_binding

type t

val create :
  ?seed:int -> ?params:Net.params -> ?syscall_costs:Syscall.costs -> ?ringmasters:int ->
  unit -> t
(** A fresh simulated system with [ringmasters] (default 2) Ringmaster
    members on dedicated machines. *)

val engine : t -> Circus_sim.Engine.t
val net : t -> Net.t
val env : t -> Syscall.env
val ringmaster : t -> Troupe.t

val add_host :
  t -> ?name:string -> ?clock_offset:float ->
  ?attributes:(string * Host.attribute_value) list -> unit -> Host.t

type process = {
  host : Host.t;
  runtime : Runtime.t;
  binding : Client.t;
}

val process : t -> ?host:Host.t -> ?port:int -> ?name:string -> ?meter:Meter.t -> unit -> process
(** A process with an RPC runtime and a binding client; creates a fresh
    host unless one is supplied. *)

val spawn : process -> ?label:string -> (Runtime.ctx -> unit) -> Circus_sim.Fiber.t
(** Start a distributed thread of control in this process. *)

val run : ?until:float -> t -> unit
(** Run the simulation to quiescence (or the given virtual time). *)

val now : t -> float

val enable_tracing : ?capacity:int -> t -> Circus_trace.Trace.sink
(** Install a {!Circus_trace.Trace} sink on this system's engine clock.
    Export the returned sink with {!Circus_trace.Export} after
    {!run}. *)

val export_trace : t -> [ `Chrome | `Jsonl ] -> string -> unit
(** Write the active trace to a file in the given format; no-op when
    tracing was never enabled. *)
