(** Troupes as seen by the replicated procedure call protocol (§4.3).

    At this level a troupe is a unique id plus the sequence of module
    addresses of its members — the representation returned by the
    binding agent when a client imports a server troupe. *)

open Circus_net

type t = { id : Ids.Troupe_id.t; members : Addr.module_addr list }

val make : id:Ids.Troupe_id.t -> members:Addr.module_addr list -> t
(** Raises [Invalid_argument] on an empty member list. *)

val singleton : Addr.module_addr -> t
(** An unreplicated, unregistered module viewed as a degenerate troupe
    (id {!Ids.Troupe_id.none}). *)

val size : t -> int
val member_processes : t -> Addr.t list
val codec : t Circus_wire.Codec.t
val module_addr_codec : Addr.module_addr Circus_wire.Codec.t
