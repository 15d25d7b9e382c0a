(** Internet-style process and module addresses (§4.2.1, §4.3).

    A process address is a host identifier plus a 16-bit port number.
    A module address refines it with a module number identifying one of
    the modules exported by that process. *)

type host_id = int

type t = { host : host_id; port : int }
(** Process address. *)

type module_addr = { process : t; module_no : int }
(** Module address (§4.3): process address + exported-module index. *)

val make : host:host_id -> port:int -> t
val equal : t -> t -> bool

val module_addr : t -> int -> module_addr
val equal_module : module_addr -> module_addr -> bool
val compare_module : module_addr -> module_addr -> int
