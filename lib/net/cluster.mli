(** One simulated internetwork sharded over the logical processes of a
    {!Circus_sim.Parallel.t}.

    Each LP owns a full {!Net.t} on its own engine; host ids are
    global, so addresses are meaningful cluster-wide.  A datagram for
    a host on another shard is claimed by the sender net's router
    after all sender-side PRNG draws and crosses over with its arrival
    instant through the parallel engine's channels; the lookahead
    window is [params.propagation], the floor under every transit
    delay.  Equal seeds give byte-identical merged traces at any
    domain count. *)

type t

val create : ?seed:int -> ?params:Net.params -> lps:int -> unit -> t
(** [create ~lps:k ()] builds [k] shards.  [params.propagation] must
    be positive — it is the conservative lookahead. *)

val lp_count : t -> int
val net : t -> int -> Net.t
val engine : t -> int -> Circus_sim.Engine.t

val add_host :
  t ->
  ?lp:int ->
  ?name:string ->
  ?clock_offset:float ->
  ?attributes:(string * Host.attribute_value) list ->
  unit ->
  Host.t
(** Create a host with the next {e global} id, placed on shard [lp]
    (default: round-robin by id). *)

val lp_of_host : t -> Addr.host_id -> int
(** Owning shard of a host id; raises [Not_found] for unknown ids. *)

val net_of_host : t -> Addr.host_id -> Net.t
val host : t -> Addr.host_id -> Host.t

val run : ?until:float -> ?max_events:int -> ?domains:int -> t -> unit
(** {!Circus_sim.Parallel.run} on the underlying engine team. *)

val executed : t -> int
val now : t -> float

(** {1 Tracing} *)

val enable_tracing : ?capacity:int -> ?cats:string list -> ?quiet:bool -> t -> unit
val with_lp : t -> int -> (unit -> 'a) -> 'a
val merged_events : t -> Circus_trace.Event.t list
val merged_dropped : t -> int

(** {1 Cluster-wide state}

    Partition and fault changes go through the fault injector's cluster
    entry point, which schedules the same step on every shard's own
    engine. *)

val stats : t -> Net.stats
(** Fresh snapshot summing all shards' counters (mutating it affects
    nothing). *)
