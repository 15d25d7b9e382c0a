(** Simulated internetwork of fail-stop hosts (§2.2).

    Packets are unreliably delivered: they may be lost, delayed,
    duplicated, or (per the paper's checksum assumption) arrive intact
    — garbling is folded into loss.  The network supports point-to-point
    datagrams and Ethernet-style multicast, plus partitions for the
    experiments of §4.3.5.

    This module is pure data plane: it charges no CPU.  {!Syscall}
    layers the 4.2BSD cost model on top. *)

type t

type params = {
  propagation : float;  (** one-way base latency, seconds *)
  per_byte : float;  (** transmission time per payload byte *)
  jitter_mean : float;  (** mean of exponential delay jitter *)
  loss : float;  (** per-copy drop probability *)
  duplication : float;  (** per-datagram duplication probability *)
  mtu : int;  (** maximum datagram payload, bytes *)
}

val default_params : params
(** 10 Mb/s Ethernet-like: 0.2 ms propagation, 0.8 us/byte, 0.3 ms mean
    jitter, lossless, 1472-byte MTU. *)

type datagram = {
  src : Addr.t;
  dst : Addr.t;
  payload : bytes;
  ctx : int;
      (** out-of-band causal context ({!Circus_trace.Causal.ctx});
          zero wire bytes — only [payload] is charged, delayed, or
          MTU-checked.  0 when causal tracing is off. *)
}

type socket
(** A bound UDP-style endpoint. *)

val create : Circus_sim.Engine.t -> ?params:params -> unit -> t
val engine : t -> Circus_sim.Engine.t
val params : t -> params

val add_host :
  t ->
  ?id:Addr.host_id ->
  ?name:string ->
  ?clock_offset:float ->
  ?attributes:(string * Host.attribute_value) list ->
  unit ->
  Host.t
(** Create and register a new host.  Without [id], the next free id is
    used (dense numbering).  An explicit [id] must be at least the
    next free id and claims it, leaving a gap below — the parallel
    cluster uses this to give hosts globally unique ids across per-LP
    shards.  Raises [Invalid_argument] if [id] is already
    allocated. *)

val host : t -> Addr.host_id -> Host.t
(** O(1) (host ids are array indices).  Raises [Not_found] for unknown
    ids, including gap ids skipped by an explicit [add_host ~id]. *)

val hosts : t -> Host.t list

(** {1 Sockets} *)

val udp_bind : t -> Host.t -> ?port:int -> unit -> socket
(** Bind a datagram socket.  Without [port] an ephemeral port is
    assigned.  Raises [Invalid_argument] if the port is taken or the
    host is dead.  The socket is closed automatically if the host
    crashes. *)

val close : socket -> unit
val socket_addr : socket -> Addr.t
val socket_host : socket -> Host.t
val mailbox : socket -> datagram Circus_sim.Mailbox.t
(** The receive buffer; exposed for {!Syscall.select}. *)

(** {1 Data plane} *)

val send : t -> src:Addr.t -> dst:Addr.t -> bytes -> unit
(** Inject one datagram.  Applies loss, duplication, and delay; silently
    drops if the destination is dead, unbound, or partitioned away.
    Raises [Invalid_argument] if the payload exceeds the MTU. *)

val send_multicast : t -> src:Addr.t -> dsts:Addr.t list -> bytes -> unit
(** One transmission delivered to every destination with independent
    loss and jitter (reliability may vary from recipient to recipient,
    §2.2). *)

(** {1 Cross-shard routing}

    Hooks for {!Cluster}, which shards one simulated internetwork over
    several per-LP nets.  Not for application use. *)

val set_router : t -> (datagram -> arrival:float -> bool) option -> unit
(** Install (or clear) the cross-shard router.  It is consulted once
    per surviving copy — after reachability, loss, duplication, and
    corruption draws, with the arrival instant already computed on
    this net's PRNG — and claims the copy by returning [true], taking
    responsibility for delivering it on the destination shard at
    [arrival].  Returning [false] falls through to local delivery. *)

val deliver_inbound : t -> datagram -> unit
(** Hand a routed copy to its destination socket, applying the usual
    arrival-time checks (liveness, binding).  Must be called on this
    net's logical process at the copy's arrival instant. *)

(** {1 Failures} *)

val max_partition_groups : int
(** The most groups a partition may have: [Sys.int_size - 1]. *)

val set_partition : t -> Addr.host_id list list -> unit
(** Partition the network into the given groups.  Hosts sharing a group
    communicate; others cannot.  A host absent from every group is
    isolated.  Raises [Invalid_argument] on more than
    {!max_partition_groups} groups. *)

val heal_partition : t -> unit

val set_partition_for : t -> Addr.host_id list list -> duration:float -> unit
(** Time-bounded partition episode: {!set_partition} now, auto-heal
    after [duration] simulated seconds — unless a newer
    {!set_partition}/{!heal_partition} intervened, in which case the
    stale episode's expiry is a no-op.  Raises [Invalid_argument] on a
    non-positive duration. *)

val reachable : t -> Addr.host_id -> Addr.host_id -> bool
(** Whether the current partition (§4.3.5) lets a datagram from the
    first host reach the second; the tests' oracle for partition
    episodes.  O(1): {!set_partition} precomputes a per-host bitmask of
    group memberships, so the per-datagram test is one [land]. *)

(** {2 Transient fault knobs}

    Extra unreliability layered on top of {!params} by the fault
    injector ({!module:Circus_fault}).  All default to zero; crucially,
    the data plane only touches its PRNG for a knob when that knob is
    strictly positive, so a zero-fault run consumes exactly the same
    random stream as before these knobs existed — equal seeds keep
    producing byte-identical traces. *)

val set_extra_loss : t -> float -> unit
(** Additional per-copy drop probability (added to [params.loss],
    clamped to 1).  Raises [Invalid_argument] outside [0,1]. *)

val set_extra_duplication : t -> float -> unit
(** Additional per-datagram duplication probability. *)

val set_extra_delay_mean : t -> float -> unit
(** Mean of an extra exponential delay added to every delivered copy
    (0 disables; no PRNG draw when disabled). *)

val set_corrupt_rate : t -> float -> unit
(** Per-delivered-copy probability that in-flight bit rot garbles the
    datagram.  This layer models the datagram service from below the
    UDP checksum, so the receiving stack detects the damage and
    discards the copy: end-to-end, corruption manifests as loss — but
    counted under [stats.corrupted] rather than [dropped], drawn after
    duplication so each copy fails independently. *)

val extra_loss : t -> float
(** The current extra loss rate: a test oracle for the injector's loss
    bursts (a newer burst outlives an older one's expiry). *)

(** {1 Statistics} *)

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable bytes_sent : int;
}

val stats : t -> stats
