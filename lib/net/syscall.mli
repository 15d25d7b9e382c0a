(** The 4.2BSD system-call layer with CPU cost accounting.

    Every operation occupies the calling host's CPU for a
    per-call kernel-mode cost and charges the caller's {!Meter}.  The
    default costs are the paper's own measurements (Table 4.2): on a
    VAX-11/750, [sendmsg] 8.1 ms, [recvmsg] 2.8 ms, [select] 1.8 ms,
    [setitimer] 1.2 ms, [gettimeofday] 0.7 ms, [sigblock] 0.4 ms.  The
    streamlined TCP [read]/[write] path is cheaper than the
    scatter/gather datagram path — that inversion is what makes the TCP
    echo beat the UDP echo in Table 4.1.

    All calls must run in a fiber executing on the socket's host. *)

type costs = {
  sendmsg : float;
  recvmsg : float;
  select : float;
  setitimer : float;
  gettimeofday : float;
  sigblock : float;
  read : float;  (** byte-stream read, used by the TCP baseline *)
  write : float;  (** byte-stream write, used by the TCP baseline *)
}

val default_costs : costs
(** Table 4.2 values, in seconds. *)

val fast_costs : costs
(** The same profile scaled down 100×: a machine a couple of hardware
    generations past the VAX-11/750.  Use for application-level
    simulations where the point is protocol behaviour, not 1985 CPU
    accounting; the measurement benches keep {!default_costs}. *)

type env

val make : Net.t -> ?costs:costs -> unit -> env
val net : env -> Net.t
val costs : env -> costs

val set_recv_drain : env -> bool -> unit
(** Enable receive-side batching: demux loops that honour this flag
    follow a successful {!select} with a {!pending}-guarded drain,
    paying one select (and one pass through the host's CPU queue) per
    backlog instead of one per datagram.  Off by default — draining
    changes the charge sequence whenever a second datagram is already
    queued, and the Table-4.1 measurement benches pin the paper's
    literal one-select-per-recvmsg loop.  The scenario engine turns it
    on: at scale the per-datagram select round-trip is what tips a
    loaded host into retransmit collapse. *)

val recv_drain : env -> bool

val sendmsg : env -> ?meter:Meter.t -> Net.socket -> dst:Addr.t -> bytes -> unit
(** Transmit one datagram (kernel cost charged, then injected into the
    network). *)

val sendmsg_vec :
  env ->
  ?meter:Meter.t ->
  ?user_cost:float ->
  ?on_segment:(int -> unit) ->
  Net.socket ->
  dst:Addr.t ->
  bytes array ->
  unit
(** Vectored burst: charge and inject each payload exactly as a
    standalone {!sendmsg} would, in array order.  Per element [i], in
    order: the [user_cost] user-time charge if given (the caller's
    per-segment marshaling cost), then [on_segment i] at that user
    charge's end instant (the slot for a per-segment trace emission),
    then the kernel [sendmsg] charge, then the injection into the net
    at the kernel charge's end instant.  It is that loop of
    {!Host.use_cpu} charges and injections, written once, so a
    multi-segment message reaches the transport as one unit and a burst
    without a hook allocates no closure.

    Exception contract: elements [< i] have been fully charged and
    injected, and element [i] is never injected, nor anything after it
    charged.  A charge is metered when it starts, so element [i] keeps
    every charge that began before the exception: its user charge if
    [on_segment i] raises, and its user and kernel charges if the host
    crashes under its kernel charge. *)

val sendmsg_multicast_vec :
  env ->
  ?meter:Meter.t ->
  ?user_cost:float ->
  ?on_segment:(int -> unit) ->
  Net.socket ->
  dsts:Addr.t list ->
  bytes array ->
  unit
(** Multicast {!sendmsg_vec}: per segment, one [sendmsg]-priced
    transmission reaching every destination — the Ethernet multicast
    capability §4.3.7 wishes for — with the same per-element
    [user_cost]/[on_segment] interleaving and exception contract as
    {!sendmsg_vec}. *)

val recvmsg : env -> ?meter:Meter.t -> ?timeout:float -> Net.socket -> Net.datagram option
(** Blocking receive; [None] on timeout.  The kernel cost is charged
    only when a datagram is returned. *)

val pending : Net.socket -> int
(** Datagrams queued in the socket's receive buffer ([FIONREAD]).
    Uncharged: it reports the same readiness the preceding {!select} or
    {!recvmsg} established.  Receive loops use it to drain a backlog
    without a select round-trip per datagram — under load, one pass
    through the host's CPU queue per batch instead of per message. *)

val select : env -> ?meter:Meter.t -> ?timeout:float -> Net.socket list -> bool
(** Block until any socket is readable ([true]) or the timeout expires
    ([false]).  All sockets must belong to one host — a select is one
    kernel call on one machine, and its cost is charged to that host.
    Raises [Invalid_argument] on an empty list or a list whose sockets
    span hosts (which would otherwise silently bill only the head
    socket's machine). *)

type selector
(** A {!select} on one socket with no timeout, built once for a receive
    loop that selects on that socket again and again (a pairmsg demux).
    It holds one {!Fiber.park} and one mailbox watcher that stays on the
    socket's mailbox until {!close_selector}, so a select that has to
    wait allocates only its resume event. *)

val selector : env -> ?meter:Meter.t -> Net.socket -> selector
(** [selector env ?meter sock] is a selector owned by the calling
    fiber, the only fiber that may {!select_one} through it. *)

val select_one : selector -> unit
(** [select ?meter [sock]] without a timeout: charge the select, then
    block until the socket is readable.  The same charges, engine events
    and trace events as that call; raises {!Fiber.Cancelled} if the
    fiber is cancelled while it waits. *)

val close_selector : selector -> unit
(** Take the selector's watcher off the socket's mailbox.  Call it when
    the loop that selects through it exits. *)

val setitimer : env -> ?meter:Meter.t -> Host.t -> unit
(** Charge for arming or disarming the interval timer. *)

val gettimeofday : env -> ?meter:Meter.t -> Host.t -> float
(** The host's local clock reading (charged). *)

val sigblock : env -> ?meter:Meter.t -> Host.t -> unit
(** Charge for masking software interrupts (critical-region entry or
    exit). *)

val read_stream : env -> ?meter:Meter.t -> Host.t -> unit
val write_stream : env -> ?meter:Meter.t -> Host.t -> unit
(** Charges for the TCP byte-stream path; the stream protocol itself
    lives in [Circus_pairmsg.Stream]. *)

val compute : env -> ?meter:Meter.t -> Host.t -> float -> unit
(** Consume user-mode CPU (marshaling, protocol bookkeeping). *)
