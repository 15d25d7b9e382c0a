(** The Circus paired message protocol (§4.2).

    An endpoint reliably exchanges variable-length paired messages
    (call and return) over unreliable datagrams.  It provides:

    - segmentation and reassembly of messages up to 255 segments;
    - acknowledgment (explicit, and implicit via reply traffic) and
      retransmission of the first unacknowledged segment with the
      {e please ack} bit set (§4.2.2);
    - postponed acknowledgment of completed calls in the hope that the
      return message arrives soon enough to serve as an implicit
      acknowledgment (§4.2.4);
    - immediate acknowledgment on out-of-order arrival (§4.2.4);
    - crash detection by probing during long executions (§4.2.3);
    - suppression of replayed or duplicated call messages;
    - one-to-many transmission of the same call message, with the same
      call number, to a whole troupe — by repeated [sendmsg] or by one
      multicast (§4.3.1, §4.3.7).

    The protocol is connectionless: no handshake precedes the first
    call.  Each endpoint runs a demultiplexer fiber; its CPU use
    (select, recvmsg, sigblock, ...) is charged to the endpoint's
    {!Meter}, mirroring the user-mode 4.2BSD implementation the paper
    measures. *)

open Circus_net

exception Crashed of Addr.t
(** No response after repeated retransmissions or probes: the peer has
    crashed or is partitioned away (indistinguishable, §4.3.5). *)

exception Rejected of Addr.t
(** The peer explicitly rejected the exchange (stale binding: it has no
    knowledge of the call, e.g. after a crash and restart, §6.1). *)

type config = {
  retransmit_interval : float;
  max_retransmits : int;  (** give up (crash suspected) after this many *)
  retransmit_backoff : float;
      (** geometric growth of the retransmit delay per unacknowledged
          attempt, capped at [probe_interval]; 1.0 (the default) is the
          paper's fixed interval.  Congested deployments set it > 1 so
          duplicate traffic decays instead of compounding the overload
          that is delaying the acks. *)
  probe_interval : float;  (** probe period while awaiting a return *)
  crash_timeout : float;  (** declare crash after this much silence *)
  user_cost_per_call : float;  (** user-mode CPU per exchange *)
  user_cost_per_segment : float;  (** user-mode CPU per data segment *)
}

val default_config : config

type t

val create : Syscall.env -> Host.t -> ?port:int -> ?config:config -> ?meter:Meter.t -> unit -> t
(** Bind an endpoint on the given host and start its demultiplexer.
    The endpoint dies with the host. *)

val addr : t -> Addr.t
val meter : t -> Meter.t
val close : t -> unit

val next_call_no : t -> int32
(** Allocate the next call sequence number.  Deterministic replicas
    allocate identical sequences, which is what lets a server pair up
    the call messages of a replicated call (§4.3.2). *)

type reply = {
  from : Addr.t;
  result : (bytes, exn) result;
  reply_ctx : int;
      (** {!Circus_trace.Causal.ctx} of whatever completed the
          exchange (the return's final segment, a reject, or the
          watchdog giving up); {!Circus_trace.Causal.none} when causal
          tracing is off. *)
}

type replies
(** The replies of one {!call_many}. *)

val call_many : t -> dsts:Addr.t list -> ?multicast:bool -> ?call_no:int32 -> bytes -> replies
(** One-to-many call (Figure 4.3): send the same call message, with the
    same call number, to every destination, and stream back one
    {!reply} per destination as return messages arrive or peers are
    declared crashed ({!next_reply}).  With [multicast] each segment burst is one
    multicast transmission instead of one [sendmsg] per destination.
    [call_no] defaults to {!next_call_no}; an explicit one must not
    repeat a number already used with the same destination, whose
    return the endpoint only remembers as delivered. *)

val next_reply : replies -> reply
(** The next reply of a {!call_many}, in arrival order, blocking until
    it arrives: as a receive from a mailbox the replies were sent to
    would, with the same engine events and trace.  There is one reply
    per destination; asking for more raises [Invalid_argument].  Must
    run in a fiber. *)

val call : t -> dst:Addr.t -> ?call_no:int32 -> bytes -> bytes
(** Conventional paired exchange with a single peer.  Blocks until the
    return message arrives; raises {!Crashed} or {!Rejected}. *)

val set_handler : t -> (src:Addr.t -> call_no:int32 -> bytes -> unit) -> unit
(** Install the incoming-call handler.  It runs in a fresh fiber per
    call (the server-process-per-call of §3.4.1) and must eventually
    {!reply} on the same [(src, call_no)] exchange.  Each call message
    is delivered exactly once, no matter how often it is
    retransmitted. *)

val serve : t -> (src:Addr.t -> bytes -> bytes) -> unit
(** Convenience wrapper over {!set_handler} for synchronous one-to-one
    servers: run the function, reply with its result. *)

val reply : t -> dst:Addr.t -> call_no:int32 -> bytes -> unit
(** Send the return message of an exchange.  Retransmitted until
    acknowledged (explicitly, or implicitly by the client's next
    call). *)
