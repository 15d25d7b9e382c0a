(** The UDP echo baseline of Figure 4.5.

    The client performs exactly the paper's loop — [sendmsg],
    [alarm(timeout)], [recvmsg], [alarm(0)] — and the server loops on
    [recvmsg]/[sendmsg].  This establishes the lower bound for any
    paired message protocol built on unreliable datagrams
    (Table 4.1, first row). *)

open Circus_net

val start_server : Syscall.env -> Host.t -> port:int -> unit
(** Spawn the echo server loop on the given host. *)

type client

val client : Syscall.env -> Host.t -> dst:Addr.t -> ?meter:Meter.t -> unit -> client

exception Echo_timeout of Addr.t
(** The destination never answered within the retry budget. *)

val echo : client -> ?timeout:float -> ?max_retries:int -> bytes -> bytes
(** One datagram exchange, retried on timeout (the paper's alarm-driven
    retry) at most [max_retries] additional times (default 10 — the
    same give-up budget as the paired-message protocol's retransmit
    limit).  Raises {!Echo_timeout} on exhaustion: under a partition an
    unbounded retry loop would livelock the client fiber forever.  Must
    run in a fiber on the client's host. *)
