(** Segment format of the Circus paired message protocol (Figure 4.2).

    A message (call or return) is transmitted as one or more segments,
    each a UDP datagram carrying an 8-byte header:

    {v
      byte 0   message type (0 = call, 1 = return, 2 = probe, 3 = probe ack,
               4 = reject)
      byte 1   control bits (bit 0 = please ack, bit 1 = ack)
      byte 2   total segments (1..255)
      byte 3   segment number / acknowledgment number
      bytes 4-7  call number, most significant byte first
    v}

    A data segment carries part of the message; a control segment
    (empty data) carries or requests acknowledgment information.  Probe
    and reject types extend the figure for crash detection (§4.2.3) and
    stale-binding rejection (§6.1). *)

type msg_type = Call | Return | Probe | Probe_ack | Reject

type t = {
  msg_type : msg_type;
  please_ack : bool;
  ack : bool;
  total : int;  (** total segments in the message, 1..255 *)
  seg_no : int;  (** data: 1-based position; ack: highest consecutive received *)
  call_no : int32;
  data : bytes;
}

val header_size : int

val data_segment : msg_type:msg_type -> ?please_ack:bool -> total:int -> seg_no:int -> call_no:int32 -> bytes -> t
val ack_segment : msg_type:msg_type -> total:int -> ack_no:int -> call_no:int32 -> t
val probe : call_no:int32 -> t
val probe_ack : call_no:int32 -> t
val reject : call_no:int32 -> t

val encode : t -> bytes

val decode : bytes -> t option
(** [None] on malformed datagrams (treated as lost, per the checksum
    assumption of §2.2). *)

val data_segments : mtu:int -> msg_type:msg_type -> call_no:int32 -> bytes -> bytes array
(** The message body as encoded data segments, in order, each a
    datagram of at most [mtu] bytes: [encode] of the {!data_segment}s
    of the body's consecutive pieces of at most [mtu - header_size]
    bytes, without please-ack.  An empty body is one empty segment.
    Raises [Invalid_argument] if the message needs more than 255
    segments.  The datagrams share nothing with [body]. *)

val with_please_ack : bytes -> bytes
(** A copy of an encoded segment with its please-ack bit set. *)
