type msg_type = Call | Return | Probe | Probe_ack | Reject

type t = {
  msg_type : msg_type;
  please_ack : bool;
  ack : bool;
  total : int;
  seg_no : int;
  call_no : int32;
  data : bytes;
}

let header_size = 8

let msg_type_code = function Call -> 0 | Return -> 1 | Probe -> 2 | Probe_ack -> 3 | Reject -> 4

let msg_type_of_code = function
  | 0 -> Some Call
  | 1 -> Some Return
  | 2 -> Some Probe
  | 3 -> Some Probe_ack
  | 4 -> Some Reject
  | _ -> None

let data_segment ~msg_type ?(please_ack = false) ~total ~seg_no ~call_no data =
  { msg_type; please_ack; ack = false; total; seg_no; call_no; data }

let ack_segment ~msg_type ~total ~ack_no ~call_no =
  { msg_type; please_ack = false; ack = true; total; seg_no = ack_no; call_no; data = Bytes.empty }

let control msg_type call_no =
  { msg_type; please_ack = false; ack = false; total = 1; seg_no = 0; call_no; data = Bytes.empty }

let probe ~call_no = control Probe call_no
let probe_ack ~call_no = control Probe_ack call_no
let reject ~call_no = control Reject call_no

(* Encoded once per datagram on the send path: reuse the scratch
   writer rather than allocating a fresh buffer per segment. *)
let encode t =
  Circus_wire.Buf.with_writer (fun w ->
      Circus_wire.Buf.write_u8 w (msg_type_code t.msg_type);
      let bits = (if t.please_ack then 1 else 0) lor if t.ack then 2 else 0 in
      Circus_wire.Buf.write_u8 w bits;
      Circus_wire.Buf.write_u8 w t.total;
      Circus_wire.Buf.write_u8 w t.seg_no;
      Circus_wire.Buf.write_u32 w t.call_no;
      Circus_wire.Buf.write_bytes w t.data)

let decode b =
  if Bytes.length b < header_size then None
  else
    let r = Circus_wire.Buf.reader b in
    let type_code = Circus_wire.Buf.read_u8 r in
    match msg_type_of_code type_code with
    | None -> None
    | Some msg_type ->
      let bits = Circus_wire.Buf.read_u8 r in
      let total = Circus_wire.Buf.read_u8 r in
      let seg_no = Circus_wire.Buf.read_u8 r in
      let call_no = Circus_wire.Buf.read_u32 r in
      let data = Circus_wire.Buf.read_bytes r (Circus_wire.Buf.remaining r) in
      Some
        { msg_type;
          please_ack = bits land 1 = 1;
          ack = bits land 2 = 2;
          total;
          seg_no;
          call_no;
          data }

let pp ppf t =
  let type_name =
    match t.msg_type with
    | Call -> "call"
    | Return -> "return"
    | Probe -> "probe"
    | Probe_ack -> "probe-ack"
    | Reject -> "reject"
  in
  Format.fprintf ppf "%s#%ld %d/%d%s%s (%d bytes)" type_name t.call_no t.seg_no t.total
    (if t.please_ack then " please-ack" else "")
    (if t.ack then " ack" else "")
    (Bytes.length t.data)

let split_message ~mtu body =
  let seg_size = mtu - header_size in
  if seg_size <= 0 then invalid_arg "Segment.split_message: mtu too small";
  let len = Bytes.length body in
  (* Single-segment fast path: every RPC-sized message takes it.  The
     payload is still copied — callers may reuse [body]'s storage while
     the segment sits in the retransmit queue. *)
  if len <= seg_size then [| Bytes.sub body 0 len |]
  else begin
    let count = (len + seg_size - 1) / seg_size in
    if count > 255 then
      invalid_arg "Segment.split_message: message too long (more than 255 segments)";
    Array.init count (fun i ->
        let pos = i * seg_size in
        let n = min seg_size (len - pos) in
        Bytes.sub body pos n)
  end
