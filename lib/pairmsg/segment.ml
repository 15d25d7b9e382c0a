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

(* A segment is encoded straight from its header fields into bytes
   of its final size: no writer, and no record for a caller that has
   the fields at hand. *)
let write_header b ~msg_type ~please_ack ~ack ~total ~seg_no ~call_no =
  Bytes.set_uint8 b 0 (msg_type_code msg_type);
  Bytes.set_uint8 b 1 ((if please_ack then 1 else 0) lor if ack then 2 else 0);
  Bytes.set_uint8 b 2 (total land 0xff);
  Bytes.set_uint8 b 3 (seg_no land 0xff);
  Bytes.set_int32_be b 4 call_no

let encode t =
  let len = Bytes.length t.data in
  let b = Bytes.create (header_size + len) in
  write_header b ~msg_type:t.msg_type ~please_ack:t.please_ack ~ack:t.ack ~total:t.total
    ~seg_no:t.seg_no ~call_no:t.call_no;
  Bytes.blit t.data 0 b header_size len;
  b

let decode b =
  if Bytes.length b < header_size then None
  else
    match msg_type_of_code (Bytes.get_uint8 b 0) with
    | None -> None
    | Some msg_type ->
      let bits = Bytes.get_uint8 b 1 in
      Some
        { msg_type;
          please_ack = bits land 1 = 1;
          ack = bits land 2 = 2;
          total = Bytes.get_uint8 b 2;
          seg_no = Bytes.get_uint8 b 3;
          call_no = Bytes.get_int32_be b 4;
          data = Bytes.sub b header_size (Bytes.length b - header_size) }

let data_segments ~mtu ~msg_type ~call_no body =
  let seg_size = mtu - header_size in
  if seg_size <= 0 then invalid_arg "Segment.data_segments: mtu too small";
  let len = Bytes.length body in
  let total = if len = 0 then 1 else (len + seg_size - 1) / seg_size in
  if total > 255 then
    invalid_arg "Segment.data_segments: message too long (more than 255 segments)";
  Array.init total (fun i ->
      let pos = i * seg_size in
      let n = min seg_size (len - pos) in
      let b = Bytes.create (header_size + n) in
      write_header b ~msg_type ~please_ack:false ~ack:false ~total ~seg_no:(i + 1) ~call_no;
      Bytes.blit body pos b header_size n;
      b)

let with_please_ack encoded =
  let b = Bytes.copy encoded in
  Bytes.set_uint8 b 1 (Bytes.get_uint8 b 1 lor 1);
  b
