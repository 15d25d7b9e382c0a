type writer = Buffer.t
type reader = { data : bytes; stop : int; mutable pos : int }

exception Underflow

let writer () = Buffer.create 64
let contents w = Buffer.to_bytes w

(* One scratch writer per domain, reused across encodes: [contents]
   copies into fresh bytes, so handing the same underlying storage to
   consecutive encoders is safe and removes the per-datagram
   [Buffer.create].  It must not be process-wide: the parallel engine
   runs logical processes on several domains at once, and two domains
   encoding into one buffer interleave their bytes.  The [busy] flag
   only guards *reentrant* use on one domain (an encoder that itself
   encodes), which falls back to a fresh writer. *)
type scratch = { buf : Buffer.t; mutable busy : bool }

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { buf = Buffer.create 256; busy = false })

(* The scratch writer is released however [f] ends, without the
   closures a [Fun.protect] would build per encode. *)
let release s =
  s.busy <- false;
  (* Don't let one oversized datagram pin a huge buffer. *)
  if Buffer.length s.buf > 1 lsl 20 then Buffer.reset s.buf

let with_writer f v =
  let s = Domain.DLS.get scratch_key in
  if s.busy then begin
    let w = writer () in
    f w v;
    Buffer.to_bytes w
  end
  else begin
    s.busy <- true;
    let scratch = s.buf in
    Buffer.clear scratch;
    match f scratch v with
    | () ->
      let b = Buffer.to_bytes scratch in
      release s;
      b
    | exception e ->
      release s;
      raise e
  end

(* All writers append directly into the Buffer's storage; no per-call
   scratch Bytes allocation. *)
let write_u8 w v = Buffer.add_char w (Char.unsafe_chr (v land 0xff))
let write_u16 w v = Buffer.add_uint16_be w (v land 0xffff)
let write_u32 w v = Buffer.add_int32_be w v
let write_u64 w v = Buffer.add_int64_be w v
let write_bytes w b = Buffer.add_bytes w b
let write_string w s = Buffer.add_string w s

let reader data = { data; stop = Bytes.length data; pos = 0 }

let remaining r = r.stop - r.pos

let need r n = if r.pos + n > r.stop then raise Underflow

let read_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let read_u16 r =
  let hi = read_u8 r in
  let lo = read_u8 r in
  (hi lsl 8) lor lo

let read_u32 r =
  need r 4;
  let v = Bytes.get_int32_be r.data r.pos in
  r.pos <- r.pos + 4;
  v

let read_u64 r =
  need r 8;
  let v = Bytes.get_int64_be r.data r.pos in
  r.pos <- r.pos + 8;
  v

let read_bytes r n =
  need r n;
  let b = Bytes.sub r.data r.pos n in
  r.pos <- r.pos + n;
  b

let read_string r n = Bytes.to_string (read_bytes r n)
