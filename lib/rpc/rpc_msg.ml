module Codec = Circus_wire.Codec
module Buf = Circus_wire.Buf

type call = {
  thread : Ids.Thread_id.t;
  seq : int64;
  client_troupe : Ids.Troupe_id.t;
  server_troupe : Ids.Troupe_id.t;
  module_no : int;
  proc_no : int;
  args : bytes;
}

type return_msg =
  | Ok_result of bytes
  | App_error of string
  | Stale_troupe
  | No_such_module
  | No_such_procedure

(* Both codecs are written field by field, so encoding builds no tuples
   and looks up no case list.  A call is the thread's origin and pid
   and the sequence number as 64-bit integers, the client and server
   troupe ids, the module and procedure numbers as 16-bit integers and
   the arguments as Courier bytes (a 16-bit length, the bytes, a pad
   byte to an even length); a return is a 16-bit tag and, for a result
   or an error, its bytes or string. *)

let write_int w v = Buf.write_u64 w (Int64.of_int v)
let read_int r = Int64.to_int (Buf.read_u64 r)

let call_codec =
  Codec.custom
    ~write:(fun w c ->
      write_int w c.thread.Ids.Thread_id.origin;
      write_int w c.thread.Ids.Thread_id.pid;
      Buf.write_u64 w c.seq;
      Buf.write_u64 w c.client_troupe;
      Buf.write_u64 w c.server_troupe;
      Codec.write Codec.uint16 w c.module_no;
      Codec.write Codec.uint16 w c.proc_no;
      Codec.write Codec.bytes w c.args)
    ~read:(fun r ->
      let origin = read_int r in
      let pid = read_int r in
      let seq = Buf.read_u64 r in
      let client_troupe = Buf.read_u64 r in
      let server_troupe = Buf.read_u64 r in
      let module_no = Buf.read_u16 r in
      let proc_no = Buf.read_u16 r in
      let args = Codec.read Codec.bytes r in
      { thread = { Ids.Thread_id.origin; pid };
        seq;
        client_troupe;
        server_troupe;
        module_no;
        proc_no;
        args })

let return_codec =
  Codec.custom
    ~write:(fun w v ->
      match v with
      | Ok_result b ->
        Buf.write_u16 w 0;
        Codec.write Codec.bytes w b
      | App_error e ->
        Buf.write_u16 w 1;
        Codec.write Codec.string w e
      | Stale_troupe -> Buf.write_u16 w 2
      | No_such_module -> Buf.write_u16 w 3
      | No_such_procedure -> Buf.write_u16 w 4)
    ~read:(fun r ->
      match Buf.read_u16 r with
      | 0 -> Ok_result (Codec.read Codec.bytes r)
      | 1 -> App_error (Codec.read Codec.string r)
      | 2 -> Stale_troupe
      | 3 -> No_such_module
      | 4 -> No_such_procedure
      | t -> raise (Codec.Decode_error (Printf.sprintf "bad variant tag %d" t)))
