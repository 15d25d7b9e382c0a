open Circus_sim
open Circus_net
module Buf = Circus_wire.Buf
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event

(* Wire kinds: 0 SYN, 1 SYNACK, 2 ACK, 3 DATA, 4 DACK. *)

let rto = 0.05

(* Retransmission backs off exponentially from [rto] to [rto_max]: a
   constant-rate retransmit under a loss burst floods the network with
   copies of the same chunk and keeps colliding with the burst.  The
   FIRST wait of every chunk (and of every handshake) still uses the
   base [rto], so a loss-free run behaves exactly as before — the
   Table 4.1 smoke fixture stays byte-identical. *)
let rto_max = 0.8
let backoff rto_now = Float.min rto_max (2.0 *. rto_now)

type conn = {
  env : Syscall.env;
  host : Host.t;
  sock : Net.socket;
  mutable peer : Addr.t;
  mutable meter : Meter.t option;
  mutable send_seq : int32;  (* last chunk sequence sent *)
  mutable acked : int32;  (* highest chunk acknowledged by peer *)
  ack_cond : Condition.t;
  mutable recv_expected : int32;  (* next chunk sequence expected *)
  partial : Buffer.t;
  messages : bytes Mailbox.t;
  mutable closed : bool;
  mutable kernel : Fiber.t option;
}

type listener = {
  l_env : Syscall.env;
  l_host : Host.t;
  l_sock : Net.socket;
  l_accept : conn Mailbox.t;
  l_conns : (Addr.t, conn * int) Hashtbl.t;  (* peer -> conn, dedicated port *)
}

let frame ~kind ?(seq = 0l) ?(last = false) ?(port = 0) payload =
  Buf.with_writer
    (fun w payload ->
      Buf.write_u8 w kind;
      Buf.write_u32 w seq;
      Buf.write_u8 w (if last then 1 else 0);
      Buf.write_u16 w port;
      Buf.write_bytes w payload)
    payload

let parse b =
  if Bytes.length b < 8 then None
  else
    let r = Buf.reader b in
    let kind = Buf.read_u8 r in
    let seq = Buf.read_u32 r in
    let last = Buf.read_u8 r = 1 in
    let port = Buf.read_u16 r in
    let payload = Buf.read_bytes r (Buf.remaining r) in
    Some (kind, seq, last, port, payload)

(* The in-kernel receive path: reassembly, acknowledgment, and
   retransmission cost the application nothing beyond read/write. *)
let kernel_loop conn () =
  let net = Syscall.net conn.env in
  while not conn.closed do
    match Mailbox.recv (Net.mailbox conn.sock) with
    | None -> ()
    | Some dgram -> (
      match parse dgram.Net.payload with
      | Some (3, seq, last, _, payload) ->
        let next = Int32.add conn.recv_expected 1l in
        if Int32.equal seq next then begin
          conn.recv_expected <- next;
          Buffer.add_bytes conn.partial payload;
          if last then begin
            Mailbox.send conn.messages (Buffer.to_bytes conn.partial);
            Buffer.clear conn.partial
          end
        end;
        (* Cumulative acknowledgment, also for duplicates and gaps. *)
        Net.send net ~src:(Net.socket_addr conn.sock) ~dst:conn.peer
          (frame ~kind:4 ~seq:conn.recv_expected Bytes.empty)
      | Some (4, seq, _, _, _) ->
        if Int32.compare seq conn.acked > 0 then begin
          conn.acked <- seq;
          Condition.broadcast conn.ack_cond
        end
      | Some _ | None -> ())
  done

let make_conn env host sock peer =
  let conn =
    { env;
      host;
      sock;
      peer;
      meter = None;
      send_seq = 0l;
      acked = 0l;
      ack_cond = Condition.create ();
      recv_expected = 0l;
      partial = Buffer.create 256;
      messages = Mailbox.create (Host.engine host);
      closed = false;
      kernel = None }
  in
  conn.kernel <- Some (Host.spawn host ~label:"tcp.kernel" (fun () -> kernel_loop conn ()));
  conn

let set_meter conn m = conn.meter <- Some m

let close conn =
  if not conn.closed then begin
    conn.closed <- true;
    (match conn.kernel with Some f -> Fiber.cancel f | None -> ());
    Net.close conn.sock
  end

let chunk_payload env = (Net.params (Syscall.net env)).Net.mtu - 8

let send conn body =
  if conn.closed then invalid_arg "Stream.send: closed";
  if Trace.on () then
    Trace.emit ~cat:"tcp" ~host:(Host.id conn.host)
      ~args:[ ("len", Tev.Int (Bytes.length body)); ("dst", Tev.Int conn.peer.Addr.host) ]
      "send";
  (* user-mode work of the test program around each write: Table 4.1
     reports 0.5 ms user CPU per TCP echo. *)
  Syscall.compute conn.env ?meter:conn.meter conn.host 0.25e-3;
  Syscall.write_stream conn.env ?meter:conn.meter conn.host;
  let net = Syscall.net conn.env in
  let size = chunk_payload conn.env in
  let len = Bytes.length body in
  let chunks = if len = 0 then 1 else (len + size - 1) / size in
  for i = 0 to chunks - 1 do
    let pos = i * size in
    let payload = Bytes.sub body pos (min size (len - pos)) in
    conn.send_seq <- Int32.add conn.send_seq 1l;
    let seq = conn.send_seq in
    let fr = frame ~kind:3 ~seq ~last:(i = chunks - 1) payload in
    let rec push rto_now =
      Net.send net ~src:(Net.socket_addr conn.sock) ~dst:conn.peer fr;
      (* Kernel-managed retransmission: wait for the cumulative ack. *)
      let rec await () =
        if Int32.compare conn.acked seq < 0 && not conn.closed then
          match Condition.await_timeout (Host.engine conn.host) conn.ack_cond rto_now with
          | `Signalled -> await ()
          | `Timeout ->
            if Trace.on () then begin
              Trace.incr "tcp.retransmits";
              Trace.emit ~cat:"tcp" ~host:(Host.id conn.host)
                ~args:
                  [ ("seq", Tev.I32 seq);
                    ("dst", Tev.Int conn.peer.Addr.host);
                    ("rto", Tev.Float (backoff rto_now)) ]
                "retransmit"
            end;
            push (backoff rto_now)
      in
      await ()
    in
    push rto
  done

let recv ?timeout conn =
  match Mailbox.recv ?timeout conn.messages with
  | Some body ->
    if Trace.on () then
      Trace.emit ~cat:"tcp" ~host:(Host.id conn.host)
        ~args:[ ("len", Tev.Int (Bytes.length body)); ("src", Tev.Int conn.peer.Addr.host) ]
        "recv";
    Syscall.compute conn.env ?meter:conn.meter conn.host 0.25e-3;
    Syscall.read_stream conn.env ?meter:conn.meter conn.host;
    Some body
  | None -> None

let listen env host ~port =
  let sock = Net.udp_bind (Syscall.net env) host ~port () in
  let listener =
    { l_env = env;
      l_host = host;
      l_sock = sock;
      l_accept = Mailbox.create (Host.engine host);
      l_conns = Hashtbl.create 8 }
  in
  ignore
    (Host.spawn host ~label:"tcp.listener" (fun () ->
         let net = Syscall.net env in
         while Host.is_alive host do
           match Mailbox.recv (Net.mailbox sock) with
           | None -> ()
           | Some dgram -> (
             match parse dgram.Net.payload with
             | Some (0, _, _, _, _) ->
               let peer = dgram.Net.src in
               let _, dedicated_port =
                 match Hashtbl.find_opt listener.l_conns peer with
                 | Some entry -> entry
                 | None ->
                   let conn_sock = Net.udp_bind net host () in
                   let conn = make_conn env host conn_sock peer in
                   let entry = (conn, (Net.socket_addr conn_sock).Addr.port) in
                   if Trace.on () then
                     Trace.emit ~cat:"tcp" ~host:(Host.id host)
                       ~args:[ ("peer", Tev.Int peer.Addr.host) ]
                       "accept";
                   Hashtbl.replace listener.l_conns peer entry;
                   Mailbox.send listener.l_accept conn;
                   entry
               in
               Net.send net ~src:(Net.socket_addr sock) ~dst:peer
                 (frame ~kind:1 ~port:dedicated_port Bytes.empty)
             | Some _ | None -> ())
         done));
  listener

let accept listener =
  match Mailbox.recv listener.l_accept with
  | Some conn -> conn
  | None -> assert false

let connect env host ?meter ~dst () =
  let net = Syscall.net env in
  let sock = Net.udp_bind net host () in
  let syn = frame ~kind:0 Bytes.empty in
  let rec handshake tries rto_now =
    if tries = 0 then begin
      Net.close sock;
      failwith "Stream.connect: no answer"
    end;
    Net.send net ~src:(Net.socket_addr sock) ~dst syn;
    match Mailbox.recv ~timeout:rto_now (Net.mailbox sock) with
    | Some dgram -> (
      match parse dgram.Net.payload with
      | Some (1, _, _, port, _) -> Addr.make ~host:dst.Addr.host ~port
      | Some _ | None -> handshake (tries - 1) (backoff rto_now))
    | None -> handshake (tries - 1) (backoff rto_now)
  in
  let peer = handshake 20 rto in
  if Trace.on () then
    Trace.emit ~cat:"tcp" ~host:(Host.id host) ~args:[ ("peer", Tev.Int peer.Addr.host) ] "connect";
  let conn = make_conn env host sock peer in
  (match meter with Some m -> set_meter conn m | None -> ());
  Net.send net ~src:(Net.socket_addr sock) ~dst:peer (frame ~kind:2 Bytes.empty);
  conn
