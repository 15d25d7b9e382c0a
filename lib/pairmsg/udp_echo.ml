open Circus_net

let start_server env host ~port =
  let sock = Net.udp_bind (Syscall.net env) host ~port () in
  ignore
    (Host.spawn host ~label:"udp_echo.server" (fun () ->
         while Host.is_alive host do
           match Syscall.recvmsg env sock with
           | Some dgram -> Syscall.sendmsg env sock ~dst:dgram.Net.src dgram.Net.payload
           | None -> ()
         done))

type client = { env : Syscall.env; host : Host.t; sock : Net.socket; dst : Addr.t; meter : Meter.t }

let client env host ~dst ?meter () =
  let meter = match meter with Some m -> m | None -> Meter.create () in
  let sock = Net.udp_bind (Syscall.net env) host () in
  { env; host; sock; dst; meter }

exception Echo_timeout of Addr.t

let echo c ?(timeout = 1.0) ?(max_retries = 10) payload =
  if max_retries < 0 then invalid_arg "Udp_echo.echo: negative max_retries";
  let rec attempt retries_left =
    (* The test program's own user-mode work (loop, buffer handling):
       0.8 ms per call in the paper's measurement (Table 4.1). *)
    Syscall.compute c.env ~meter:c.meter c.host 0.8e-3;
    Syscall.sendmsg c.env ~meter:c.meter c.sock ~dst:c.dst payload;
    Syscall.setitimer c.env ~meter:c.meter c.host;  (* alarm(timeout) *)
    let answer = Syscall.recvmsg c.env ~meter:c.meter ~timeout c.sock in
    Syscall.setitimer c.env ~meter:c.meter c.host;  (* alarm(0) *)
    match answer with
    | Some dgram -> dgram.Net.payload
    | None ->
      (* Bounded retry: under a partition the unbounded loop of the
         original figure livelocks the client fiber forever. *)
      if retries_left = 0 then raise (Echo_timeout c.dst) else attempt (retries_left - 1)
  in
  attempt max_retries
