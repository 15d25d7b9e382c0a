open Circus_sim
module Trace = Circus_trace.Trace

type costs = {
  sendmsg : float;
  recvmsg : float;
  select : float;
  setitimer : float;
  gettimeofday : float;
  sigblock : float;
  read : float;
  write : float;
}

let default_costs =
  { sendmsg = 8.1e-3;
    recvmsg = 2.8e-3;
    select = 1.8e-3;
    setitimer = 1.2e-3;
    gettimeofday = 0.7e-3;
    sigblock = 0.4e-3;
    read = 3.4e-3;
    write = 4.4e-3 }

let fast_costs =
  let scale x = x /. 100.0 in
  { sendmsg = scale default_costs.sendmsg;
    recvmsg = scale default_costs.recvmsg;
    select = scale default_costs.select;
    setitimer = scale default_costs.setitimer;
    gettimeofday = scale default_costs.gettimeofday;
    sigblock = scale default_costs.sigblock;
    read = scale default_costs.read;
    write = scale default_costs.write }

type env = {
  net : Net.t;
  costs : costs;
  (* Receive-side batching: when on, demux loops follow a successful
     select with a [pending]-guarded drain, paying one select per
     backlog instead of one per datagram.  Off by default — the drain
     changes the charge sequence under load, and the measurement
     benches pin the paper's one-select-per-datagram loop. *)
  mutable recv_drain : bool;
  (* [costs] again, field by field.  In this record, which is not all
     floats, each is a box built once, and a charge hands that box to
     [Host.use_cpu] as it is: read from the flat [costs] record, every
     charge would box its cost afresh. *)
  c_sendmsg : float;
  c_recvmsg : float;
  c_select : float;
  c_setitimer : float;
  c_gettimeofday : float;
  c_sigblock : float;
  c_read : float;
  c_write : float;
}

let make net ?(costs = default_costs) () =
  { net;
    costs;
    recv_drain = false;
    c_sendmsg = costs.sendmsg;
    c_recvmsg = costs.recvmsg;
    c_select = costs.select;
    c_setitimer = costs.setitimer;
    c_gettimeofday = costs.gettimeofday;
    c_sigblock = costs.sigblock;
    c_read = costs.read;
    c_write = costs.write }

let net env = env.net
let costs env = env.costs
let set_recv_drain env flag = env.recv_drain <- flag
let recv_drain env = env.recv_drain

(* Each call's name, interned once with its meter slot, inside the
   charge kind built once: a charge neither looks the name up nor
   builds the [`Kernel] block. *)
let kernel name : [ `User | `Kernel of Meter.syscall ] = `Kernel (Meter.syscall name)

let k_sendmsg = kernel "sendmsg"
let k_recvmsg = kernel "recvmsg"
let k_select = kernel "select"
let k_setitimer = kernel "setitimer"
let k_gettimeofday = kernel "gettimeofday"
let k_sigblock = kernel "sigblock"
let k_read = kernel "read"
let k_write = kernel "write"
let charge ?meter host kind cost = Host.use_cpu host ?meter ~kind cost

let no_hook (_ : int) = ()

let sendmsg env ?meter sock ~dst payload =
  charge ?meter (Net.socket_host sock) k_sendmsg env.c_sendmsg;
  Net.send env.net ~src:(Net.socket_addr sock) ~dst payload

(* Vectored burst, the body of [sendmsg_vec] and
   [sendmsg_multicast_vec]: per datagram, the optional user-time
   (marshaling) charge, the [on_segment] hook at its end instant, the
   kernel send charge, and the injection at that charge's end instant —
   exactly a loop of standalone sends.  The loop is written out, so a
   burst allocates no closure of its own: with the hook left out, only
   what the charges and the net allocate. *)
let send_vec env ?meter ?user_cost ~on_segment sock ~multicast ~dst ~dsts payloads =
  let host = Net.socket_host sock in
  let net = env.net and src = Net.socket_addr sock in
  for i = 0 to Array.length payloads - 1 do
    (match user_cost with Some u -> Host.use_cpu host ?meter ~kind:`User u | None -> ());
    on_segment i;
    charge ?meter host k_sendmsg env.c_sendmsg;
    if multicast then Net.send_multicast net ~src ~dsts payloads.(i)
    else Net.send net ~src ~dst payloads.(i)
  done

let sendmsg_vec env ?meter ?user_cost ?(on_segment = no_hook) sock ~dst payloads =
  send_vec env ?meter ?user_cost ~on_segment sock ~multicast:false ~dst ~dsts:[] payloads

let sendmsg_multicast_vec env ?meter ?user_cost ?(on_segment = no_hook) sock ~dsts payloads =
  send_vec env ?meter ?user_cost ~on_segment sock ~multicast:true
    ~dst:(Net.socket_addr sock) ~dsts payloads

let recvmsg env ?meter ?timeout sock =
  match Mailbox.recv ?timeout (Net.mailbox sock) with
  | Some _ as received ->
    charge ?meter (Net.socket_host sock) k_recvmsg env.c_recvmsg;
    received
  | None -> None

(* FIONREAD: the receive-buffer depth the kernel already knows.  Free
   of charge — the readiness information is the same thing the
   just-returned [select]/[recvmsg] reported, and a demux loop uses it
   to drain a backlog in one scheduling pass instead of paying a full
   select round-trip per queued datagram. *)
let pending sock = Mailbox.length (Net.mailbox sock)

(* The blocking wait inside select, as a span on the host's track: the
   gap between a select's slice and its wake is idle time the paper's
   tables attribute to real time but not CPU time. *)
let select_span_begin host =
  if Trace.on () then begin
    let host = Host.id host in
    let fiber = Fiber.id (Fiber.self ()) in
    Trace.span_begin ~cat:"syscall" ~host ~fiber "select.wait";
    Some (host, fiber)
  end
  else None

let select_span_end scope ~key ~value =
  match scope with
  | Some (host, fiber) ->
    Trace.span_end ~cat:"syscall" ~host ~fiber
      ~args:[ (key, Circus_trace.Event.Bool value) ]
      "select.wait"
  | None -> ()

let select env ?meter ?timeout socks =
  match socks with
  | [] -> invalid_arg "Syscall.select: no sockets"
  | sock :: rest ->
    (* One select charges one kernel, so the whole set must live on one
       host — a list spanning hosts would silently bill only the head
       socket's machine. *)
    let host = Net.socket_host sock in
    List.iter
      (fun s ->
        if Net.socket_host s != host then
          invalid_arg
            (Printf.sprintf "Syscall.select: sockets span hosts (%s vs %s)"
               (Host.name host)
               (Host.name (Net.socket_host s))))
      rest;
    charge ?meter host k_select env.c_select;
    if List.exists (fun s -> Mailbox.length (Net.mailbox s) > 0) socks then true
    else begin
      (* Park on the fiber's own park until a send to one of the
         sockets or the timer wakes it; only the first wake counts.
         The watchers and the timer are unhooked when the fiber
         resumes, so none reaches a later wait; after an abort they
         stay hooked until then, and a timer due in between fires. *)
      let scope = select_span_begin host in
      let engine = Net.engine env.net in
      let fiber = Fiber.running engine in
      let park = Fiber.own_park fiber in
      let ready = ref false in
      let wake r () =
        if Fiber.is_parked park then begin
          ready := r;
          Fiber.unpark park ()
        end
      in
      let watchers =
        List.rev_map (fun s -> (Net.mailbox s, Mailbox.watch (Net.mailbox s) (wake true))) socks
      in
      let timer =
        match timeout with Some duration -> Fiber.timeout fiber duration (wake false) | None -> None
      in
      let unhook () =
        List.iter (fun (mb, w) -> Mailbox.unwatch mb w) watchers;
        Option.iter Engine.cancel timer
      in
      match Fiber.park_own park ~on_abort:ignore with
      | () ->
        unhook ();
        select_span_end scope ~key:"ready" ~value:!ready;
        !ready
      | exception e ->
        unhook ();
        select_span_end scope ~key:"raised" ~value:true;
        raise e
    end

(* A demux loop's select, built once: [select ~timeout:None [sock]]
   with its watcher and park made a single time.  The watcher stays on
   the mailbox for the selector's whole life and unparks the fiber only
   while it is parked there ([Fiber.unpark] is a no-op otherwise), so a
   select that has to wait allocates only its resume event.  The
   charges, engine events and trace events are those of [select]. *)
type selector = {
  env : env;
  meter : Meter.t option;
  host : Host.t;
  mailbox : Net.datagram Mailbox.t;
  park : unit Fiber.park;
  watcher : Mailbox.watcher;
}

let never () = None

let selector env ?meter sock =
  let mailbox = Net.mailbox sock in
  let park = Fiber.park_create ~arm:ignore ~poll:never ~on_abort:ignore in
  let watcher = Mailbox.watch mailbox (fun () -> Fiber.unpark park ()) in
  { env; meter; host = Net.socket_host sock; mailbox; park; watcher }

let select_one s =
  charge ?meter:s.meter s.host k_select s.env.c_select;
  if Mailbox.length s.mailbox = 0 then begin
    let scope = select_span_begin s.host in
    match Fiber.park s.park with
    | () -> select_span_end scope ~key:"ready" ~value:true
    | exception e ->
      select_span_end scope ~key:"raised" ~value:true;
      raise e
  end

let close_selector s = Mailbox.unwatch s.mailbox s.watcher

let setitimer env ?meter host = charge ?meter host k_setitimer env.c_setitimer

let gettimeofday env ?meter host =
  charge ?meter host k_gettimeofday env.c_gettimeofday;
  Host.gettimeofday host

let sigblock env ?meter host = charge ?meter host k_sigblock env.c_sigblock
let read_stream env ?meter host = charge ?meter host k_read env.c_read
let write_stream env ?meter host = charge ?meter host k_write env.c_write
let compute _env ?meter host seconds = Host.use_cpu host ?meter ~kind:`User seconds
