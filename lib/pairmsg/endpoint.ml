open Circus_sim
open Circus_net
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event
module Causal = Circus_trace.Causal

exception Crashed of Addr.t
exception Rejected of Addr.t

let msg_type_str = function
  | Segment.Call -> "call"
  | Segment.Return -> "return"
  | Segment.Probe -> "probe"
  | Segment.Probe_ack -> "probe_ack"
  | Segment.Reject -> "reject"

type config = {
  retransmit_interval : float;
  max_retransmits : int;
  retransmit_backoff : float;
  probe_interval : float;
  crash_timeout : float;
  user_cost_per_call : float;
  user_cost_per_segment : float;
}

let default_config =
  { retransmit_interval = 0.1;
    max_retransmits = 10;
    retransmit_backoff = 1.0;
    probe_interval = 0.5;
    crash_timeout = 2.0;
    user_cost_per_call = 3.0e-3;
    user_cost_per_segment = 1.4e-3 }

type outgoing = {
  o_dst : Addr.t;
  o_type : Segment.msg_type;
  o_call_no : int32;
  (* The encoded data segments, without please-ack ([[||]] once
     acknowledged).  The first burst sends these very bytes; nothing
     mutates a datagram in flight or keeps its payload after decoding
     it, so they are shared. *)
  mutable o_segments : bytes array;
  mutable o_acked : int;  (* highest consecutively acked segment number *)
  mutable o_done : bool;
  mutable o_failed : bool;
  (* Retransmit-chain state (formerly locals of the retransmit fiber):
     consecutive unproductive wakes, and the [o_acked] level at which
     the give-up counter was last reset. *)
  mutable o_attempts : int;
  mutable o_acked_mark : int;
  (* Causal context of the request this message serves, captured when
     the message was started.  Retransmit and watchdog ticks run from
     pooled tasks with no ambient context of their own; they restore
     this one so resends and probes stay on the request's chain. *)
  o_ctx : int;
  (* The retransmit chain's pooled task and the callback of its timer
     event, built once per message ([retransmit_dispatch]) and used by
     every wake; [o_started] tells the task whether a wake is the
     chain's first. *)
  mutable o_started : bool;
  mutable o_task : unit -> unit;
  mutable o_fire : unit -> unit;
}

type incoming = {
  i_total : int;
  mutable i_parts : bytes option array;  (* emptied once assembled *)
  mutable i_ack_no : int;
  mutable i_complete : bool;
  mutable i_body : bytes;  (* valid once complete *)
}

(* What a call message leaves behind once it has been delivered:
   complete, fully acknowledged, nothing to redeliver, no body.  It
   only answers late duplicates (with [total], ack number [total]), so
   one shared record per [total] serves every delivered call of that
   length.  A call swaps its record for [delivered] once the body has
   gone to the handler, and for [delivered_postponed] once it has
   postponed its ack (§4.2.2): a late duplicate then gets the ack it
   would have got from the call's own record; which of the two a call
   holds is told by physical equality.  A delivered return leaves no
   record at all, only its member of the endpoint's [Delivered] set,
   and [delivered] answers its late duplicates.

   Nothing mutates a complete record — the reassembly path is guarded
   by [i_complete], and postponing an ack replaces the marker — which
   is what makes sharing them, across endpoints and domains, safe. *)
let delivered_marker total =
  { i_total = total; i_parts = [||]; i_ack_no = total; i_complete = true; i_body = Bytes.empty }

let delivered = Array.init 256 delivered_marker
let delivered_postponed = Array.init 256 delivered_marker

type reply = { from : Addr.t; result : (bytes, exn) result; reply_ctx : int }

(* The replies of one [call_many]: one slot per destination, filled in
   arrival order.  A receiver with nothing to take waits on its fiber's
   own park, and the arriving reply unparks it: the wait allocates its
   continuation, where a mailbox receive builds a waiter. *)
type replies = {
  r_engine : Engine.t;  (* the receiver's, for its running fiber *)
  got : reply array;  (* [0, arrived) filled *)
  mutable arrived : int;
  mutable taken : int;
  mutable waiting : bool;
  mutable waiter : unit Fiber.park option;  (* the receiver's, once it has waited *)
}

let no_reply = { from = Addr.make ~host:0 ~port:0; result = Error Not_found; reply_ctx = 0 }

type exchange = {
  x_dst : Addr.t;
  x_call_no : int32;
  x_out : outgoing;
  mutable x_last_activity : float;
  mutable x_finished : bool;
  (* The watchdog's timer, built once per exchange with the chain's
     pooled task ([watchdog_dispatch]) and re-armed for every wake;
     [x_wd_armed] while a wake is pending.  Cleared just before the
     callback dispatches its tick, so a timer found armed is always
     live and safe to [Engine.cancel]. *)
  mutable x_wd_started : bool;
  mutable x_wd_armed : bool;
  mutable x_wd_task : unit -> unit;
  mutable x_watchdog : Engine.handle;
  x_replies : replies;
}

(* Per-call state is keyed by (peer, message type, call number)
   composites packed into a single non-negative int, so the hot
   find/replace/remove path through [Itab] allocates no key tuples.
   Layout (62 usable bits): host:11 | port:16 | msg_type:3 | call_no:32.
   The simulator never approaches 2048 hosts or 65536 ports; call
   numbers are compared in the unsigned-int domain, consistent with the
   int32 counter they come from. *)
let[@inline] addr_key (a : Addr.t) = (a.Addr.host lsl 16) lor a.Addr.port

let[@inline] mt_tag = function
  | Segment.Call -> 0
  | Segment.Return -> 1
  | Segment.Probe -> 2
  | Segment.Probe_ack -> 3
  | Segment.Reject -> 4

let[@inline] cn_int cn = Int32.to_int cn land 0xFFFFFFFF
let[@inline] msg_key a mt cn = (addr_key a lsl 35) lor (mt_tag mt lsl 32) lor cn_int cn
let[@inline] call_key a cn = (addr_key a lsl 32) lor cn_int cn

(* How far behind a peer's highest executed call the endpoint still
   keeps per-call state for that peer. *)
let window = 64

type t = {
  env : Syscall.env;
  host : Host.t;
  sock : Net.socket;
  meter : Meter.t;
  (* [Some meter] and [Some config.user_cost_per_segment], built once
     for the optional arguments of every charge. *)
  meter_opt : Meter.t option;
  seg_user_cost : float option;
  first_retransmit_delay : float;  (* [retransmit_delay] at attempt 0 *)
  no_watchdog : Engine.handle;  (* a timer never armed: an exchange's until it has its own *)
  config : config;
  engine : Engine.t;
  mutable counter : int32;
  outgoing : outgoing Itab.t;  (* msg_key *)
  calls_in : incoming Itab.t;  (* msg_key of incoming call messages *)
  returns_in : incoming Itab.t;  (* msg_key of incoming returns not yet delivered *)
  delivered_returns : Delivered.t;  (* (addr_key, call no) of delivered returns *)
  exchanges : exchange Itab.t;  (* call_key *)
  completed : int Itab.t;  (* addr_key -> highest executed incoming call per peer *)
  return_peers : unit Itab.t;  (* addr_key of every peer that sent us a return *)
  mutable max_completed : int;  (* max of [completed] *)
  mutable return_reach : int;  (* max of [completed] over [return_peers] *)
  mutable handler : (src:Addr.t -> call_no:int32 -> bytes -> unit) option;
  mutable closed : bool;
  mutable demux : Fiber.t option;
  mutable completions : int;  (* drives periodic pruning *)
}

let addr t = Net.socket_addr t.sock
let meter t = t.meter

let next_call_no t =
  t.counter <- Int32.add t.counter 1l;
  t.counter

(* The segment count of the delivered return for [call_no] from
   [peer], or 0. *)
let delivered_total t peer call_no =
  Delivered.total t.delivered_returns ~peer:(addr_key peer) ~cn:(cn_int call_no)

let seg_size t = (Net.params (Syscall.net t.env)).Net.mtu - Segment.header_size

(* ------------------------------------------------------------------ *)
(* Sending *)

(* Segment lifecycle: every transmitted segment is an event, so a test
   can count retransmissions or follow one call's segments across the
   wire. *)
let trace_seg_send t ~(dst : Addr.t) ~msg_type ~call_no ~seg_no ~total ~ack =
  if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:
        [ ("type", Tev.Str (msg_type_str msg_type));
          ("call_no", Tev.I32 call_no);
          ("seg_no", Tev.Int seg_no);
          ("total", Tev.Int total);
          ("ack", Tev.Bool ack);
          ("dst", Tev.Int dst.Addr.host) ]
      "seg_send"

let send_segment t ~dst (seg : Segment.t) =
  trace_seg_send t ~dst ~msg_type:seg.msg_type ~call_no:seg.call_no ~seg_no:seg.seg_no
    ~total:seg.total ~ack:seg.ack;
  Syscall.sendmsg t.env ?meter:t.meter_opt t.sock ~dst (Segment.encode seg)

let send_ack t ~dst ~msg_type ~total ~ack_no ~call_no =
  send_segment t ~dst (Segment.ack_segment ~msg_type ~total ~ack_no ~call_no)

(* The placeholder of a chain's closures until they are built. *)
let no_task () = ()

(* Retransmission per §4.2.2: periodically resend the first
   unacknowledged segment with the please-ack bit, resetting the give-up
   counter whenever the acknowledgment number advances.

   The loop runs as a timer-callback chain rather than a dedicated
   fiber: each periodic wake is an engine event dispatching a pooled
   task, and the chain re-arms itself until the message is acknowledged
   or given up on.  Every CPU charge (the setitimer bracketing each
   interval, the resends, the final disarm) is made from a pooled
   fiber at exactly the virtual instant the old retransmit fiber made
   it, so metered time and the byte-pinned Table-4.1 fixture are
   unchanged — only the per-message fiber spawn and its park/resume
   machinery are gone.  [inc] pins the chain to the incarnation that
   started it: a chain that outlives a crash (engine timers are not
   host state) goes quiet instead of resending from the dead. *)
(* Retransmit delay for the exchange's current attempt count.  The
   default [retransmit_backoff = 1.0] is the paper's fixed interval;
   a factor > 1 grows the delay geometrically per unacknowledged
   attempt (capped at the probing cadence), so a congested receiver
   sees the duplicate load shrink instead of compound — without
   backoff, retransmissions of queued-but-undelivered messages feed
   the very overload that delays their acks.  Progress (a newly acked
   segment) resets the attempt count and with it the delay.  The
   attempt-0 delay, every chain's first, is computed once per endpoint,
   as a box its [schedule] can take as it is. *)
let retransmit_delay t out =
  if out.o_attempts = 0 then t.first_retransmit_delay
  else
    let d =
      t.config.retransmit_interval
      *. (t.config.retransmit_backoff ** Float.of_int out.o_attempts)
    in
    Float.min d t.config.probe_interval

let rec retransmit_arm t out =
  Syscall.setitimer t.env ?meter:t.meter_opt t.host;
  ignore (Engine.schedule t.engine ~delay:(retransmit_delay t out) out.o_fire)

and retransmit_tick t out =
  if Causal.on () then Causal.set_current out.o_ctx;
  if out.o_done || out.o_failed then
    Syscall.setitimer t.env ?meter:t.meter_opt t.host (* disarm *)
  else begin
    if out.o_acked > out.o_acked_mark then begin
      out.o_acked_mark <- out.o_acked;
      out.o_attempts <- 0
    end;
    out.o_attempts <- out.o_attempts + 1;
    if out.o_attempts > t.config.max_retransmits then begin
      if Trace.on () then
        Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
          ~args:
            [ ("type", Tev.Str (msg_type_str out.o_type));
              ("call_no", Tev.I32 out.o_call_no);
              ("dst", Tev.Int out.o_dst.Addr.host) ]
          "give_up";
      out.o_failed <- true;
      Syscall.setitimer t.env ?meter:t.meter_opt t.host (* disarm *)
    end
    else begin
      let next = out.o_acked + 1 in
      if next <= Array.length out.o_segments then begin
        if Trace.on () then Trace.incr "pairmsg.retransmits";
        (* The retransmit stall joins the causal chain here: the resent
           segment's "xmit" parents on this "rexmit", which parents on
           the context the message started from. *)
        if Causal.on () && out.o_ctx <> Causal.none then
          ignore (Causal.step ~host:(Host.id t.host) "rexmit");
        trace_seg_send t ~dst:out.o_dst ~msg_type:out.o_type ~call_no:out.o_call_no
          ~seg_no:next ~total:(Array.length out.o_segments) ~ack:false;
        Syscall.sendmsg t.env ?meter:t.meter_opt t.sock ~dst:out.o_dst
          (Segment.with_please_ack out.o_segments.(next - 1))
      end;
      (* The resend's charges may have drained the ack that completes
         the message (or a duplicate that fails it); the old loop
         re-checked its condition here before rearming. *)
      if out.o_done || out.o_failed then
        Syscall.setitimer t.env ?meter:t.meter_opt t.host (* disarm *)
      else retransmit_arm t out
    end
  end

(* First wake of the chain, at the event slot the retransmit fiber's
   spawn used to occupy: a message already completed by then (a
   buffered first-come return, §4.3.4) pays only the disarm. *)
let retransmit_start t out =
  if out.o_done || out.o_failed then Syscall.setitimer t.env ?meter:t.meter_opt t.host
  else begin
    out.o_acked_mark <- out.o_acked;
    retransmit_arm t out
  end

(* Start the chain: its first wake, from a pooled task, pinned to the
   current incarnation. *)
let retransmit_dispatch t out =
  let inc = Host.incarnation t.host in
  out.o_task <-
    (fun () ->
      if Host.incarnation t.host = inc then
        if out.o_started then retransmit_tick t out
        else begin
          out.o_started <- true;
          retransmit_start t out
        end);
  out.o_fire <- (fun () -> Host.run_pooled t.host ~label:"pairmsg.retransmit" out.o_task);
  Host.run_pooled t.host ~label:"pairmsg.retransmit" out.o_task

let encode_message t ~msg_type ~call_no body =
  Segment.data_segments ~mtu:(seg_size t + Segment.header_size) ~msg_type ~call_no body

(* [segments] is [encode_message]'s: a multicast call shares one
   encoding among its destinations' records. *)
let start_outgoing t ?(defer_retransmit = false) ~dst ~msg_type ~call_no segments ~send_burst () =
  let out =
    { o_dst = dst; o_type = msg_type; o_call_no = call_no; o_segments = segments;
      o_acked = 0; o_done = false; o_failed = false; o_attempts = 0; o_acked_mark = 0;
      o_ctx = (if Causal.on () then Causal.current () else Causal.none);
      o_started = false; o_task = no_task; o_fire = no_task }
  in
  Itab.replace t.outgoing (msg_key dst msg_type call_no) out;
  if send_burst then begin
    (* The whole burst goes through one vectored send, its per-segment
       user and kernel charges interleaved, with the trace event and
       the injection at exactly the instants the segment-by-segment
       loop produced.  The tracing hook is built only when tracing is
       on. *)
    let total = Array.length segments in
    if Trace.on () then
      Syscall.sendmsg_vec t.env ?meter:t.meter_opt t.sock ~dst ?user_cost:t.seg_user_cost
        ~on_segment:(fun i ->
          trace_seg_send t ~dst ~msg_type ~call_no ~seg_no:(i + 1) ~total ~ack:false)
        segments
    else
      Syscall.sendmsg_vec t.env ?meter:t.meter_opt t.sock ~dst ?user_cost:t.seg_user_cost
        segments
  end;
  (* A client exchange runs the retransmit starter from the same pooled
     task as its watchdog starter (see [start_exchange]); everyone else
     dispatches it here. *)
  if not defer_retransmit then retransmit_dispatch t out;
  out

let finish_outgoing t out =
  if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:
        [ ("type", Tev.Str (msg_type_str out.o_type));
          ("call_no", Tev.I32 out.o_call_no);
          ("dst", Tev.Int out.o_dst.Addr.host) ]
      "msg_acked";
  out.o_done <- true;
  (* Nothing resends an acknowledged message, but its retransmit chain
     holds the record until the chain's next wake: drop the data now. *)
  out.o_segments <- [||];
  Itab.remove t.outgoing (msg_key out.o_dst out.o_type out.o_call_no)

(* ------------------------------------------------------------------ *)
(* Client exchanges *)

(* Cancel a pending watchdog wake; the hygiene trace event pairs with
   the "wd_arm" emitted when the exchange first armed it (tests assert
   every armed watchdog is eventually disarmed). *)
let watchdog_disarm t x =
  if x.x_wd_armed then begin
    x.x_wd_armed <- false;
    Engine.cancel x.x_watchdog;
    if Trace.on () then
      Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
        ~args:[ ("call_no", Tev.I32 x.x_call_no); ("dst", Tev.Int x.x_dst.Addr.host) ]
        "wd_disarm"
  end

let finish_exchange t x result =
  if not x.x_finished then begin
    if Trace.on () then
      Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
        ~args:
          [ ("call_no", Tev.I32 x.x_call_no);
            ("dst", Tev.Int x.x_dst.Addr.host);
            ("ok", Tev.Bool (Result.is_ok result)) ]
        "call_done";
    x.x_finished <- true;
    Itab.remove t.exchanges (call_key x.x_dst x.x_call_no);
    if not x.x_out.o_done then finish_outgoing t x.x_out;
    watchdog_disarm t x;
    (* Ambient here is the context of whatever completed the exchange —
       the return message's final segment, a reject, or a watchdog
       giving up — so the caller's vote can parent on the reply's own
       delivery chain. *)
    let rs = x.x_replies in
    rs.got.(rs.arrived) <-
      { from = x.x_dst;
        result;
        reply_ctx = (if Causal.on () then Causal.current () else Causal.none) };
    rs.arrived <- rs.arrived + 1;
    if rs.waiting then
      match rs.waiter with
      | Some p when Fiber.is_parked p ->
        rs.waiting <- false;
        Fiber.unpark p ()
      | Some _ | None -> ()
  end

(* Crash detection per §4.2.3: once the call message is fully
   acknowledged, probe the server periodically; give up after
   [crash_timeout] of silence.  Like retransmission this runs as a
   timer-callback chain: the charges (one setitimer per interval, the
   probes) come from pooled tasks at the instants the old watchdog
   fiber made them, and an exchange finishing simply cancels the
   pending wake — no fiber to cancel, no discontinue event. *)
let rec watchdog_arm t x =
  Syscall.setitimer t.env ?meter:t.meter_opt t.host;
  Engine.rearm t.engine x.x_watchdog ~delay:t.config.probe_interval;
  x.x_wd_armed <- true

and watchdog_tick t x =
  if Causal.on () then Causal.set_current x.x_out.o_ctx;
  if not x.x_finished then begin
    (if x.x_out.o_failed then finish_exchange t x (Error (Crashed x.x_dst))
     else begin
       let idle = Engine.now t.engine -. x.x_last_activity in
       if idle >= t.config.crash_timeout then finish_exchange t x (Error (Crashed x.x_dst))
       else if x.x_out.o_done && idle >= t.config.probe_interval then
         send_segment t ~dst:x.x_dst (Segment.probe ~call_no:x.x_call_no)
     end);
    if not x.x_finished then watchdog_arm t x
    else if Trace.on () then
      Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
        ~args:[ ("call_no", Tev.I32 x.x_call_no); ("dst", Tev.Int x.x_dst.Addr.host) ]
        "wd_disarm"
  end

let watchdog_start t x =
  if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:[ ("call_no", Tev.I32 x.x_call_no); ("dst", Tev.Int x.x_dst.Addr.host) ]
      "wd_arm";
  if not x.x_finished then watchdog_arm t x
  else if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:[ ("call_no", Tev.I32 x.x_call_no); ("dst", Tev.Int x.x_dst.Addr.host) ]
      "wd_disarm"

(* The watchdog chain's pooled task, pinned to the incarnation [inc],
   and its timer; then its first wake. *)
let watchdog_dispatch t x ~inc =
  x.x_wd_task <-
    (fun () ->
      if Host.incarnation t.host = inc then
        if x.x_wd_started then watchdog_tick t x
        else begin
          x.x_wd_started <- true;
          watchdog_start t x
        end);
  x.x_watchdog <-
    Engine.timer t.engine (fun () ->
        x.x_wd_armed <- false;
        Host.run_pooled t.host ~label:"pairmsg.watchdog" x.x_wd_task);
  Host.run_pooled t.host ~label:"pairmsg.watchdog" x.x_wd_task

let start_exchange t ~dst ~call_no out replies =
  let x =
    { x_dst = dst; x_call_no = call_no; x_out = out;
      x_last_activity = Engine.now t.engine; x_finished = false;
      x_wd_started = false; x_wd_armed = false; x_wd_task = no_task; x_watchdog = t.no_watchdog;
      x_replies = replies }
  in
  Itab.replace t.exchanges (call_key dst call_no) x;
  (* Client-side buffering (§4.3.4): a server using the first-come
     broadcast policy may have sent our return message before we made
     the call; if it is already here, the exchange completes at once.

     The retransmit and watchdog starters stay two separate dispatches:
     the watchdog's setitimer must claim its CPU-queue slot at the
     drained-event instant, before any later burst charges from the
     next destination — fusing the two tasks moves that claim to the
     retransmit charge's completion and shifts multi-destination send
     instants (observable in Table 4.1 real time). *)
  let inc0 = Host.incarnation t.host in
  retransmit_dispatch t out;
  let ret_key = msg_key dst Segment.Return call_no in
  (match Itab.find_opt t.returns_in ret_key with
  | Some inc when inc.i_complete ->
    Itab.remove t.returns_in ret_key;
    Delivered.add t.delivered_returns ~peer:(addr_key dst) ~cn:(cn_int call_no)
      ~total:inc.i_total;
    finish_exchange t x (Ok inc.i_body)
  | Some _ -> watchdog_dispatch t x ~inc:inc0
  | None ->
    (* A return already delivered to an earlier exchange with this
       call number completes this one too, with an empty body. *)
    if delivered_total t dst call_no > 0 then
      finish_exchange t x (Ok Bytes.empty)
    else watchdog_dispatch t x ~inc:inc0);
  x

let rec start_exchanges t ~call_no ~multicast segments replies = function
  | [] -> ()
  | dst :: dsts ->
    let out =
      start_outgoing t ~defer_retransmit:true ~dst ~msg_type:Segment.Call ~call_no segments
        ~send_burst:(not multicast) ()
    in
    ignore (start_exchange t ~dst ~call_no out replies);
    start_exchanges t ~call_no ~multicast segments replies dsts

let call_many t ~dsts ?(multicast = false) ?call_no body =
  if dsts = [] then invalid_arg "Endpoint.call_many: no destinations";
  if t.closed then invalid_arg "Endpoint.call_many: endpoint closed";
  let call_no = match call_no with Some n -> n | None -> next_call_no t in
  if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:
        [ ("call_no", Tev.I32 call_no);
          ("dsts", Tev.Int (List.length dsts));
          ("multicast", Tev.Bool multicast);
          ("len", Tev.Int (Bytes.length body)) ]
      "call_start";
  let replies =
    { r_engine = t.engine;
      got = Array.make (List.length dsts) no_reply;
      arrived = 0;
      taken = 0;
      waiting = false;
      waiter = None }
  in
  (* The fixed call preamble: timestamp plus user-time bookkeeping. *)
  ignore (Syscall.gettimeofday t.env ?meter:t.meter_opt t.host);
  Syscall.compute t.env ?meter:t.meter_opt t.host t.config.user_cost_per_call;
  let segments = encode_message t ~msg_type:Segment.Call ~call_no body in
  (* One transmission per segment reaches the whole troupe; the
     per-destination outgoing records are created without their own
     burst, so only retransmissions are point-to-point. *)
  if multicast then
    Syscall.sendmsg_multicast_vec t.env ?meter:t.meter_opt t.sock ~dsts
      ?user_cost:t.seg_user_cost segments;
  start_exchanges t ~call_no ~multicast segments replies dsts;
  replies

(* A wait here is a mailbox receive's, event for event: the trace's
   block and resume, one delay-0 resume event, and a cancellation
   discontinued in its own delay-0 event.  A reply that arrives after
   the receiver's wait was aborted stays in its slot. *)
let next_reply rs =
  if rs.taken >= Array.length rs.got then invalid_arg "Endpoint.next_reply: every reply taken";
  if rs.taken = rs.arrived then begin
    (* The receiver need not be the caller (a background drain of the
       replies, say), so the park is the current fiber's. *)
    let p = Fiber.own_park (Fiber.running rs.r_engine) in
    (match rs.waiter with Some q when q == p -> () | Some _ | None -> rs.waiter <- Some p);
    rs.waiting <- true;
    Fiber.park p
  end;
  let r = rs.got.(rs.taken) in
  rs.got.(rs.taken) <- no_reply;
  rs.taken <- rs.taken + 1;
  r

let call t ~dst ?call_no body =
  let replies = call_many t ~dsts:[ dst ] ?call_no body in
  match next_reply replies with
  | { result = Ok body; _ } ->
    ignore (Syscall.gettimeofday t.env ?meter:t.meter_opt t.host);
    body
  | { result = Error e; _ } -> raise e

(* ------------------------------------------------------------------ *)
(* Server side *)

let set_handler t handler = t.handler <- Some handler

let reply t ~dst ~call_no body =
  Syscall.compute t.env ?meter:t.meter_opt t.host t.config.user_cost_per_call;
  ignore
    (start_outgoing t ~dst ~msg_type:Segment.Return ~call_no
       (encode_message t ~msg_type:Segment.Return ~call_no body)
       ~send_burst:true ())

let serve t f =
  set_handler t (fun ~src ~call_no body -> reply t ~dst:src ~call_no (f ~src body))

(* ------------------------------------------------------------------ *)
(* Demultiplexer *)

let completed_of_key t akey = Itab.find_or t.completed akey 0

let completed_up_to t peer = completed_of_key t (addr_key peer)

(* The peer [akey] had its call [cn] executed.  Keeps [max_completed]
   and [return_reach], the maxima that let [prune] skip tables. *)
let raise_completed t akey cn =
  if cn > completed_of_key t akey then begin
    Itab.replace t.completed akey cn;
    if cn > t.max_completed then t.max_completed <- cn;
    if cn > t.return_reach && Itab.mem t.return_peers akey then t.return_reach <- cn
  end

(* The first return from [src]: from now on its calls can make return
   records prunable. *)
let note_return_peer t src =
  let akey = addr_key src in
  if not (Itab.mem t.return_peers akey) then begin
    Itab.replace t.return_peers akey ();
    t.return_reach <- max t.return_reach (completed_of_key t akey)
  end

let touch_exchange t ~src ~call_no =
  match Itab.find_opt t.exchanges (call_key src call_no) with
  | Some x -> x.x_last_activity <- Engine.now t.engine
  | None -> ()

(* Drop per-call state the dedup window has passed: the delivered
   markers of calls more than [window] behind the peer's highest
   executed call, whose duplicates [handle_data]'s window test drops,
   plus the complete return records and delivered returns whose call
   number is that far behind it.  Runs every 64 completions.

   Only a peer's own calls advance its horizon, so most tables can hold
   nothing prunable and are skipped without a scan: every table while
   no peer has called us past the window ([max_completed]), and the
   return side while no peer that sent us a return has ([return_reach]).
   A pure client therefore never prunes its delivered returns, which
   cost it one run per peer whose call numbers it sees in a row and a
   bit for each of the others, and a pure server scans only its call
   side, which the window bounds; pruning costs a bounded amount per
   completion instead of growing with the number of calls the endpoint
   has made. *)
let prune_incoming t tbl =
  for i = 0 to Itab.slots tbl - 1 do
    let key = Itab.slot_key tbl i in
    if key >= 0 then begin
      let horizon = completed_of_key t (key lsr 35) - window in
      if key land 0xFFFFFFFF < horizon && (Itab.slot_value tbl i).i_complete then
        Itab.remove tbl key
    end
  done

let prune t =
  if t.max_completed > window then begin
    prune_incoming t t.calls_in;
    if t.return_reach > window then begin
      prune_incoming t t.returns_in;
      Delivered.prune t.delivered_returns ~horizon:(fun akey -> completed_of_key t akey - window)
    end
  end

let assemble inc =
  (* Single-segment fast path: adopt the part's storage directly.  The
     decoder hands each segment a fresh [data] bytes, so nothing else
     aliases it. *)
  (match inc.i_parts with
  | [| Some b |] -> inc.i_body <- b
  | parts ->
    let buf = Buffer.create 256 in
    Array.iter
      (fun part -> match part with Some b -> Buffer.add_bytes buf b | None -> assert false)
      parts;
    inc.i_body <- Buffer.to_bytes buf);
  inc.i_parts <- [||]

let handle_ack t ~src seg =
  touch_exchange t ~src ~call_no:seg.Segment.call_no;
  match Itab.find_opt t.outgoing (msg_key src seg.Segment.msg_type seg.Segment.call_no) with
  | None -> ()
  | Some out ->
    if seg.Segment.seg_no > out.o_acked then out.o_acked <- seg.Segment.seg_no;
    if out.o_acked >= Array.length out.o_segments then finish_outgoing t out

let handle_probe t ~src call_no =
  let known =
    Itab.mem t.calls_in (msg_key src Segment.Call call_no)
    || Itab.mem t.outgoing (msg_key src Segment.Return call_no)
    || cn_int call_no <= completed_up_to t src
  in
  if known then send_segment t ~dst:src (Segment.probe_ack ~call_no)
  else send_segment t ~dst:src (Segment.reject ~call_no)

(* Implicit acknowledgments (§4.2.2): a return segment acknowledges the
   matching call message; a call segment acknowledges any earlier
   return message sent to that peer. *)
let implicit_acks t ~src seg =
  match seg.Segment.msg_type with
  | Segment.Return -> (
    touch_exchange t ~src ~call_no:seg.Segment.call_no;
    match Itab.find_opt t.outgoing (msg_key src Segment.Call seg.Segment.call_no) with
    | Some out -> finish_outgoing t out
    | None -> ())
  | Segment.Call ->
    (* Earlier return messages to this peer: same (addr, Return) key
       prefix, lower call number. *)
    let prefix = (addr_key src lsl 3) lor mt_tag Segment.Return in
    let cn = cn_int seg.Segment.call_no in
    (* Last slot first: the order the acks have always been traced in. *)
    let outgoing = t.outgoing in
    for i = Itab.slots outgoing - 1 downto 0 do
      let key = Itab.slot_key outgoing i in
      if key >= 0 && key lsr 32 = prefix && key land 0xFFFFFFFF < cn then
        finish_outgoing t (Itab.slot_value outgoing i)
    done
  | Segment.Probe | Segment.Probe_ack | Segment.Reject -> ()

let deliver_call t ~src ~call_no body =
  if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:
        [ ("call_no", Tev.I32 call_no);
          ("src", Tev.Int src.Addr.host);
          ("len", Tev.Int (Bytes.length body)) ]
      "deliver_call";
  raise_completed t (addr_key src) (cn_int call_no);
  match t.handler with
  | None -> send_segment t ~dst:src (Segment.reject ~call_no)
  | Some handler ->
    (* Server process per incoming call (§3.4.1), on a pooled worker
       rather than a fresh fiber per call.  Pooled workers are reused,
       so the delivery context is carried into the task explicitly
       (covering any stale context from a previous call). *)
    let cx = if Causal.on () then Causal.current () else Causal.none in
    Host.run_pooled t.host ~label:"pairmsg.server" (fun () ->
        if Causal.on () then Causal.set_current cx;
        handler ~src ~call_no body)

(* Hand a complete return message to its exchange.  From then on it
   only has to ack duplicates, so its record goes, the return joins the
   [Delivered] set and the body goes with the exchange.  A return with
   no live exchange keeps its record and body: it may be a first-come
   return (§4.3.4) whose call has not been made yet, which
   [start_exchange] completes from it.  [listed] says whether the
   record was put in [returns_in] when it was created (see
   [handle_data]). *)
let deliver_return t ~src ~call_no key inc ~listed =
  if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:
        [ ("call_no", Tev.I32 call_no);
          ("src", Tev.Int src.Addr.host);
          ("len", Tev.Int (Bytes.length inc.i_body)) ]
      "deliver_return";
  match Itab.find_opt t.exchanges (call_key src call_no) with
  | Some x ->
    (* The prune that ran on this completion may already have dropped
       the record; the set must not bring it back. *)
    if (not listed) || Itab.mem t.returns_in key then begin
      if listed then Itab.remove t.returns_in key;
      Delivered.add t.delivered_returns ~peer:(addr_key src) ~cn:(cn_int call_no)
        ~total:inc.i_total
    end;
    finish_exchange t x (Ok inc.i_body)
  | None -> if not listed then Itab.replace t.returns_in key inc

let handle_data t ~src seg =
  implicit_acks t ~src seg;
  let call_no = seg.Segment.call_no in
  let msg_type = seg.Segment.msg_type in
  (* Suppress replays: a call so old it predates the dedup window.  A
     delivered call inside the window keeps its marker in [calls_in],
     which answers its duplicates; a prune drops a marker only once its
     call is behind the window, so this test catches every replay whose
     marker is gone.  A merely higher completed call number is NOT a
     replay — concurrent calls from one peer may arrive out of order. *)
  let key = msg_key src msg_type call_no in
  let tbl = if msg_type = Segment.Call then t.calls_in else t.returns_in in
  if not (msg_type = Segment.Call && cn_int call_no < completed_up_to t src - window) then begin
    let listed = ref true in
    let inc =
      match Itab.find_opt tbl key with
      | Some inc -> inc
      | None ->
        let total = if msg_type = Segment.Return then delivered_total t src call_no else 0 in
        (* A late duplicate of a delivered return: the shared marker
           answers it as the return's own record did. *)
        if total > 0 then delivered.(total)
        else begin
          if msg_type = Segment.Return then note_return_peer t src;
          let inc =
            { i_total = seg.Segment.total;
              i_parts = Array.make seg.Segment.total None;
              i_ack_no = 0;
              i_complete = false;
              i_body = Bytes.empty }
          in
          (* A one-segment return completes right here and usually goes
             straight to its exchange, so its record enters [returns_in]
             only if [deliver_return] keeps it.  Until then only
             [start_exchange] could look for it, from a charge's drained
             events, and it treats a missing record as an incomplete
             one.  A prune due on this completion must find the record
             in the table, so the record is listed then. *)
          if
            msg_type = Segment.Return && seg.Segment.total = 1 && seg.Segment.seg_no = 1
            && (t.completions + 1) mod 64 <> 0
          then listed := false
          else Itab.replace tbl key inc;
          inc
        end
    in
    if not inc.i_complete then begin
      let idx = seg.Segment.seg_no - 1 in
      if idx >= 0 && idx < inc.i_total then begin
        (* Out-of-order arrival: acknowledge immediately so the sender
           retransmits the first lost segment (§4.2.4). *)
        if seg.Segment.seg_no > inc.i_ack_no + 1 then
          send_ack t ~dst:src ~msg_type ~total:inc.i_total ~ack_no:inc.i_ack_no ~call_no;
        if Option.is_none inc.i_parts.(idx) then begin
          inc.i_parts.(idx) <- Some seg.Segment.data;
          Syscall.compute t.env ?meter:t.meter_opt t.host t.config.user_cost_per_segment;
          while inc.i_ack_no < inc.i_total && Option.is_some inc.i_parts.(inc.i_ack_no) do
            inc.i_ack_no <- inc.i_ack_no + 1
          done
        end;
        if inc.i_ack_no = inc.i_total then begin
          inc.i_complete <- true;
          assemble inc;
          t.completions <- t.completions + 1;
          if t.completions mod 64 = 0 then prune t;
          match msg_type with
          | Segment.Call ->
            (* The prune that ran on this completion may already have
               dropped the record; a marker must not bring it back. *)
            if Itab.mem tbl key then Itab.replace tbl key delivered.(inc.i_total);
            deliver_call t ~src ~call_no inc.i_body
          | Segment.Return -> deliver_return t ~src ~call_no key inc ~listed:!listed
          | Segment.Probe | Segment.Probe_ack | Segment.Reject -> ()
        end
      end
    end;
    if seg.Segment.please_ack then begin
      (* Postpone acknowledging a freshly completed call once, hoping the
         return message will serve as the implicit acknowledgment. *)
      let awaiting_reply =
        msg_type = Segment.Call && inc.i_complete
        && not (Itab.mem t.outgoing (msg_key src Segment.Return call_no))
      in
      if awaiting_reply && inc != delivered_postponed.(inc.i_total) then begin
        if Itab.mem tbl key then Itab.replace tbl key delivered_postponed.(inc.i_total)
      end
      else send_ack t ~dst:src ~msg_type ~total:inc.i_total ~ack_no:inc.i_ack_no ~call_no
    end
  end

let handle_segment t ~src seg =
  match seg.Segment.msg_type with
  | Segment.Probe -> handle_probe t ~src seg.Segment.call_no
  | Segment.Probe_ack -> touch_exchange t ~src ~call_no:seg.Segment.call_no
  | Segment.Reject -> (
    match Itab.find_opt t.exchanges (call_key src seg.Segment.call_no) with
    | Some x -> finish_exchange t x (Error (Rejected src))
    | None -> ())
  | Segment.Call | Segment.Return ->
    if seg.Segment.ack then handle_ack t ~src seg else handle_data t ~src seg

(* When the env enables receive-side batching ([Syscall.recv_drain]),
   the loop pays one [select] per batch, not per datagram: after a wake
   it drains every datagram the receive buffer holds ([Syscall.pending],
   FIONREAD) before blocking again.  Under a backlog that is what keeps
   the endpoint live — each pass through the host's CPU queue retires
   the whole backlog, where the per-datagram loop pays a full select
   round-trip through that same queue per message and falls ever
   further behind its own retransmitting peers.  With the flag off (the
   default) this is the paper's literal select/recvmsg loop, which the
   Table-4.1 measurement benches pin charge for charge. *)
let rec demux_drain t =
  (match Syscall.recvmsg t.env ?meter:t.meter_opt t.sock with
  | None -> ()
  | Some dgram -> (
    Syscall.sigblock t.env ?meter:t.meter_opt t.host;
    (* Adopt the datagram's causal context for everything this
       segment triggers (reassembly completion, delivery,
       implicit acks, the ack we send back). *)
    if Causal.on () then Causal.set_current dgram.Net.ctx;
    match Segment.decode dgram.Net.payload with
    | None -> ()  (* garbled: treated as lost *)
    | Some seg -> handle_segment t ~src:dgram.Net.src seg));
  if (not t.closed) && Syscall.recv_drain t.env && Syscall.pending t.sock > 0 then demux_drain t

(* The loop selects through a selector built once, whose watcher must
   leave the socket's mailbox however the loop ends: closed, or
   cancelled by a crash. *)
let demux_loop t () =
  let sel = Syscall.selector t.env ?meter:t.meter_opt t.sock in
  Fun.protect ~finally:(fun () -> Syscall.close_selector sel) @@ fun () ->
  while not t.closed do
    Syscall.select_one sel;
    demux_drain t
  done

let create env host ?port ?(config = default_config) ?meter () =
  let meter = match meter with Some m -> m | None -> Meter.create () in
  let sock = Net.udp_bind (Syscall.net env) host ?port () in
  let t =
    { env;
      host;
      sock;
      meter;
      meter_opt = Some meter;
      seg_user_cost = Some config.user_cost_per_segment;
      first_retransmit_delay =
        Float.min
          (config.retransmit_interval *. (config.retransmit_backoff ** 0.0))
          config.probe_interval;
      no_watchdog = Engine.timer (Host.engine host) ignore;
      config;
      engine = Host.engine host;
      counter = 0l;
      outgoing = Itab.create ~initial:32 ();
      calls_in = Itab.create ~initial:32 ();
      returns_in = Itab.create ~initial:8 ();
      delivered_returns = Delivered.create ();
      exchanges = Itab.create ~initial:32 ();
      completed = Itab.create ~initial:16 ();
      return_peers = Itab.create ~initial:16 ();
      max_completed = 0;
      return_reach = 0;
      handler = None;
      closed = false;
      demux = None;
      completions = 0 }
  in
  t.demux <- Some (Host.spawn host ~label:"pairmsg.demux" (fun () -> demux_loop t ()));
  Host.on_crash host (fun () -> t.closed <- true);
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.demux with Some f -> Fiber.cancel f | None -> ());
    Itab.iter (fun _ x -> watchdog_disarm t x) t.exchanges;
    Net.close t.sock
  end
