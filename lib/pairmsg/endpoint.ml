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
  mutable o_segments : bytes array;  (* [[||]] once acknowledged *)
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
}

type incoming = {
  i_total : int;
  mutable i_parts : bytes option array;  (* emptied once assembled *)
  mutable i_ack_no : int;
  mutable i_complete : bool;
  i_postponed_ack : bool;  (* true only in a [delivered_postponed] marker *)
  mutable i_body : bytes;  (* valid once complete *)
}

(* What a message leaves behind once it has been delivered: complete,
   fully acknowledged, nothing to redeliver, no body.  It only answers
   late duplicates (with [total], ack number [total]), so one shared
   record per [total] serves every delivered message of that length.

   - A return swaps its record for [delivered] once its exchange has
     taken the body.
   - A call swaps its record for [delivered] once the body has gone to
     the handler, and for [delivered_postponed] once it has postponed
     its ack (§4.2.2): a late duplicate then gets the ack it would have
     got from the call's own record.

   Nothing mutates a complete record — the reassembly path is guarded
   by [i_complete], and postponing an ack replaces the marker instead of
   setting its flag — which is what makes sharing them, across
   endpoints and domains, safe. *)
let delivered_marker ~postponed total =
  { i_total = total;
    i_parts = [||];
    i_ack_no = total;
    i_complete = true;
    i_postponed_ack = postponed;
    i_body = Bytes.empty }

let delivered = Array.init 256 (delivered_marker ~postponed:false)
let delivered_postponed = Array.init 256 (delivered_marker ~postponed:true)

type reply = { from : Addr.t; result : (bytes, exn) result; reply_ctx : int }

type exchange = {
  x_dst : Addr.t;
  x_call_no : int32;
  x_out : outgoing;
  mutable x_last_activity : float;
  mutable x_finished : bool;
  (* The pending watchdog wake, when one is armed.  Cleared just before
     the callback dispatches its tick, so a handle found here is always
     live and safe to [Engine.cancel]. *)
  mutable x_watchdog : Engine.handle option;
  x_deliver : (bytes, exn) result -> unit;
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
  config : config;
  engine : Engine.t;
  mutable counter : int32;
  outgoing : outgoing Itab.t;  (* msg_key *)
  calls_in : incoming Itab.t;  (* msg_key of incoming call messages *)
  returns_in : incoming Itab.t;  (* msg_key of incoming return messages *)
  exchanges : exchange Itab.t;  (* call_key *)
  completed : int Itab.t;  (* addr_key -> highest executed incoming call per peer *)
  executed : unit Itab.t;  (* call_key; exactly-once guard *)
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
let host t = t.host
let env t = t.env

let next_call_no t =
  t.counter <- Int32.add t.counter 1l;
  t.counter

let seg_size t = (Net.params (Syscall.net t.env)).Net.mtu - Segment.header_size

(* ------------------------------------------------------------------ *)
(* Sending *)

(* Segment lifecycle: every transmitted segment is an event, so a test
   can count retransmissions or follow one call's segments across the
   wire. *)
let trace_seg t name ~(dst : Addr.t) (seg : Segment.t) =
  if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:
        [ ("type", Tev.Str (msg_type_str seg.Segment.msg_type));
          ("call_no", Tev.I32 seg.Segment.call_no);
          ("seg_no", Tev.Int seg.Segment.seg_no);
          ("total", Tev.Int seg.Segment.total);
          ("ack", Tev.Bool seg.Segment.ack);
          ("dst", Tev.Int dst.Addr.host) ]
      name

let send_segment t ~dst seg =
  trace_seg t "seg_send" ~dst seg;
  Syscall.sendmsg t.env ~meter:t.meter t.sock ~dst (Segment.encode seg)

let send_ack t ~dst ~msg_type ~total ~ack_no ~call_no =
  send_segment t ~dst (Segment.ack_segment ~msg_type ~total ~ack_no ~call_no)

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
   segment) resets the attempt count and with it the delay. *)
let retransmit_delay t out =
  let d =
    t.config.retransmit_interval
    *. (t.config.retransmit_backoff ** Float.of_int out.o_attempts)
  in
  Float.min d t.config.probe_interval

let rec retransmit_arm t out ~inc =
  Syscall.setitimer t.env ~meter:t.meter t.host;
  ignore
    (Engine.schedule t.engine ~delay:(retransmit_delay t out) (fun () ->
         Host.run_pooled t.host ~label:"pairmsg.retransmit" (fun () ->
             if Host.incarnation t.host = inc then retransmit_tick t out ~inc)))

and retransmit_tick t out ~inc =
  if Causal.on () then Causal.set_current out.o_ctx;
  if out.o_done || out.o_failed then
    Syscall.setitimer t.env ~meter:t.meter t.host (* disarm *)
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
      Syscall.setitimer t.env ~meter:t.meter t.host (* disarm *)
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
        send_segment t ~dst:out.o_dst
          (Segment.data_segment ~msg_type:out.o_type ~please_ack:true
             ~total:(Array.length out.o_segments) ~seg_no:next ~call_no:out.o_call_no
             out.o_segments.(next - 1))
      end;
      (* The resend's charges may have drained the ack that completes
         the message (or a duplicate that fails it); the old loop
         re-checked its condition here before rearming. *)
      if out.o_done || out.o_failed then
        Syscall.setitimer t.env ~meter:t.meter t.host (* disarm *)
      else retransmit_arm t out ~inc
    end
  end

(* First wake of the chain, at the event slot the retransmit fiber's
   spawn used to occupy: a message already completed by then (a
   buffered first-come return, §4.3.4) pays only the disarm. *)
let retransmit_start t out ~inc =
  if out.o_done || out.o_failed then Syscall.setitimer t.env ~meter:t.meter t.host
  else begin
    out.o_acked_mark <- out.o_acked;
    retransmit_arm t out ~inc
  end

let start_outgoing t ?(defer_retransmit = false) ~dst ~msg_type ~call_no body ~send_burst () =
  let segments = Segment.split_message ~mtu:(seg_size t + Segment.header_size) body in
  let out =
    { o_dst = dst; o_type = msg_type; o_call_no = call_no; o_segments = segments;
      o_acked = 0; o_done = false; o_failed = false; o_attempts = 0; o_acked_mark = 0;
      o_ctx = (if Causal.on () then Causal.current () else Causal.none) }
  in
  Itab.replace t.outgoing (msg_key dst msg_type call_no) out;
  if send_burst then begin
    (* The whole burst goes through one vectored send: one charge span
       interleaving the per-segment user and kernel charges, with the
       trace event and the injection at exactly the instants the
       segment-by-segment loop produced. *)
    let total = Array.length segments in
    let segs =
      Array.mapi
        (fun i data -> Segment.data_segment ~msg_type ~total ~seg_no:(i + 1) ~call_no data)
        out.o_segments
    in
    Syscall.sendmsg_vec t.env ~meter:t.meter t.sock ~dst
      ~user_cost:t.config.user_cost_per_segment
      ~on_segment:(fun i -> trace_seg t "seg_send" ~dst segs.(i))
      (Array.map Segment.encode segs)
  end;
  (* A client exchange runs the retransmit starter from the same pooled
     task as its watchdog starter (see [start_exchange]); everyone else
     dispatches it here. *)
  if not defer_retransmit then begin
    let inc = Host.incarnation t.host in
    Host.run_pooled t.host ~label:"pairmsg.retransmit" (fun () ->
        if Host.incarnation t.host = inc then retransmit_start t out ~inc)
  end;
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
  match x.x_watchdog with
  | Some h ->
    x.x_watchdog <- None;
    Engine.cancel h;
    if Trace.on () then
      Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
        ~args:[ ("call_no", Tev.I32 x.x_call_no); ("dst", Tev.Int x.x_dst.Addr.host) ]
        "wd_disarm"
  | None -> ()

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
    x.x_deliver result
  end

(* Crash detection per §4.2.3: once the call message is fully
   acknowledged, probe the server periodically; give up after
   [crash_timeout] of silence.  Like retransmission this runs as a
   timer-callback chain: the charges (one setitimer per interval, the
   probes) come from pooled tasks at the instants the old watchdog
   fiber made them, and an exchange finishing simply cancels the
   pending wake — no fiber to cancel, no discontinue event. *)
let rec watchdog_arm t x ~inc =
  Syscall.setitimer t.env ~meter:t.meter t.host;
  x.x_watchdog <-
    Some
      (Engine.schedule t.engine ~delay:t.config.probe_interval (fun () ->
           x.x_watchdog <- None;
           Host.run_pooled t.host ~label:"pairmsg.watchdog" (fun () ->
               if Host.incarnation t.host = inc then watchdog_tick t x ~inc)))

and watchdog_tick t x ~inc =
  if Causal.on () then Causal.set_current x.x_out.o_ctx;
  if not x.x_finished then begin
    (if x.x_out.o_failed then finish_exchange t x (Error (Crashed x.x_dst))
     else begin
       let idle = Engine.now t.engine -. x.x_last_activity in
       if idle >= t.config.crash_timeout then finish_exchange t x (Error (Crashed x.x_dst))
       else if x.x_out.o_done && idle >= t.config.probe_interval then
         send_segment t ~dst:x.x_dst (Segment.probe ~call_no:x.x_call_no)
     end);
    if not x.x_finished then watchdog_arm t x ~inc
    else if Trace.on () then
      Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
        ~args:[ ("call_no", Tev.I32 x.x_call_no); ("dst", Tev.Int x.x_dst.Addr.host) ]
        "wd_disarm"
  end

let watchdog_start t x ~inc =
  if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:[ ("call_no", Tev.I32 x.x_call_no); ("dst", Tev.Int x.x_dst.Addr.host) ]
      "wd_arm";
  if not x.x_finished then watchdog_arm t x ~inc
  else if Trace.on () then
    Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
      ~args:[ ("call_no", Tev.I32 x.x_call_no); ("dst", Tev.Int x.x_dst.Addr.host) ]
      "wd_disarm"

let start_exchange t ~dst ~call_no out deliver =
  let x =
    { x_dst = dst; x_call_no = call_no; x_out = out;
      x_last_activity = Engine.now t.engine; x_finished = false; x_watchdog = None;
      x_deliver = deliver }
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
  Host.run_pooled t.host ~label:"pairmsg.retransmit" (fun () ->
      if Host.incarnation t.host = inc0 then retransmit_start t out ~inc:inc0);
  let ret_key = msg_key dst Segment.Return call_no in
  (match Itab.find_opt t.returns_in ret_key with
  | Some inc when inc.i_complete ->
    Itab.replace t.returns_in ret_key delivered.(inc.i_total);
    finish_exchange t x (Ok inc.i_body)
  | Some _ | None ->
    Host.run_pooled t.host ~label:"pairmsg.watchdog" (fun () ->
        if Host.incarnation t.host = inc0 then watchdog_start t x ~inc:inc0));
  x

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
  let replies = Mailbox.create t.engine in
  (* The fixed call preamble — timestamp plus user-time bookkeeping —
     is two charges on one host; fuse them into one span. *)
  let gettimeofday_cost = (Syscall.costs t.env).Syscall.gettimeofday in
  Host.charge_span t.host ~meter:t.meter ~n:2
    ~kind:(fun i -> if i = 0 then `Kernel "gettimeofday" else `User)
    ~cost:(fun i -> if i = 0 then gettimeofday_cost else t.config.user_cost_per_call)
    ();
  if multicast then begin
    (* One transmission per segment reaches the whole troupe; the
       per-destination outgoing records are created without their own
       burst, so only retransmissions are point-to-point. *)
    let segments = Segment.split_message ~mtu:(seg_size t + Segment.header_size) body in
    let total = Array.length segments in
    Syscall.sendmsg_multicast_vec t.env ~meter:t.meter t.sock ~dsts
      ~user_cost:t.config.user_cost_per_segment
      (Array.mapi
         (fun i data ->
           Segment.encode
             (Segment.data_segment ~msg_type:Segment.Call ~total ~seg_no:(i + 1) ~call_no
                data))
         segments)
  end;
  List.iter
    (fun dst ->
      let out =
        start_outgoing t ~defer_retransmit:true ~dst ~msg_type:Segment.Call ~call_no body
          ~send_burst:(not multicast) ()
      in
      ignore
        (start_exchange t ~dst ~call_no out (fun result ->
             (* Ambient here is the context of whatever completed the
                exchange — the return message's final segment, a
                reject, or a watchdog giving up — so the caller's vote
                can parent on the reply's own delivery chain. *)
             Mailbox.send replies
               { from = dst;
                 result;
                 reply_ctx = (if Causal.on () then Causal.current () else Causal.none) })))
    dsts;
  replies

let call t ~dst ?call_no body =
  let replies = call_many t ~dsts:[ dst ] ?call_no body in
  match Mailbox.recv replies with
  | Some { result = Ok body; _ } ->
    ignore (Syscall.gettimeofday t.env ~meter:t.meter t.host);
    body
  | Some { result = Error e; _ } -> raise e
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Server side *)

let set_handler t handler = t.handler <- Some handler

let reply t ~dst ~call_no body =
  Syscall.compute t.env ~meter:t.meter t.host t.config.user_cost_per_call;
  ignore (start_outgoing t ~dst ~msg_type:Segment.Return ~call_no body ~send_burst:true ())

let serve t f =
  set_handler t (fun ~src ~call_no body -> reply t ~dst:src ~call_no (f ~src body))

(* ------------------------------------------------------------------ *)
(* Demultiplexer *)

let completed_of_key t akey =
  match Itab.find_opt t.completed akey with Some n -> n | None -> 0

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

(* Drop per-call state the dedup window has passed: reassembly records
   and exactly-once guards of calls more than [window] behind the
   peer's highest executed call, plus the complete return records whose
   call number is that far behind it.  Runs every 64 completions.

   Only a peer's own calls advance its horizon, so most tables can hold
   nothing prunable and are skipped without a scan: every table while
   no peer has called us past the window ([max_completed]), and the
   return side while no peer that sent us a return has ([return_reach]).
   A pure client therefore never scans the delivered-return markers it
   accumulates, and a pure server scans only its call side, which the
   window bounds; pruning costs a bounded amount per completion instead
   of growing with the number of calls the endpoint has made. *)
let prune_incoming t tbl =
  let stale =
    Itab.fold
      (fun key inc acc ->
        let horizon = completed_of_key t (key lsr 35) - window in
        if key land 0xFFFFFFFF < horizon && inc.i_complete then key :: acc else acc)
      tbl []
  in
  List.iter (Itab.remove tbl) stale

let prune t =
  if t.max_completed > window then begin
    prune_incoming t t.calls_in;
    if t.return_reach > window then prune_incoming t t.returns_in;
    let stale_executed =
      Itab.fold
        (fun key () acc ->
          if key land 0xFFFFFFFF < completed_of_key t (key lsr 32) - window then key :: acc
          else acc)
        t.executed []
    in
    List.iter (Itab.remove t.executed) stale_executed
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
    let stale =
      Itab.fold
        (fun key out acc ->
          if key lsr 32 = prefix && key land 0xFFFFFFFF < cn then out :: acc else acc)
        t.outgoing []
    in
    List.iter (finish_outgoing t) stale
  | Segment.Probe | Segment.Probe_ack | Segment.Reject -> ()

let deliver_call t ~src ~call_no body =
  if not (Itab.mem t.executed (call_key src call_no)) then begin
    if Trace.on () then
      Trace.emit ~cat:"pairmsg" ~host:(Host.id t.host)
        ~args:
          [ ("call_no", Tev.I32 call_no);
            ("src", Tev.Int src.Addr.host);
            ("len", Tev.Int (Bytes.length body)) ]
        "deliver_call";
    Itab.replace t.executed (call_key src call_no) ();
    raise_completed t (addr_key src) (cn_int call_no);
    match t.handler with
    | None -> send_segment t ~dst:src (Segment.reject ~call_no)
    | Some handler ->
      (* Server process per incoming call (§3.4.1), on a pooled worker
         rather than a fresh fiber per call.  Pooled workers are
         reused, so the delivery context is carried into the task
         explicitly (covering any stale context from a previous
         call). *)
      let cx = if Causal.on () then Causal.current () else Causal.none in
      Host.run_pooled t.host ~label:"pairmsg.server" (fun () ->
          if Causal.on () then Causal.set_current cx;
          handler ~src ~call_no body)
  end

(* Hand a complete return message to its exchange.  From then on the
   record only has to ack duplicates, so it is swapped for the shared
   [delivered] marker and the body goes with the exchange.  A
   return with no live exchange keeps its body: it may be a first-come
   return (§4.3.4) whose call has not been made yet, which
   [start_exchange] completes from it. *)
let deliver_return t ~src ~call_no key inc =
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
       the record; a marker must not bring it back. *)
    if Itab.mem t.returns_in key then
      Itab.replace t.returns_in key delivered.(inc.i_total);
    finish_exchange t x (Ok inc.i_body)
  | None -> ()

let handle_data t ~src seg =
  implicit_acks t ~src seg;
  let call_no = seg.Segment.call_no in
  let msg_type = seg.Segment.msg_type in
  (* Suppress replays: a call we already executed whose reassembly state
     is gone, or one so old it predates the dedup window.  A merely
     higher completed call number is NOT a replay — concurrent calls
     from one peer may arrive out of order. *)
  let key = msg_key src msg_type call_no in
  let tbl = if msg_type = Segment.Call then t.calls_in else t.returns_in in
  let replayed =
    msg_type = Segment.Call
    && ((Itab.mem t.executed (call_key src call_no) && not (Itab.mem tbl key))
       || cn_int call_no < completed_up_to t src - window)
  in
  if not replayed then begin
    let inc =
      match Itab.find_opt tbl key with
      | Some inc -> inc
      | None ->
        if msg_type = Segment.Return then note_return_peer t src;
        let inc =
          { i_total = seg.Segment.total;
            i_parts = Array.make seg.Segment.total None;
            i_ack_no = 0;
            i_complete = false;
            i_postponed_ack = false;
            i_body = Bytes.empty }
        in
        Itab.replace tbl key inc;
        inc
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
          Syscall.compute t.env ~meter:t.meter t.host t.config.user_cost_per_segment;
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
          | Segment.Return -> deliver_return t ~src ~call_no key inc
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
      if awaiting_reply && not inc.i_postponed_ack then begin
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
  (match Syscall.recvmsg t.env ~meter:t.meter t.sock with
  | None -> ()
  | Some dgram -> (
    Syscall.sigblock t.env ~meter:t.meter t.host;
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
  let sel = Syscall.selector t.env ~meter:t.meter t.sock in
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
      config;
      engine = Host.engine host;
      counter = 0l;
      outgoing = Itab.create ~initial:32 ();
      calls_in = Itab.create ~initial:32 ();
      returns_in = Itab.create ~initial:32 ();
      exchanges = Itab.create ~initial:32 ();
      completed = Itab.create ~initial:16 ();
      executed = Itab.create ~initial:64 ();
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
