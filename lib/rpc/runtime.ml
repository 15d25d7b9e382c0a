open Circus_sim
open Circus_net
open Circus_pairmsg
module Codec = Circus_wire.Codec
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event
module Causal = Circus_trace.Causal

exception Remote_error of string
exception Stale_binding of Ids.Troupe_id.t
exception Bad_interface

type server_policy =
  | Wait_all
  | Wait_majority
  | First_come of { broadcast : bool }

type config = { straggler_timeout : float; retention : float }

let default_config = { straggler_timeout = 2.0; retention = 10.0 }

type dispatch =
  | Simple of (ctx -> proc_no:int -> bytes -> bytes)
      (** arguments from all client members assumed identical
          (determinism); the procedure sees one set *)
  | Collated of (ctx -> proc_no:int -> expected:int -> bytes list -> bytes)
      (** explicit replication at the server (§7.4, Figure 7.7): the
          procedure sees every client member's arguments, plus the size
          of the client troupe (missing members crashed or deadlocked) *)

and export = {
  dispatch : dispatch;
  policy : server_policy;
  mutable troupe_id : Ids.Troupe_id.t option;
}

(* [Done] holds the encoded return message. *)
and m2o_state = Waiting | Executing | Done of bytes

(* A many-to-one call from its first call message until its execution
   ends; from then on its return waits in [retired]. *)
and m2o = {
  m2o_call : Rpc_msg.call;
  m2o_key : int;  (* [m2o_key m2o_call] *)
  mutable m2o_expected : int;  (* max_int until the client troupe is resolved *)
  (* Each member that called, with its paired-message call number;
     newest first *)
  mutable m2o_received : (Addr.t * int32) list;
  (* The arguments of the calls received while [Waiting], newest first *)
  mutable m2o_args : bytes list;
  mutable m2o_replied : Addr.t list;
  mutable m2o_state : m2o_state;
  mutable m2o_timer : Engine.handle option;
  mutable m2o_ctx : int;
      (* causal ctx of the most recent member call received; the
         straggler give-up path executes from an engine timer, whose
         fiber has no ambient ctx of its own *)
}

and t = {
  endpoint : Endpoint.t;
  host : Host.t;
  env : Syscall.env;
  engine : Engine.t;
  config : config;
  exports : (int, export) Hashtbl.t;
  state_providers : (int, unit -> bytes) Hashtbl.t;
  mutable next_module : int;
  mutable resolver : Ids.Troupe_id.t -> Addr.t list option;
  mutable self_troupe : Ids.Troupe_id.t;
  mutable self_troupe_module : int option;
      (* when set, set_troupe_id on that module also renames our client
         identity — the process IS a member of that troupe *)
  mutable thread_counter : int;
  m2o_table : m2o Itab.t;  (* calls not yet executed, keyed by [m2o_key] *)
  retired : Retired.t;  (* returns of executed calls, by [m2o_key] *)
  (* Single re-arming retention sweeper: one engine timer per retention
     period, not one per executed call. *)
  mutable sweeper_armed : bool;
}

and ctx = {
  thread : Ids.Thread_id.t;
  tag : int64;  (* identity of the call being executed; 0 at the base *)
  mutable next_seq : int;  (* calls this execution has made so far *)
  rt : t;
}

(* SplitMix64-style mixing: a nested call's sequence number is derived
   from the enclosing call's identity and the position of the nested
   call within it, so deterministic replicas agree and distinct
   executions never collide. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_call_seq ctx =
  let seq = mix64 (Int64.add ctx.tag (Int64.of_int (ctx.next_seq + 1))) in
  ctx.next_seq <- ctx.next_seq + 1;
  seq

(* The base of a thread is tagged by the thread's own identity, so two
   distinct threads never collide even at sequence position zero. *)
let root_tag (thread : Ids.Thread_id.t) =
  mix64
    (Int64.logxor
       (Int64.shift_left (Int64.of_int thread.Ids.Thread_id.origin) 32)
       (Int64.of_int thread.Ids.Thread_id.pid))

let meter t = Endpoint.meter t.endpoint
let host t = t.host
let addr t = Endpoint.addr t.endpoint
let thread_id ctx = ctx.thread
let call_tag ctx = ctx.tag
let runtime ctx = ctx.rt
let set_self_troupe t id = t.self_troupe <- id
let set_self_troupe_follows t module_no = t.self_troupe_module <- module_no
let set_resolver t resolver = t.resolver <- resolver

(* Troupe IDs minted by one binding agent increase over time, so a
   reconfiguration can only move an identity forward: a push that lost
   a race against a newer one must not regress it. *)
let id_newer candidate current = Int64.unsigned_compare candidate current > 0

let adopt_self_troupe t id = if id_newer id t.self_troupe then t.self_troupe <- id

let module_addr t module_no = Addr.module_addr (addr t) module_no

(* ------------------------------------------------------------------ *)
(* Server half: the many-to-one call algorithm (§4.3.2) *)

let expected_calls t client_troupe =
  if Ids.Troupe_id.equal client_troupe Ids.Troupe_id.none then 1
  else match t.resolver client_troupe with Some members -> List.length members | None -> 1

let return_kind = function
  | Rpc_msg.Ok_result _ -> "ok"
  | Rpc_msg.App_error _ -> "app_error"
  | Rpc_msg.Stale_troupe -> "stale_troupe"
  | Rpc_msg.No_such_module -> "no_such_module"
  | Rpc_msg.No_such_procedure -> "no_such_procedure"

(* Send an encoded return message.  The endpoint copies [enc] into
   its segments, so one encoding serves every reply of a call. *)
let send_encoded t ~dst ~pair_no enc =
  if Trace.on () then
    Trace.emit ~cat:"rpc" ~host:(Host.id t.host)
      ~args:
        [ ("dst", Tev.Int dst.Addr.host);
          ("pair_no", Tev.I32 pair_no);
          ("kind", Tev.Str (return_kind (Codec.decode Rpc_msg.return_codec enc))) ]
      "return";
  Endpoint.reply t.endpoint ~dst ~call_no:pair_no enc

let send_return t ~dst ~pair_no msg =
  send_encoded t ~dst ~pair_no (Codec.encode Rpc_msg.return_codec msg)

let rec mem_addr a = function [] -> false | b :: rest -> Addr.equal a b || mem_addr a rest

let rec called a = function
  | [] -> false
  | (b, _) :: rest -> Addr.equal a b || called a rest

let rec reply_waiters t m2o enc = function
  | [] -> ()
  | (src, pair_no) :: rest ->
    if not (mem_addr src m2o.m2o_replied) then begin
      m2o.m2o_replied <- src :: m2o.m2o_replied;
      send_encoded t ~dst:src ~pair_no enc
    end;
    reply_waiters t m2o enc rest

(* Two call messages belong to the same replicated call iff they bear
   the same thread ID and call sequence number (§4.3.2).  The identity
   is folded into a 62-bit key for the flat [Itab]: [seq] is itself a
   SplitMix64 digest whose distinctness across executions is already
   probabilistic at 2^-64, so remixing the full (thread, seq, module)
   identity down to 62 bits stays in the same risk class — two live
   calls colliding requires a 2^-62 digest coincidence within one
   retention window. *)
let m2o_key (call : Rpc_msg.call) =
  let thread = call.Rpc_msg.thread in
  let meta =
    (thread.Ids.Thread_id.origin lsl 40)
    lxor (thread.Ids.Thread_id.pid lsl 16)
    lxor call.Rpc_msg.module_no
  in
  Int64.to_int (mix64 (Int64.logxor call.Rpc_msg.seq (Int64.of_int meta)))
  land 0x3FFFFFFFFFFFFFFF

(* Cancel the straggler give-up timer and forget the handle.  Called
   when the call leaves [Waiting]: without this the timer event leaks
   in the engine heap for the full [straggler_timeout]. *)
let cancel_straggler m2o =
  match m2o.m2o_timer with
  | Some h ->
    m2o.m2o_timer <- None;
    Engine.cancel h
  | None -> ()

let[@inline] is_waiting m2o =
  match m2o.m2o_state with Waiting -> true | Executing | Done _ -> false

let trace_execute_end scope key value =
  match scope with
  | Some (host, fiber) ->
    Trace.span_end ~cat:"rpc" ~host ~fiber ~args:[ (key, Tev.Bool value) ] "execute"
  | None -> ()

let rec execute t export m2o =
  if is_waiting m2o then begin
    m2o.m2o_state <- Executing;
    cancel_straggler m2o;
    let call = m2o.m2o_call in
    (* The server process adopts the caller's thread ID for the duration
       of the execution (§3.4.1). *)
    let ctx = { thread = call.Rpc_msg.thread; tag = call.Rpc_msg.seq; next_seq = 0; rt = t } in
    (* The server-side execution as a span on this host's track; the
       fiber scope keeps concurrent executions on one host properly
       nested. *)
    let trace_scope =
      if Trace.on () then begin
        let host = Host.id t.host and fiber = Fiber.id (Fiber.self ()) in
        Trace.span_begin ~cat:"rpc" ~host ~fiber
          ~args:
            [ ("module", Tev.Int call.Rpc_msg.module_no);
              ("proc", Tev.Int call.Rpc_msg.proc_no);
              ("received", Tev.Int (List.length m2o.m2o_received));
              ("expected",
                Tev.Int (if m2o.m2o_expected = max_int then -1 else m2o.m2o_expected)) ]
          "execute";
        Some (host, fiber)
      end
      else None
    in
    if Causal.on () then ignore (Causal.step ~host:(Host.id t.host) "exec");
    let result =
      match
        match export.dispatch with
        | Simple f -> f ctx ~proc_no:call.Rpc_msg.proc_no call.Rpc_msg.args
        | Collated f ->
          let args_in_arrival_order = List.rev m2o.m2o_args in
          f ctx ~proc_no:call.Rpc_msg.proc_no ~expected:m2o.m2o_expected args_in_arrival_order
      with
      | body -> Rpc_msg.Ok_result body
      | exception Remote_error e -> Rpc_msg.App_error e
      | exception Fiber.Cancelled ->
        trace_execute_end trace_scope "cancelled" true;
        raise Fiber.Cancelled
      | exception e -> Rpc_msg.App_error (Printexc.to_string e)
    in
    trace_execute_end trace_scope "ok"
      (match result with Rpc_msg.Ok_result _ -> true | _ -> false);
    if Causal.on () then ignore (Causal.step ~host:(Host.id t.host) "exec_done");
    let enc = Codec.encode Rpc_msg.return_codec result in
    m2o.m2o_state <- Done enc;
    reply_waiters t m2o enc m2o.m2o_received;
    (match export.policy with
    | First_come { broadcast = true } -> (
      (* Send the return to the whole client troupe so that slow members
         find it already waiting (§4.3.4).  Deterministic members share
         the paired-message call number of the member that called. *)
      match (t.resolver call.Rpc_msg.client_troupe, m2o.m2o_received) with
      | Some members, (_, pair_no) :: _ ->
        List.iter
          (fun member ->
            if not (mem_addr member m2o.m2o_replied) then begin
              m2o.m2o_replied <- member :: m2o.m2o_replied;
              send_encoded t ~dst:member ~pair_no enc
            end)
          members
      | _, _ -> ())
    | Wait_all | Wait_majority | First_come _ -> ());
    (* Execution is over: the call leaves [m2o_table], and from here on
       only its encoded return answers late members, from [retired]
       (a [handle_call] still holding the record finds it [Done]).  The
       return is forgotten after the retention period; later duplicates
       are answered by the paired message layer's own replay
       suppression.  Retirement is batched: a single re-arming sweeper
       drops the expired entries, so the steady-state path pushes no
       per-call event into the engine heap.  An entry may thus outlive
       its deadline by up to one sweep period — a strictly larger dedup
       window, which only strengthens the suppression guarantee. *)
    Itab.remove t.m2o_table m2o.m2o_key;
    Retired.add t.retired ~key:m2o.m2o_key ~expiry:(Engine.now t.engine +. t.config.retention) enc;
    if not t.sweeper_armed then begin
      t.sweeper_armed <- true;
      ignore (Engine.schedule t.engine ~delay:t.config.retention (fun () -> sweep_retention t))
    end
  end

(* Re-arm only while retired returns remain, so a runtime whose
   [m2o_table] holds nothing but still-waiting calls (e.g. their
   members all crashed) does not keep the engine awake with perpetual
   sweeps. *)
and sweep_retention t =
  Retired.expire t.retired ~now:(Engine.now t.engine);
  if Retired.length t.retired > 0 then
    ignore (Engine.schedule t.engine ~delay:t.config.retention (fun () -> sweep_retention t))
  else t.sweeper_armed <- false

(* Management procedures present in every exported interface, produced
   "automatically, in the same way that stub procedures are" (§6.2,
   §6.4.1): changing the troupe ID during reconfiguration, externalizing
   the module state for a joining member, and answering the binding
   agent's are-you-there probes. *)
let reserved_null_proc = 0xfffd
let reserved_get_state_proc = 0xfffe
let reserved_set_troupe_id_proc = 0xffff

let set_state_provider t ~module_no get =
  if not (Hashtbl.mem t.exports module_no) then
    invalid_arg "Runtime.set_state_provider: unknown module";
  Hashtbl.replace t.state_providers module_no get

let handle_reserved t ~src ~pair_no (call : Rpc_msg.call) export =
  if call.Rpc_msg.proc_no = reserved_set_troupe_id_proc then begin
    (* Bypasses the stale check: this is how the troupe ID changes. *)
    (match Codec.decode (Codec.option Ids.Troupe_id.codec) call.Rpc_msg.args with
    | Some id ->
      (match export.troupe_id with
      | Some current when not (id_newer id current) -> ()
      | Some _ | None -> export.troupe_id <- Some id);
      if t.self_troupe_module = Some call.Rpc_msg.module_no then adopt_self_troupe t id
    | None -> export.troupe_id <- None
    | exception Codec.Decode_error _ -> ());
    send_return t ~dst:src ~pair_no (Rpc_msg.Ok_result Bytes.empty);
    true
  end
  else if call.Rpc_msg.proc_no = reserved_null_proc then begin
    send_return t ~dst:src ~pair_no (Rpc_msg.Ok_result Bytes.empty);
    true
  end
  else if call.Rpc_msg.proc_no = reserved_get_state_proc then begin
    (match Hashtbl.find_opt t.state_providers call.Rpc_msg.module_no with
    | Some get -> send_return t ~dst:src ~pair_no (Rpc_msg.Ok_result (get ()))
    | None -> send_return t ~dst:src ~pair_no Rpc_msg.No_such_procedure);
    true
  end
  else false

(* Add a member's call message to its many-to-one call, and execute
   the call once the export's policy says enough members have called. *)
let join_m2o t export ~src ~pair_no (call : Rpc_msg.call) m2o ~fresh =
  if not (called src m2o.m2o_received) then begin
    m2o.m2o_received <- (src, pair_no) :: m2o.m2o_received;
    if is_waiting m2o then m2o.m2o_args <- call.Rpc_msg.args :: m2o.m2o_args
  end;
  if Causal.on () then begin
    let c = Causal.current () in
    if c <> Causal.none then m2o.m2o_ctx <- c
  end;
  (match m2o.m2o_state with
  | Done enc ->
    (* A slow client member: the buffered return is ready and waiting
       — execution appears instantaneous (§4.3.4).  Reply even if a
       broadcast was already sent, in case it was lost. *)
    m2o.m2o_replied <- src :: m2o.m2o_replied;
    send_encoded t ~dst:src ~pair_no enc
  | Executing -> ()
  | Waiting ->
    let received = List.length m2o.m2o_received in
    let ready =
      match export.policy with
      | Wait_all -> received >= m2o.m2o_expected
      | Wait_majority -> m2o.m2o_expected < max_int && received > m2o.m2o_expected / 2
      | First_come _ -> true
    in
    if ready then execute t export m2o);
  (* Give up on silent client members after a timeout: they have
     probably crashed (§4.3.5).  Armed only if this first call did not
     already make the m2o ready — the readiness check runs at the same
     instant, so a call executed immediately (every singleton client)
     never touches the engine heap at all. *)
  if fresh && is_waiting m2o && Option.is_none m2o.m2o_timer then
    m2o.m2o_timer <-
      Some
        (Engine.schedule t.engine ~delay:t.config.straggler_timeout (fun () ->
             (* This event just fired: drop the spent handle. *)
             m2o.m2o_timer <- None;
             if is_waiting m2o then
               ignore
                 (Host.spawn t.host ~label:"rpc.straggler" (fun () ->
                      if Causal.on () && m2o.m2o_ctx <> Causal.none then
                        Causal.set_current m2o.m2o_ctx;
                      execute t export m2o))))

let handle_call t ~src ~pair_no (call : Rpc_msg.call) =
  if Trace.on () then
    Trace.emit ~cat:"rpc" ~host:(Host.id t.host)
      ~args:
        [ ("module", Tev.Int call.Rpc_msg.module_no);
          ("proc", Tev.Int call.Rpc_msg.proc_no);
          ("src", Tev.Int src.Addr.host);
          ("seq", Tev.I64 call.Rpc_msg.seq) ]
      "recv_call";
  match Hashtbl.find_opt t.exports call.Rpc_msg.module_no with
  | None -> send_return t ~dst:src ~pair_no Rpc_msg.No_such_module
  | Some export when handle_reserved t ~src ~pair_no call export -> ()
  | Some export ->
    let stale =
      match export.troupe_id with
      | Some id ->
        (not (Ids.Troupe_id.equal call.Rpc_msg.server_troupe Ids.Troupe_id.none))
        && not (Ids.Troupe_id.equal call.Rpc_msg.server_troupe id)
      | None -> false
    in
    if stale then send_return t ~dst:src ~pair_no Rpc_msg.Stale_troupe
    else begin
      let key = m2o_key call in
      match Itab.find_opt t.m2o_table key with
      | Some m2o -> join_m2o t export ~src ~pair_no call m2o ~fresh:false
      | None -> (
        match Retired.find t.retired key with
        | Some enc ->
          (* A slow client member after execution ended (§4.3.4). *)
          send_encoded t ~dst:src ~pair_no enc
        | None ->
          (* Register before resolving the client troupe: resolution
             may block on a binding-agent lookup, and the other
             members' call messages must find this record, not fork
             their own. *)
          let m2o =
            { m2o_call = call;
              m2o_key = key;
              m2o_expected = max_int;
              m2o_received = [];
              m2o_args = [];
              m2o_replied = [];
              m2o_state = Waiting;
              m2o_timer = None;
              m2o_ctx = Causal.none }
          in
          Itab.replace t.m2o_table key m2o;
          m2o.m2o_expected <- expected_calls t call.Rpc_msg.client_troupe;
          join_m2o t export ~src ~pair_no call m2o ~fresh:true)
    end

let export_dispatch t policy dispatch =
  let module_no = t.next_module in
  t.next_module <- module_no + 1;
  Hashtbl.replace t.exports module_no { dispatch; policy; troupe_id = None };
  module_no

let export t ?(policy = Wait_all) f = export_dispatch t policy (Simple f)
let export_collated t ?(policy = Wait_all) f = export_dispatch t policy (Collated f)

let set_export_troupe t ~module_no troupe_id =
  match Hashtbl.find_opt t.exports module_no with
  | Some export -> export.troupe_id <- troupe_id
  | None -> invalid_arg "Runtime.set_export_troupe: unknown module"

let adopt_export_troupe t ~module_no id =
  match Hashtbl.find_opt t.exports module_no with
  | Some export -> (
    match export.troupe_id with
    | Some current when not (id_newer id current) -> ()
    | Some _ | None -> export.troupe_id <- Some id)
  | None -> invalid_arg "Runtime.adopt_export_troupe: unknown module"

(* ------------------------------------------------------------------ *)
(* Client half: the one-to-many call algorithm (§4.3.1) *)

(* Thread identities must be unique across host incarnations, not just
   within one runtime: servers key their M2O duplicate-suppression
   tables by (thread, seq), and a runtime rebuilt after a crash restart
   resets [thread_counter] and replays the same deterministic call-seq
   stream.  If the new incarnation reused the old pids, its calls would
   collide with the dead incarnation's cached entries and be answered
   with replayed pre-crash results.  Folding the incarnation number into
   the pid keeps the exactly-once guarantee scoped per incarnation, as
   the paper's crash model requires.  Incarnations start at 1, so a
   never-restarted host mints exactly the pids it always did — equal
   seeds keep producing byte-identical traces on fault-free runs. *)
let incarnation_stride = 1_000_000

let mint_thread t =
  t.thread_counter <- t.thread_counter + 1;
  { Ids.Thread_id.origin = Host.id t.host;
    pid = ((Host.incarnation t.host - 1) * incarnation_stride) + t.thread_counter }

let spawn_thread t ?label f =
  let thread = mint_thread t in
  Host.spawn t.host ?label (fun () -> f { thread; tag = root_tag thread; next_seq = 0; rt = t })

let spawn_thread_as t ~thread ?label f =
  Host.spawn t.host ?label (fun () -> f { thread; tag = root_tag thread; next_seq = 0; rt = t })

let detached_ctx t =
  let thread = mint_thread t in
  { thread; tag = root_tag thread; next_seq = 0; rt = t }

let decode_return body =
  match Codec.decode Rpc_msg.return_codec body with
  | msg -> Some msg
  | exception Codec.Decode_error _ -> None

(* One "vote" causal event per collected reply.  The preferred parent
   is the reply's own context (the chain through the server's
   execution); a reply context carrying a different request id — a
   stale capture from before tracing was enabled, or a pooled fiber's
   leftover — falls back to the caller's ambient chain rather than
   splicing this request onto another's critical path. *)
let causal_vote t r_ctx =
  if Causal.on () then begin
    let amb = Causal.current () in
    let parent =
      if
        r_ctx <> Causal.none
        && (amb = Causal.none || Causal.req_of r_ctx = Causal.req_of amb)
      then r_ctx
      else amb
    in
    if parent <> Causal.none then
      ignore (Causal.step ~parent ~host:(Host.id t.host) "vote")
  end

let call_message ctx t (troupe : Troupe.t) ~call_seq ~proc_no ~module_no args =
  Codec.encode Rpc_msg.call_codec
    { Rpc_msg.thread = ctx.thread;
      seq = call_seq;
      client_troupe = t.self_troupe;
      server_troupe = troupe.Troupe.id;
      module_no;
      proc_no;
      args }

let rec member_of members from =
  match members with
  | [] -> raise Not_found
  | (m : Addr.module_addr) :: rest ->
    if Addr.equal m.Addr.process from then m else member_of rest from

let reply_of members { Endpoint.from; result; _ } =
  let message = match result with Ok body -> decode_return body | Error _ -> None in
  { Collator.from = member_of members from; message }

(* The replies of a uniform troupe call, in arrival order, as the
   collator's sequence.  Node [i] is built when first forced and kept in
   [g_nodes], so the sequence is persistent (a watchdog walks it again)
   for the cost of a cons, a reply and one thunk per member. *)
type replies_seq = {
  g_rt : t;
  g_members : Addr.module_addr list;
  g_replies : Endpoint.replies;
  g_nodes : Collator.reply Seq.node array;  (* [0, forced) built *)
  mutable g_forced : int;
}

let rec force g i () =
  if i < g.g_forced then g.g_nodes.(i)
  else begin
    let node =
      if i = Array.length g.g_nodes - 1 then Seq.Nil
      else begin
        let r = Endpoint.next_reply g.g_replies in
        causal_vote g.g_rt r.Endpoint.reply_ctx;
        Seq.Cons (reply_of g.g_members r, force g (i + 1))
      end
    in
    g.g_nodes.(i) <- node;
    g.g_forced <- i + 1;
    node
  end

let rec in_module module_no (members : Addr.module_addr list) =
  match members with
  | [] -> true
  | m :: rest -> m.Addr.module_no = module_no && in_module module_no rest

let call_troupe_gen ctx (troupe : Troupe.t) ~proc_no ?(multicast = false) args =
  let t = ctx.rt in
  (* A call site with no ambient context (bench drivers, tests calling
     straight from a spawned fiber) roots a fresh request here, so
     every troupe call is attributable even outside the scenario
     front-end. *)
  if Causal.on () then begin
    if Causal.current () = Causal.none then
      Causal.set_current (Causal.root ~host:(Host.id t.host) "call")
    else ignore (Causal.step ~host:(Host.id t.host) "call")
  end;
  let pair_no = Endpoint.next_call_no t.endpoint in
  let call_seq = next_call_seq ctx in
  if Trace.on () then
    Trace.emit ~cat:"rpc" ~host:(Host.id t.host)
      ~args:
        [ ("proc", Tev.Int proc_no);
          ("members", Tev.Int (Troupe.size troupe));
          ("multicast", Tev.Bool multicast);
          ("seq", Tev.I64 call_seq) ]
      "call";
  let total = Troupe.size troupe in
  (* Members of a troupe may export the interface under different module
     numbers; group members whose call messages are identical so each
     group can share one (possibly multicast) transmission.  Uniform
     troupes — every member under one module number, which is every
     singleton and almost every real troupe — take a direct path: the
     caller consumes the endpoint's replies itself, decoding inline,
     with no merge fiber and no mailbox hop per reply. *)
  let members = troupe.Troupe.members in
  let module_no = match members with m0 :: _ -> m0.Addr.module_no | [] -> 0 in
  if in_module module_no members then begin
    let payload = call_message ctx t troupe ~call_seq ~proc_no ~module_no args in
    let dsts = Troupe.member_processes troupe in
    let replies = Endpoint.call_many t.endpoint ~dsts ~multicast ~call_no:pair_no payload in
    let g =
      { g_rt = t; g_members = members; g_replies = replies;
        g_nodes = Array.make (total + 1) Seq.Nil; g_forced = 0 }
    in
    (total, force g 0)
  end
  else begin
    let merged = Mailbox.create t.engine in
    let groups = Hashtbl.create 4 in
    List.iter
      (fun (m : Addr.module_addr) ->
        let existing = try Hashtbl.find groups m.Addr.module_no with Not_found -> [] in
        Hashtbl.replace groups m.Addr.module_no (m :: existing))
      members;
    Hashtbl.iter
      (fun module_no members ->
        let payload = call_message ctx t troupe ~call_seq ~proc_no ~module_no args in
        let dsts = List.map (fun (m : Addr.module_addr) -> m.Addr.process) members in
        let replies = Endpoint.call_many t.endpoint ~dsts ~multicast ~call_no:pair_no payload in
        ignore
          (Host.spawn t.host ~label:"rpc.merge" (fun () ->
               List.iter
                 (fun _ ->
                   let r = Endpoint.next_reply replies in
                   Mailbox.send merged (r.Endpoint.reply_ctx, reply_of members r))
                 members)))
      groups;
    let rec take k () =
      if k = 0 then Seq.Nil
      else
        match Mailbox.recv merged with
        | Some (r_ctx, reply) ->
          causal_vote t r_ctx;
          Seq.Cons (reply, take (k - 1))
        | None -> Seq.Nil
    in
    (total, Seq.memoize (take total))
  end

let interpret troupe_id = function
  | Rpc_msg.Ok_result body -> body
  | Rpc_msg.App_error e -> raise (Remote_error e)
  | Rpc_msg.Stale_troupe -> raise (Stale_binding troupe_id)
  | Rpc_msg.No_such_module | Rpc_msg.No_such_procedure -> raise Bad_interface

let trace_collate t ~total msg =
  if Causal.on () then ignore (Causal.step ~host:(Host.id t.host) "collate");
  if Trace.on () then
    Trace.emit ~cat:"rpc" ~host:(Host.id t.host)
      ~args:[ ("kind", Tev.Str (return_kind msg)); ("total", Tev.Int total) ]
      "collate"

let call_troupe ctx troupe ~proc_no ?multicast ?(collator = Collator.unanimous) args =
  let t = ctx.rt in
  let total, replies = call_troupe_gen ctx troupe ~proc_no ?multicast args in
  let msg = collator ~total replies in
  trace_collate t ~total msg;
  ignore (Syscall.gettimeofday t.env ~meter:(meter t) t.host);
  interpret troupe.Troupe.id msg

let call_module ctx maddr ~proc_no args =
  call_troupe ctx (Troupe.singleton maddr) ~proc_no args

let call_troupe_watchdog ctx troupe ~proc_no ?multicast ~on_inconsistency args =
  let t = ctx.rt in
  let total, replies = call_troupe_gen ctx troupe ~proc_no ?multicast args in
  let first =
    (* take the first message; crashed members yield none *)
    let rec scan s =
      match s () with
      | Seq.Nil -> raise Collator.Troupe_failed
      | Seq.Cons ({ Collator.message = Some msg; _ }, _) -> msg
      | Seq.Cons ({ Collator.message = None; _ }, rest) -> scan rest
    in
    scan replies
  in
  (* The watchdog drains the remaining messages in the background and
     checks that every available member agreed with the message the
     main computation ran with (§4.3.4). *)
  ignore
    (Host.spawn t.host ~label:"rpc.watchdog" (fun () ->
         let all = List.of_seq replies in
         let disagrees =
           List.exists
             (fun (r : Collator.reply) ->
               match r.Collator.message with Some msg -> msg <> first | None -> false)
             all
         in
         if disagrees then begin
           if Trace.on () then
             Trace.emit ~cat:"rpc" ~host:(Host.id t.host)
               ~args:[ ("proc", Tev.Int proc_no) ]
               "disagreement";
           on_inconsistency all
         end));
  ignore (Syscall.gettimeofday t.env ~meter:(meter t) t.host);
  trace_collate t ~total first;
  interpret troupe.Troupe.id first

(* ------------------------------------------------------------------ *)

let create env host ?port ?(config = default_config) ?meter ?pairmsg_config () =
  let endpoint = Endpoint.create env host ?port ?config:pairmsg_config ?meter () in
  let t =
    { endpoint;
      host;
      env;
      engine = Host.engine host;
      config;
      exports = Hashtbl.create 8;
      state_providers = Hashtbl.create 4;
      next_module = 0;
      resolver = (fun _ -> None);
      self_troupe = Ids.Troupe_id.none;
      self_troupe_module = None;
      thread_counter = 0;
      m2o_table = Itab.create ~initial:8 ();
      retired = Retired.create ();
      sweeper_armed = false }
  in
  Endpoint.set_handler endpoint (fun ~src ~call_no body ->
      match Codec.decode Rpc_msg.call_codec body with
      | call -> handle_call t ~src ~pair_no:call_no call
      | exception Codec.Decode_error _ ->
        send_return t ~dst:src ~pair_no:call_no (Rpc_msg.App_error "malformed call message"));
  t
