(* Tests for the Circus paired message protocol, the UDP echo baseline,
   and the TCP-like stream baseline. *)

open Circus_sim
open Circus_net
open Circus_pairmsg
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event

(* ------------------------------------------------------------------ *)
(* Segments *)

let segment_roundtrip seg =
  match Segment.decode (Segment.encode seg) with
  | None -> false
  | Some seg' -> seg = seg'

let test_segment_roundtrip () =
  let samples =
    [ Segment.data_segment ~msg_type:Segment.Call ~total:3 ~seg_no:2 ~call_no:77l
        (Bytes.of_string "hello");
      Segment.data_segment ~msg_type:Segment.Return ~please_ack:true ~total:1 ~seg_no:1
        ~call_no:1l Bytes.empty;
      Segment.ack_segment ~msg_type:Segment.Call ~total:5 ~ack_no:4 ~call_no:123456l;
      Segment.probe ~call_no:9l;
      Segment.probe_ack ~call_no:9l;
      Segment.reject ~call_no:10l ]
  in
  List.iter (fun seg -> Alcotest.(check bool) "roundtrip" true (segment_roundtrip seg)) samples

let test_segment_garbage () =
  Alcotest.(check bool) "short" true (Segment.decode (Bytes.of_string "abc") = None);
  Alcotest.(check bool) "bad type" true
    (Segment.decode (Bytes.of_string "\xff\x00\x01\x01\x00\x00\x00\x01") = None)

(* A message's encoded data segments decode, in order, to the
   message's pieces, and each is the [encode] of its [data_segment]. *)
let prop_split_reassemble =
  QCheck.Test.make ~name:"split/concat identity" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 5000)) (int_range 64 1500))
    (fun (s, mtu) ->
      let encoded =
        Segment.data_segments ~mtu ~msg_type:Segment.Return ~call_no:7l (Bytes.of_string s)
      in
      let total = Array.length encoded in
      let parts =
        Array.to_list
          (Array.mapi
             (fun i b ->
               match Segment.decode b with
               | Some seg ->
                 let expected =
                   Segment.data_segment ~msg_type:Segment.Return ~total ~seg_no:(i + 1)
                     ~call_no:7l seg.Segment.data
                 in
                 if seg <> expected || not (Bytes.equal b (Segment.encode expected)) then
                   QCheck.Test.fail_reportf "segment %d: header or encoding differs" i;
                 seg.Segment.data
               | None -> QCheck.Test.fail_reportf "segment %d does not decode" i)
             encoded)
      in
      let reassembled = String.concat "" (List.map Bytes.to_string parts) in
      reassembled = s
      && total <= 255
      && Array.for_all (fun b -> Bytes.length b <= mtu) encoded)

let test_split_too_long () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Segment.data_segments ~mtu:64 ~msg_type:Segment.Call ~call_no:1l
            (Bytes.create 100_000));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Endpoint fixtures *)

type world = {
  engine : Engine.t;
  net : Net.t;
  env : Syscall.env;
  client_host : Host.t;
  server_host : Host.t;
}

let make_world ?params ?seed () =
  let engine = Engine.create ?seed () in
  let net = Net.create engine ?params () in
  let env = Syscall.make net () in
  let client_host = Net.add_host net ~name:"client" () in
  let server_host = Net.add_host net ~name:"server" () in
  { engine; net; env; client_host; server_host }

let echo_server w ~port =
  let ep = Endpoint.create w.env w.server_host ~port () in
  Endpoint.serve ep (fun ~src:_ body -> body);
  ep

let run_client w f =
  let result = ref None in
  let failed = ref None in
  ignore
    (Host.spawn w.client_host (fun () ->
         match f () with v -> result := Some v | exception e -> failed := Some e));
  Engine.run w.engine;
  match (!result, !failed) with
  | Some v, _ -> v
  | None, Some e -> raise e
  | None, None -> Alcotest.fail "client did not finish"

let test_call_echo () =
  let w = make_world () in
  let server = echo_server w ~port:50 in
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        let reply = Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string "ping") in
        Endpoint.close ep;
        Bytes.to_string reply)
  in
  Alcotest.(check string) "echoed" "ping" answer

let test_call_multisegment () =
  let w = make_world () in
  let server = echo_server w ~port:50 in
  let big = String.init 10_000 (fun i -> Char.chr (i mod 256)) in
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        Bytes.to_string (Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string big)))
  in
  Alcotest.(check bool) "multi-segment echoed" true (answer = big)

let test_call_over_lossy_network () =
  let w = make_world ~params:{ Net.default_params with loss = 0.2; duplication = 0.1 } ~seed:7 () in
  let server = echo_server w ~port:50 in
  let ok =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        let all_ok = ref true in
        for i = 1 to 20 do
          let msg = Printf.sprintf "message-%d" i in
          let reply = Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string msg) in
          if Bytes.to_string reply <> msg then all_ok := false
        done;
        !all_ok)
  in
  Alcotest.(check bool) "all calls survive 20% loss" true ok

let test_multisegment_over_lossy_network () =
  let w = make_world ~params:{ Net.default_params with loss = 0.15 } ~seed:3 () in
  let server = echo_server w ~port:50 in
  let big = String.init 8_000 (fun i -> Char.chr (i * 7 mod 256)) in
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        Bytes.to_string (Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string big)))
  in
  Alcotest.(check bool) "reassembled correctly" true (answer = big)

let test_exactly_once_execution () =
  (* Heavy duplication: the handler must still run once per call. *)
  let w = make_world ~params:{ Net.default_params with duplication = 0.5 } ~seed:11 () in
  let executions = ref 0 in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.serve ep_server (fun ~src:_ body ->
      incr executions;
      body);
  let calls = 10 in
  ignore
    (run_client w (fun () ->
         let ep = Endpoint.create w.env w.client_host () in
         for i = 1 to calls do
           ignore (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string (string_of_int i)))
         done;
         true));
  Alcotest.(check int) "one execution per call" calls !executions

let test_crash_detected () =
  let w = make_world () in
  let server = echo_server w ~port:50 in
  ignore server;
  (* Crash the server before the call is made. *)
  ignore (Engine.schedule w.engine ~delay:0.001 (fun () -> Host.crash w.server_host));
  let outcome =
    run_client w (fun () ->
        Fiber.sleep 0.01;
        let ep = Endpoint.create w.env w.client_host () in
        try
          ignore (Endpoint.call ep ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:50)
                    (Bytes.of_string "hello"));
          `Replied
        with
        | Endpoint.Crashed _ -> `Crashed
        | Endpoint.Rejected _ -> `Rejected)
  in
  Alcotest.(check bool) "crash detected" true (outcome = `Crashed)

let test_crash_mid_execution_detected () =
  let w = make_world () in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.set_handler ep_server (fun ~src:_ ~call_no:_ _body ->
      (* Never replies; host dies during "execution". *)
      Fiber.sleep 60.0);
  ignore (Engine.schedule w.engine ~delay:0.5 (fun () -> Host.crash w.server_host));
  let outcome =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        try
          ignore (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x"));
          `Replied
        with Endpoint.Crashed _ -> `Crashed)
  in
  Alcotest.(check bool) "mid-execution crash detected" true (outcome = `Crashed)

let test_probes_keep_slow_server_alive () =
  (* Execution takes 5 s, far beyond crash_timeout (2 s): probes must
     prevent a false crash verdict (§4.2.3). *)
  let w = make_world () in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.set_handler ep_server (fun ~src ~call_no _body ->
      Fiber.sleep 5.0;
      Endpoint.reply ep_server ~dst:src ~call_no (Bytes.of_string "slow-answer"));
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        Bytes.to_string (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x")))
  in
  Alcotest.(check string) "slow execution succeeds" "slow-answer" answer

(* ------------------------------------------------------------------ *)
(* Watchdog coverage: crash-detection latency, probe gating, and fiber
   hygiene (§4.2.3). *)

let arg_is name value (e : Tev.t) =
  match List.assoc_opt name e.Tev.args with
  | Some (Tev.Str s) -> String.equal s value
  | _ -> false

let test_watchdog_crash_within_timeout () =
  (* A mid-call crash must surface as [Crashed] no later than
     crash_timeout + one probe interval after the crash instant — the
     watchdog may only notice at its next tick. *)
  let w = make_world () in
  let cfg = Endpoint.default_config in
  let crash_at = 0.5 in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.set_handler ep_server (fun ~src:_ ~call_no:_ _body -> Fiber.sleep 60.0);
  ignore (Engine.schedule w.engine ~delay:crash_at (fun () -> Host.crash w.server_host));
  let detected_at =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        match Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x") with
        | _ -> Alcotest.fail "call unexpectedly replied"
        | exception Endpoint.Crashed _ -> Engine.now w.engine)
  in
  Alcotest.(check bool) "not before the crash" true (detected_at >= crash_at);
  let deadline = crash_at +. cfg.Endpoint.crash_timeout +. cfg.Endpoint.probe_interval +. 0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "detected by %.2f (got %.2f)" deadline detected_at)
    true
    (detected_at <= deadline)

let test_probes_only_after_msg_acked () =
  (* Probes are an execution-phase mechanism: none may be sent before
     the outgoing call message has been fully acknowledged. *)
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
      Endpoint.set_handler ep_server (fun ~src ~call_no _body ->
          Fiber.sleep 5.0;
          Endpoint.reply ep_server ~dst:src ~call_no (Bytes.of_string "done"));
      let answer =
        run_client w (fun () ->
            let ep = Endpoint.create w.env w.client_host () in
            Bytes.to_string
              (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x")))
      in
      Alcotest.(check string) "slow call still answered" "done" answer;
      Trace.Expect.at_least ~cat:"pairmsg" ~name:"seg_send"
        ~where:(arg_is "type" "probe") 1;
      Trace.Expect.ordered
        ~before:(fun e ->
          e.Tev.cat = "pairmsg" && e.Tev.name = "msg_acked" && arg_is "type" "call" e)
        ~after:(fun e ->
          e.Tev.cat = "pairmsg" && e.Tev.name = "seg_send" && arg_is "type" "probe" e)
        ())

let test_watchdog_fibers_cancelled () =
  (* Every watchdog armed over many calls must be disarmed once its
     exchange finishes — no leaked timer chain.  (Watchdogs are timer
     callback chains on pooled workers, not per-call fibers; the
     arm/disarm trace events carry the hygiene invariant the old
     per-fiber spawn/end check expressed.) *)
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let server = echo_server w ~port:50 in
      let calls = 25 in
      let ok =
        run_client w (fun () ->
            let ep = Endpoint.create w.env w.client_host () in
            let n = ref 0 in
            for i = 1 to calls do
              let body = Bytes.of_string (string_of_int i) in
              if Endpoint.call ep ~dst:(Endpoint.addr server) body = body then incr n
            done;
            !n)
      in
      Alcotest.(check int) "all calls echoed" calls ok;
      let events = Trace.events () in
      let count name =
        List.length
          (List.filter (fun (e : Tev.t) -> e.Tev.cat = "pairmsg" && e.Tev.name = name) events)
      in
      Alcotest.(check int) "one watchdog per call" calls (count "wd_arm");
      Alcotest.(check int) "every watchdog disarmed" (count "wd_arm") (count "wd_disarm"))

(* The demux selects through a selector built once.  A crash while it
   is parked there must resume it exactly once, with [Cancelled], and
   end it; an endpoint started on the restarted host must serve. *)
let test_demux_crash_while_parked () =
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      ignore (echo_server w ~port:50);
      Engine.run ~until:1.0 w.engine;
      let demux =
        match
          List.filter
            (fun (e : Tev.t) ->
              e.Tev.cat = "fiber" && e.Tev.name = "spawn" && arg_is "label" "pairmsg.demux" e)
            (Trace.events ())
        with
        | [ e ] -> e.Tev.fiber
        | _ -> Alcotest.fail "expected one demux"
      in
      let of_demux name =
        List.filter
          (fun (e : Tev.t) -> e.Tev.cat = "fiber" && e.Tev.fiber = demux && e.Tev.name = name)
          (Trace.events ())
      in
      Alcotest.(check int) "parked, not resumed" 1 (List.length (of_demux "block"));
      Host.crash w.server_host;
      Engine.run ~until:2.0 w.engine;
      let resumes = of_demux "resume" in
      Alcotest.(check int) "resumed once" 1 (List.length resumes);
      Alcotest.(check bool) "with an exception" true
        (List.for_all
           (fun (e : Tev.t) -> List.assoc_opt "ok" e.Tev.args = Some (Tev.Bool false))
           resumes);
      Alcotest.(check int) "ended" 1 (List.length (of_demux "end")));
  Host.restart w.server_host;
  let server = echo_server w ~port:50 in
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        let reply = Endpoint.call ep ~dst:(Endpoint.addr server) (Bytes.of_string "again") in
        Endpoint.close ep;
        Bytes.to_string reply)
  in
  Alcotest.(check string) "restarted endpoint serves" "again" answer

let test_no_handler_rejected () =
  let w = make_world () in
  let ep_server = Endpoint.create w.env w.server_host ~port:50 () in
  let outcome =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        try
          ignore (Endpoint.call ep ~dst:(Endpoint.addr ep_server) (Bytes.of_string "x"));
          `Replied
        with
        | Endpoint.Rejected _ -> `Rejected
        | Endpoint.Crashed _ -> `Crashed)
  in
  Alcotest.(check bool) "rejected" true (outcome = `Rejected)

let test_call_many_unicast_and_multicast () =
  List.iter
    (fun multicast ->
      let engine = Engine.create () in
      let net = Net.create engine () in
      let env = Syscall.make net () in
      let client_host = Net.add_host net () in
      let servers =
        List.init 3 (fun i ->
            let h = Net.add_host net () in
            let ep = Endpoint.create env h ~port:50 () in
            Endpoint.serve ep (fun ~src:_ _ -> Bytes.of_string (Printf.sprintf "answer-%d" i));
            ep)
      in
      let got = ref [] in
      ignore
        (Host.spawn client_host (fun () ->
             let ep = Endpoint.create env client_host () in
             let dsts = List.map Endpoint.addr servers in
             let replies = Endpoint.call_many ep ~dsts ~multicast (Bytes.of_string "q") in
             for _ = 1 to 3 do
               match Endpoint.next_reply replies with
               | { Endpoint.result = Ok body; _ } -> got := Bytes.to_string body :: !got
               | { Endpoint.result = Error e; _ } -> raise e
             done));
      Engine.run engine;
      let sorted = List.sort String.compare !got in
      Alcotest.(check (list string))
        (if multicast then "multicast" else "unicast")
        [ "answer-0"; "answer-1"; "answer-2" ] sorted)
    [ false; true ]

let test_call_many_partial_crash () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let env = Syscall.make net () in
  let client_host = Net.add_host net () in
  let servers =
    List.init 3 (fun _ ->
        let h = Net.add_host net () in
        let ep = Endpoint.create env h ~port:50 () in
        Endpoint.serve ep (fun ~src:_ body -> body);
        (h, ep))
  in
  (* Crash one member shortly after start. *)
  let crash_host, _ = List.nth servers 1 in
  ignore (Engine.schedule engine ~delay:0.0001 (fun () -> Host.crash crash_host));
  let ok = ref 0 and crashed = ref 0 in
  ignore
    (Host.spawn client_host (fun () ->
         Fiber.sleep 0.001;
         let ep = Endpoint.create env client_host () in
         let dsts = List.map (fun (_, ep) -> Endpoint.addr ep) servers in
         let replies = Endpoint.call_many ep ~dsts (Bytes.of_string "q") in
         for _ = 1 to 3 do
           match Endpoint.next_reply replies with
           | { Endpoint.result = Ok _; _ } -> incr ok
           | { Endpoint.result = Error (Endpoint.Crashed _); _ } -> incr crashed
           | _ -> ()
         done));
  Engine.run engine;
  Alcotest.(check int) "two replies" 2 !ok;
  Alcotest.(check int) "one crash" 1 !crashed

let test_deterministic_call_numbers () =
  let w = make_world () in
  let server = echo_server w ~port:50 in
  ignore server;
  let numbers =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        List.init 5 (fun _ -> Endpoint.next_call_no ep))
  in
  Alcotest.(check (list int)) "sequential" [ 1; 2; 3; 4; 5 ]
    (List.map Int32.to_int numbers)

(* ------------------------------------------------------------------ *)
(* Dedup window: what an endpoint must still know about calls it has
   finished with.  A raw socket plays the peer, so the tests see only
   the segments the endpoint puts on the wire. *)

let send_raw w sock ~dst seg = Syscall.sendmsg w.env sock ~dst (Segment.encode seg)

(* Next decoded segment on [sock] that satisfies [p], skipping the
   rest; [None] once [timeout] of silence passes. *)
let rec recv_raw w sock ~timeout p =
  match Syscall.recvmsg w.env ~timeout sock with
  | None -> None
  | Some d -> (
    match Segment.decode d.Net.payload with
    | Some seg when p seg -> Some seg
    | Some _ | None -> recv_raw w sock ~timeout p)

let is_seg msg_type ~call_no (seg : Segment.t) =
  seg.Segment.msg_type = msg_type && seg.Segment.call_no = call_no && not seg.Segment.ack

(* Drive 200 single-segment calls from a raw client socket, each sent
   once the previous return has arrived (the next call is the implicit
   ack).  The server's last prune, at its 192nd completion, has then
   dropped what it kept for calls 1 to 126. *)
let window_world () =
  let w = make_world () in
  let executions = ref 0 in
  let server = Endpoint.create w.env w.server_host ~port:50 () in
  Endpoint.serve server (fun ~src:_ body ->
      incr executions;
      body);
  let sock = Net.udp_bind w.net w.client_host ~port:60 () in
  let dst = Endpoint.addr server in
  let call cn =
    send_raw w sock ~dst
      (Segment.data_segment ~msg_type:Segment.Call ~total:1 ~seg_no:1 ~call_no:cn
         (Bytes.of_string (Int32.to_string cn)))
  in
  (w, executions, sock, dst, call)

let calls_past_window = 200

let test_window_replay_not_reexecuted () =
  let w, executions, sock, _dst, call = window_world () in
  let replayed_reply =
    run_client w (fun () ->
        for i = 1 to calls_past_window do
          let cn = Int32.of_int i in
          call cn;
          if recv_raw w sock ~timeout:1.0 (is_seg Segment.Return ~call_no:cn) = None then
            Alcotest.failf "call %d: no return" i
        done;
        (* Call 1 is far behind the window now; replay it. *)
        call 1l;
        recv_raw w sock ~timeout:1.0 (is_seg Segment.Return ~call_no:1l))
  in
  Alcotest.(check int) "each call executed once" calls_past_window !executions;
  Alcotest.(check bool) "the replay gets no return" true (replayed_reply = None)

let test_window_probe_for_pruned_call () =
  let w, _executions, sock, dst, call = window_world () in
  let answer_to cn =
    send_raw w sock ~dst (Segment.probe ~call_no:cn);
    match
      recv_raw w sock ~timeout:1.0 (fun seg ->
          seg.Segment.call_no = cn
          && (seg.Segment.msg_type = Segment.Probe_ack || seg.Segment.msg_type = Segment.Reject))
    with
    | Some seg -> seg.Segment.msg_type
    | None -> Alcotest.failf "probe %ld unanswered" cn
  in
  let pruned, unknown =
    run_client w (fun () ->
        for i = 1 to calls_past_window do
          let cn = Int32.of_int i in
          call cn;
          ignore (recv_raw w sock ~timeout:1.0 (is_seg Segment.Return ~call_no:cn))
        done;
        let pruned = answer_to 1l in
        (pruned, answer_to 5000l))
  in
  Alcotest.(check bool) "pruned call is probe_acked" true (pruned = Segment.Probe_ack);
  Alcotest.(check bool) "unknown call is rejected" true (unknown = Segment.Reject)

let test_window_late_duplicate_return () =
  (* Every datagram is duplicated, so each return arrives twice after
     its exchange has finished; the server's unacknowledged final
     return keeps being retransmitted with please-ack until the client
     acks it. *)
  let w = make_world ~params:{ Net.default_params with duplication = 1.0 } ~seed:5 () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let server = echo_server w ~port:50 in
      let calls = 5 in
      let replies =
        run_client w (fun () ->
            let ep = Endpoint.create w.env w.client_host () in
            let replies =
              List.init calls (fun i ->
                  let body = Bytes.of_string (Printf.sprintf "r%d" i) in
                  Bytes.equal body (Endpoint.call ep ~dst:(Endpoint.addr server) body))
            in
            Fiber.sleep 2.0;
            replies)
      in
      Alcotest.(check (list bool)) "every reply is its argument" (List.init calls (fun _ -> true))
        replies;
      let events = Trace.events () in
      let count ?(where = fun _ -> true) name host =
        List.length
          (List.filter
             (fun (e : Tev.t) ->
               e.Tev.cat = "pairmsg" && e.Tev.name = name && e.Tev.host = Host.id host && where e)
             events)
      in
      let client_acks_return (e : Tev.t) =
        arg_is "type" "return" e
        && List.assoc_opt "ack" e.Tev.args = Some (Tev.Bool true)
        && List.assoc_opt "seg_no" e.Tev.args = Some (Tev.Int 1)
      in
      Alcotest.(check int) "one delivery per return" calls (count "deliver_return" w.client_host);
      Alcotest.(check int) "one completion per call" calls (count "call_done" w.client_host);
      Alcotest.(check bool) "late duplicates are acked with the full count" true
        (count ~where:client_acks_return "seg_send" w.client_host >= 2);
      Alcotest.(check int) "the server never gives up on a return" 0
        (count "give_up" w.server_host))

let test_window_first_come_return () =
  (* A first-come server (§4.3.4) may send the return before the call
     is made; the exchange must complete from the buffered message. *)
  let w = make_world () in
  let sock = Net.udp_bind w.net w.server_host ~port:50 () in
  let answer =
    run_client w (fun () ->
        let ep = Endpoint.create w.env w.client_host () in
        send_raw w sock ~dst:(Endpoint.addr ep)
          (Segment.data_segment ~msg_type:Segment.Return ~total:1 ~seg_no:1 ~call_no:1l
             (Bytes.of_string "early"));
        Fiber.sleep 0.05;
        Bytes.to_string (Endpoint.call ep ~dst:(Net.socket_addr sock) (Bytes.of_string "q")))
  in
  Alcotest.(check string) "completed from the buffered return" "early" answer

let test_window_peer_calls_prune_returns () =
  (* Return records are pruned by the same horizon as calls: the
     sender's own calls to us.  Until the peer that served our call
     has called us past the window, a late duplicate of its return is
     only acked; after that the record is gone and the duplicate is
     reassembled (and traced) afresh.  Which records survive feeds the
     simulated schedule, so the horizon is pinned here. *)
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let ep = Endpoint.create w.env w.client_host ~port:60 () in
      Endpoint.serve ep (fun ~src:_ body -> body);
      let peer = Net.udp_bind w.net w.server_host ~port:50 () in
      let dst = Endpoint.addr ep in
      let deliveries () =
        List.length
          (List.filter
             (fun (e : Tev.t) ->
               e.Tev.name = "deliver_return"
               && e.Tev.host = Host.id w.client_host
               && List.assoc_opt "call_no" e.Tev.args = Some (Tev.I32 1l))
             (Trace.events ()))
      in
      let late_return () =
        send_raw w peer ~dst
          (Segment.data_segment ~msg_type:Segment.Return ~please_ack:true ~total:1 ~seg_no:1
             ~call_no:1l (Bytes.of_string "r"));
        recv_raw w peer ~timeout:1.0 (fun seg ->
            seg.Segment.ack && seg.Segment.msg_type = Segment.Return
            && seg.Segment.call_no = 1l && seg.Segment.seg_no = 1)
        <> None
      in
      let phases = ref [] in
      ignore
        (Host.spawn w.server_host (fun () ->
             (* Serve the endpoint's call 1, then see a late duplicate
                of our return acked without a second delivery. *)
             if recv_raw w peer ~timeout:1.0 (is_seg Segment.Call ~call_no:1l) = None then
               Alcotest.fail "no call from the endpoint";
             send_raw w peer ~dst
               (Segment.data_segment ~msg_type:Segment.Return ~total:1 ~seg_no:1 ~call_no:1l
                  (Bytes.of_string "r"));
             Fiber.sleep 0.05;
             let acked = late_return () in
             phases := (acked, deliveries ()) :: !phases;
             for i = 1 to calls_past_window do
               let cn = Int32.of_int i in
               send_raw w peer ~dst
                 (Segment.data_segment ~msg_type:Segment.Call ~total:1 ~seg_no:1 ~call_no:cn
                    (Bytes.of_string "c"));
               if recv_raw w peer ~timeout:1.0 (is_seg Segment.Return ~call_no:cn) = None then
                 Alcotest.failf "call %d: no return" i
             done;
             let acked = late_return () in
             phases := (acked, deliveries ()) :: !phases));
      let answer =
        run_client w (fun () ->
            Bytes.to_string (Endpoint.call ep ~dst:(Net.socket_addr peer) (Bytes.of_string "q")))
      in
      Alcotest.(check string) "call answered" "r" answer;
      Alcotest.(check (list (pair bool int)))
        "(acked, deliveries) before and after the peer's calls pass the window"
        [ (true, 1); (true, 2) ]
        (List.rev !phases))

(* ------------------------------------------------------------------ *)
(* UDP echo baseline *)

let test_udp_echo () =
  let w = make_world () in
  Udp_echo.start_server w.env w.server_host ~port:7;
  let answer =
    run_client w (fun () ->
        let c =
          Udp_echo.client w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:7)
            ()
        in
        Bytes.to_string (Udp_echo.echo c (Bytes.of_string "datagram")))
  in
  Alcotest.(check string) "echo" "datagram" answer

let test_udp_echo_retries_on_loss () =
  let w = make_world ~params:{ Net.default_params with loss = 0.4 } ~seed:5 () in
  Udp_echo.start_server w.env w.server_host ~port:7;
  let answer =
    run_client w (fun () ->
        let c =
          Udp_echo.client w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:7)
            ()
        in
        Bytes.to_string (Udp_echo.echo c ~timeout:0.05 (Bytes.of_string "lossy")))
  in
  Alcotest.(check string) "eventually echoed" "lossy" answer

let test_udp_echo_gives_up () =
  (* No server bound: after [max_retries] retransmissions the client
     must raise rather than hang forever. *)
  let w = make_world () in
  let outcome =
    run_client w (fun () ->
        let c =
          Udp_echo.client w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:7)
            ()
        in
        match Udp_echo.echo c ~timeout:0.05 ~max_retries:3 (Bytes.of_string "void") with
        | _ -> `Replied
        | exception Udp_echo.Echo_timeout _ -> `Gave_up)
  in
  Alcotest.(check bool) "gave up" true (outcome = `Gave_up);
  (* 1 initial try + 3 retries, all dropped at the unbound port. *)
  Alcotest.(check int) "bounded sends" 4 (Net.stats w.net).Net.dropped

(* ------------------------------------------------------------------ *)
(* TCP-like stream baseline *)

let test_stream_echo () =
  let w = make_world () in
  let listener = Stream.listen w.env w.server_host ~port:9 in
  ignore
    (Host.spawn w.server_host (fun () ->
         let conn = Stream.accept listener in
         let rec loop () =
           match Stream.recv conn with
           | Some body ->
             Stream.send conn body;
             loop ()
           | None -> ()
         in
         loop ()));
  let answer =
    run_client w (fun () ->
        let conn =
          Stream.connect w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:9)
            ()
        in
        Stream.send conn (Bytes.of_string "stream-data");
        let result =
          match Stream.recv ~timeout:5.0 conn with
          | Some b -> Bytes.to_string b
          | None -> "(timeout)"
        in
        Stream.close conn;
        result)
  in
  Alcotest.(check string) "echo over stream" "stream-data" answer

let test_stream_large_message_lossy () =
  let w = make_world ~params:{ Net.default_params with loss = 0.1 } ~seed:13 () in
  let listener = Stream.listen w.env w.server_host ~port:9 in
  ignore
    (Host.spawn w.server_host (fun () ->
         let conn = Stream.accept listener in
         match Stream.recv ~timeout:30.0 conn with
         | Some body -> Stream.send conn body
         | None -> ()));
  let big = String.init 20_000 (fun i -> Char.chr (i mod 251)) in
  let answer =
    run_client w (fun () ->
        let conn =
          Stream.connect w.env w.client_host
            ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:9)
            ()
        in
        Stream.send conn (Bytes.of_string big);
        match Stream.recv ~timeout:60.0 conn with
        | Some b -> Bytes.to_string b
        | None -> "(timeout)")
  in
  Alcotest.(check bool) "large message intact over loss" true (answer = big)

let test_stream_messages_in_order () =
  let w = make_world ~params:{ Net.default_params with loss = 0.1 } ~seed:21 () in
  let listener = Stream.listen w.env w.server_host ~port:9 in
  let received = ref [] in
  ignore
    (Host.spawn w.server_host (fun () ->
         let conn = Stream.accept listener in
         for _ = 1 to 10 do
           match Stream.recv ~timeout:30.0 conn with
           | Some b -> received := Bytes.to_string b :: !received
           | None -> ()
         done));
  ignore
    (run_client w (fun () ->
         let conn =
           Stream.connect w.env w.client_host
             ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:9)
             ()
         in
         for i = 1 to 10 do
           Stream.send conn (Bytes.of_string (string_of_int i))
         done;
         true));
  Alcotest.(check (list string)) "in order" (List.init 10 (fun i -> string_of_int (i + 1)))
    (List.rev !received)

let test_stream_backoff_under_partition () =
  (* A partition forces repeated retransmissions; the traced "rto" must
     grow monotonically and stay capped, and the message must still
     arrive once the partition heals. *)
  let w = make_world () in
  let _sink = Engine.enable_tracing w.engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let listener = Stream.listen w.env w.server_host ~port:9 in
      let received = ref None in
      ignore
        (Host.spawn w.server_host (fun () ->
             let conn = Stream.accept listener in
             received := Stream.recv ~timeout:30.0 conn));
      (* Partition after the handshake, for long enough that the RTO
         must back off past its base (0.05 s) several times. *)
      ignore
        (Engine.schedule w.engine ~delay:0.02 (fun () ->
             Net.set_partition_for w.net
               [ [ Host.id w.client_host ]; [ Host.id w.server_host ] ]
               ~duration:1.5));
      ignore
        (run_client w (fun () ->
             let conn =
               Stream.connect w.env w.client_host
                 ~dst:(Addr.make ~host:(Host.id w.server_host) ~port:9)
                 ()
             in
             Fiber.sleep 0.05;  (* inside the partition *)
             Stream.send conn (Bytes.of_string "persistent");
             true));
      (match !received with
      | Some b -> Alcotest.(check string) "delivered after heal" "persistent" (Bytes.to_string b)
      | None -> Alcotest.fail "message lost across partition");
      let rtos =
        List.filter_map
          (fun (e : Tev.t) ->
            if e.Tev.cat = "tcp" && e.Tev.name = "retransmit" then
              match List.assoc_opt "rto" e.Tev.args with
              | Some (Tev.Float f) -> Some f
              | _ -> None
            else None)
          (Trace.events ())
      in
      Alcotest.(check bool) "several retransmits" true (List.length rtos >= 3);
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "rto nondecreasing" true (monotone rtos);
      List.iter
        (fun r -> Alcotest.(check bool) "rto capped" true (r <= 0.8 +. 1e-9))
        rtos)

(* ------------------------------------------------------------------ *)
(* Delivered-return set: a model test *)

(* The reference is what the endpoint kept before the set: one table
   entry per delivered return, holding its segment count, dropped by a
   prune once its call number is below its peer's horizon.  Programs
   move a cursor per peer through its call numbers: dense stretches in
   order, sparse strides, shuffled stretches (out-of-order deliveries),
   skipped numbers that are never delivered (gaps, some past the
   distance that moves a run), late arrivals behind the cursor, and
   prunes at horizons near the cursors, some on a block edge.  Cursors
   start next to a 32-number block edge, one near the top of the
   unsigned 32-bit range.  About one return in five has a segment count
   other than 1.  After every step, every call number a peer's cursor
   has passed, and two either side, must get the reference's answer. *)

type dstep =
  | Dense of int * int  (* peer, count *)
  | Stride of int * int * int  (* peer, stride, count *)
  | Shuffled of int * int * int  (* peer, count, shuffle seed *)
  | Skip of int * int  (* peer, numbers never delivered *)
  | Late of int * int  (* peer, distance behind the cursor *)
  | Prune of (int * int) list
      (* per peer: the horizon's distance behind the cursor, and whether
         it moves to the first (1) or last (2) number of its block *)

let show_dstep = function
  | Dense (p, n) -> Printf.sprintf "dense p%d %d" p n
  | Stride (p, k, n) -> Printf.sprintf "stride p%d %d x%d" p k n
  | Shuffled (p, n, seed) -> Printf.sprintf "shuffled p%d %d (seed %d)" p n seed
  | Skip (p, n) -> Printf.sprintf "skip p%d %d" p n
  | Late (p, d) -> Printf.sprintf "late p%d -%d" p d
  | Prune hs ->
    "prune "
    ^ String.concat ","
        (List.map (fun (d, a) -> Printf.sprintf "-%d%s" d (List.nth [ ""; "<"; ">" ] a)) hs)

let dpeers = [| 0; 1; 0x51234; (1 lsl 27) - 1 |]
let dstarts = [| 0; 29; 32 * 1000 - 3; 0xFFFFFFFF - 700 |]
let cn_top = 0xFFFFFFFF

let gen_dstep =
  QCheck.Gen.(
    let peer = int_bound (Array.length dpeers - 1) in
    frequency
      [ (4, map2 (fun p n -> Dense (p, n)) peer (int_range 1 100));
        (3, map3 (fun p k n -> Stride (p, k, n)) peer (int_range 2 80) (int_range 1 20));
        (3, map3 (fun p n seed -> Shuffled (p, n, seed)) peer (int_range 2 40) int);
        ( 3,
          map2 (fun p n -> Skip (p, n)) peer
            (frequency [ (3, int_range 1 4); (2, int_range 30 34); (2, int_range 60 150) ]) );
        (2, map2 (fun p d -> Late (p, d)) peer (int_range 1 120));
        ( 2,
          map
            (fun hs -> Prune hs)
            (list_repeat (Array.length dpeers) (pair (int_range (-3) 200) (int_bound 2))) ) ])

(* Whether the return [cn] of peer [p] has more than one segment, and
   how many: a function of the program's salt. *)
let dtotal salt p cn =
  let h = Hashtbl.hash (salt, p, cn) in
  if h mod 5 = 0 then 2 + (h / 5 mod 254) else 1

let run_delivered (salt, steps) =
  let set = Delivered.create () and model = Itab.create () in
  let mkey p cn = (dpeers.(p) lsl 32) lor cn in
  let cursor = Array.copy dstarts and seen_hi = Array.copy dstarts in
  let add p cn =
    if cn >= 0 && cn <= cn_top && not (Itab.mem model (mkey p cn)) then begin
      let total = dtotal salt p cn in
      Delivered.add set ~peer:dpeers.(p) ~cn ~total;
      Itab.replace model (mkey p cn) total
    end
  in
  let advance p n =
    cursor.(p) <- min (cursor.(p) + n) (cn_top + 1);
    seen_hi.(p) <- max seen_hi.(p) cursor.(p)
  in
  let agree step =
    Array.iteri
      (fun p peer ->
        for cn = max 0 (dstarts.(p) - 2) to min cn_top (seen_hi.(p) + 2) do
          let want = Itab.find_or model (mkey p cn) 0 in
          let got = Delivered.total set ~peer ~cn in
          if got <> want then
            QCheck.Test.fail_reportf "after %s: peer %d call %d reads %d, reference %d"
              (show_dstep step) peer cn got want
        done)
      dpeers;
    if Delivered.length set <> Itab.length model then
      QCheck.Test.fail_reportf "after %s: %d members, reference %d" (show_dstep step)
        (Delivered.length set) (Itab.length model)
  in
  List.iter
    (fun step ->
      (match step with
      | Dense (p, n) ->
        for i = 0 to n - 1 do
          add p (cursor.(p) + i)
        done;
        advance p n
      | Stride (p, k, n) ->
        for i = 0 to n - 1 do
          add p (cursor.(p) + (i * k))
        done;
        advance p (n * k)
      | Shuffled (p, n, seed) ->
        let order = Array.init n (fun i -> cursor.(p) + i) in
        let rng = Random.State.make [| seed |] in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- x
        done;
        Array.iter (add p) order;
        advance p n
      | Skip (p, n) -> advance p n
      | Late (p, d) -> add p (cursor.(p) - d)
      | Prune hs ->
        let horizon = Array.copy cursor in
        List.iteri
          (fun p (d, edge) ->
            let h = cursor.(p) - d in
            horizon.(p) <- (match edge with 1 -> h land lnot 31 | 2 -> h lor 31 | _ -> h))
          hs;
        let horizon_of peer =
          let p = ref (-1) in
          Array.iteri (fun i q -> if q = peer then p := i) dpeers;
          horizon.(!p)
        in
        Delivered.prune set ~horizon:horizon_of;
        let doomed =
          Itab.fold
            (fun k _ acc ->
              if k land cn_top < horizon_of (k lsr 32) then k :: acc else acc)
            model []
        in
        List.iter (Itab.remove model) doomed);
      agree step)
    steps;
  true

let prop_delivered_model =
  QCheck.Test.make ~name:"delivered set matches the marker table" ~count:300
    QCheck.(
      make
        ~print:(fun (salt, steps) ->
          Printf.sprintf "salt %d: %s" salt (String.concat "; " (List.map show_dstep steps)))
        Gen.(pair int (list_size (int_range 1 30) gen_dstep)))
    run_delivered

(* ------------------------------------------------------------------ *)
(* Duplicate suppression: a model test *)

(* §4.2's rule for call messages, on sorted lists.  Per peer, the
   reference keeps the highest executed call number and, by call
   number, what it knows of each call that got past the window: the
   segments of a partial one, or that a complete one was delivered and
   whether its ack has been postponed.  A call segment more than
   [window] behind the highest executed call is dropped unanswered.
   Any other is reassembled: a segment past the next expected one is
   acked at once with the count so far, and the segment that completes
   the call runs the handler.  A please-ack on a partial call is acked
   with the count so far; on a delivered one, the first is postponed
   (the return would ack it) and every later one acked in full.  A
   probe gets probe_ack if its call is known (executed or behind the
   highest executed call, or partial) and reject otherwise.  Nothing
   here depends on when the endpoint prunes. *)

type dcall =
  | Partial of int * int list  (* total, segments held, sorted *)
  | Done of int * bool  (* total, ack postponed *)

type dpeer = {
  mutable completed : int;  (* highest executed call number *)
  mutable cursor : int;  (* highest call number sent so far *)
  mutable calls : (int * dcall) list;  (* sorted by call number *)
  mutable ran : int list;  (* call numbers the handler ran, sorted *)
}

type dreply =
  | Dack of int * int * int  (* call no, ack no, total *)
  | Dprobe_ack of int
  | Dreject of int

let show_dreply = function
  | Dack (cn, n, total) -> Printf.sprintf "ack %d %d/%d" cn n total
  | Dprobe_ack cn -> Printf.sprintf "probe_ack %d" cn
  | Dreject cn -> Printf.sprintf "reject %d" cn

(* The endpoint's dedup window. *)
let window = 64

(* The n such that segments 1..n are all held. *)
let held_prefix got =
  let rec go n = function s :: rest when s = n + 1 -> go s rest | _ -> n in
  go 0 got

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: _ as l when x < y -> x :: l
  | y :: rest when x = y -> x :: rest
  | y :: rest -> y :: insert_sorted x rest

let rec set_call cn c = function
  | [] -> [ (cn, c) ]
  | (k, _) :: _ as l when cn < k -> (cn, c) :: l
  | (k, _) :: rest when k = cn -> (cn, c) :: rest
  | kc :: rest -> kc :: set_call cn c rest

let ref_segment m ~cn ~seg_no ~total ~please_ack =
  if cn < m.completed - window then []
  else begin
    let acks = ref [] in
    let c =
      match Option.value (List.assoc_opt cn m.calls) ~default:(Partial (total, [])) with
      | Done _ as c -> c
      | Partial (total, got) ->
        if seg_no > held_prefix got + 1 then acks := [ Dack (cn, held_prefix got, total) ];
        let got = insert_sorted seg_no got in
        if held_prefix got = total then begin
          m.ran <- insert_sorted cn m.ran;
          m.completed <- max m.completed cn;
          Done (total, false)
        end
        else Partial (total, got)
    in
    let c =
      if not please_ack then c
      else
        match c with
        | Done (total, false) -> Done (total, true)
        | Done (total, true) ->
          acks := Dack (cn, total, total) :: !acks;
          c
        | Partial (total, got) ->
          acks := Dack (cn, held_prefix got, total) :: !acks;
          c
    in
    m.calls <- set_call cn c m.calls;
    List.sort compare !acks
  end

let ref_probe m cn =
  if cn <= m.completed || List.mem_assoc cn m.calls then Dprobe_ack cn else Dreject cn

(* Programs, for one of two peers.  Call numbers are picked as a
   distance from the peer's horizon ([completed - window]) when the step
   runs, so a step lands exactly at the horizon, just either side of
   it, among the recent calls or far behind whatever the program did
   before it. *)
type ddstep =
  | Fresh of int * int * int * int * int
      (* peer, calls, numbers skipped before each, segments, please-ack:
         0 never, 1 on the last segment, 2 on every one *)
  | Scrambled of int * int * int  (* peer, segments, seed: order, repeats, please-acks *)
  | Part of int * int * int  (* peer, segments, seed: a strict subset sent *)
  | At of int * int * int * bool  (* peer, distance, segment pick, please-ack *)
  | Probe of int * int  (* peer, distance *)

let show_ddstep = function
  | Fresh (p, n, gap, total, pa) -> Printf.sprintf "fresh p%d %dx(+%d) /%d pa%d" p n gap total pa
  | Scrambled (p, total, seed) -> Printf.sprintf "scrambled p%d /%d (seed %d)" p total seed
  | Part (p, total, seed) -> Printf.sprintf "part p%d /%d (seed %d)" p total seed
  | At (p, d, pick, pa) -> Printf.sprintf "at p%d %+d seg%d%s" p d pick (if pa then " pa" else "")
  | Probe (p, d) -> Printf.sprintf "probe p%d %+d" p d

let gen_ddstep =
  QCheck.Gen.(
    let peer = int_bound 1 in
    let distance =
      frequency
        [ (5, int_range (-3) 3); (4, int_range 4 72); (2, int_range (-90) (-4)) ]
    in
    frequency
      [ ( 4,
          map
            (fun (p, n, gap, total, pa) -> Fresh (p, n, gap, total, pa))
            (tup5 peer (int_range 1 60)
               (frequency [ (6, return 0); (2, int_range 1 3); (1, int_range 20 90) ])
               (frequency [ (4, return 1); (1, int_range 2 4) ])
               (int_bound 2)) );
        (1, map3 (fun p total seed -> Scrambled (p, total, seed)) peer (int_range 2 5) int);
        (1, map3 (fun p total seed -> Part (p, total, seed)) peer (int_range 2 5) int);
        ( 5,
          map (fun (p, d, pick, pa) -> At (p, d, pick, pa)) (quad peer distance (int_bound 7) bool)
        );
        (1, map2 (fun p d -> Probe (p, d)) peer distance) ])

(* One program against a server endpoint whose handler logs and never
   replies, so the endpoint sends nothing of its own accord: every
   segment it puts on the wire answers the one just sent.  Raw sockets
   play the two peers; after each segment the run settles, and the
   segments that came back and the calls the handler ran must be the
   reference's. *)
let run_dedup steps =
  let w = make_world () in
  let ep = Endpoint.create w.env w.server_host ~port:50 () in
  let socks = Array.init 2 (fun i -> Net.udp_bind w.net w.client_host ~port:(60 + i) ()) in
  let peers = Array.init 2 (fun _ -> { completed = 0; cursor = 0; calls = []; ran = [] }) in
  let ran = Array.make 2 [] in
  Endpoint.set_handler ep (fun ~src ~call_no _ ->
      let p = src.Addr.port - 60 in
      ran.(p) <- insert_sorted (Int32.to_int call_no) ran.(p));
  let dst = Endpoint.addr ep in
  let replies () =
    List.concat_map
      (fun sock ->
        let rec drain acc =
          match Mailbox.try_recv (Net.mailbox sock) with
          | None -> acc
          | Some d -> (
            let port = d.Net.dst.Addr.port in
            match Segment.decode d.Net.payload with
            | Some { Segment.msg_type = Segment.Call; ack = true; seg_no; total; call_no; _ } ->
              drain ((port, Dack (Int32.to_int call_no, seg_no, total)) :: acc)
            | Some { Segment.msg_type = Segment.Probe_ack; call_no; _ } ->
              drain ((port, Dprobe_ack (Int32.to_int call_no)) :: acc)
            | Some { Segment.msg_type = Segment.Reject; call_no; _ } ->
              drain ((port, Dreject (Int32.to_int call_no)) :: acc)
            | Some _ | None -> QCheck.Test.fail_reportf "port %d got a stray datagram" port)
        in
        drain [])
      (Array.to_list socks)
    |> List.sort compare
  in
  let what = ref "" in
  let settle p ~sent expected =
    Fiber.sleep 0.05;
    let got = replies () in
    let want = List.map (fun r -> (60 + p, r)) expected in
    let show l =
      String.concat ", " (List.map (fun (port, r) -> Printf.sprintf "%d:%s" port (show_dreply r)) l)
    in
    if got <> want then
      QCheck.Test.fail_reportf "%s, %s: got [%s], reference [%s]" !what sent (show got)
        (show want);
    Array.iteri
      (fun q m ->
        if ran.(q) <> m.ran then
          let only a b =
            String.concat " " (List.map string_of_int (List.filter (fun c -> not (List.mem c b)) a))
          in
          QCheck.Test.fail_reportf "%s, %s: peer %d ran [%s] beyond the reference, not [%s]"
            !what sent q (only ran.(q) m.ran) (only m.ran ran.(q)))
      peers
  in
  let send p ~cn ~seg_no ~total ~please_ack =
    let m = peers.(p) in
    m.cursor <- max m.cursor cn;
    send_raw w socks.(p) ~dst
      (Segment.data_segment ~msg_type:Segment.Call ~please_ack ~total ~seg_no
         ~call_no:(Int32.of_int cn) (Bytes.of_string "x"));
    let sent =
      Printf.sprintf "call %d seg %d/%d%s" cn seg_no total (if please_ack then " pa" else "")
    in
    settle p ~sent (ref_segment m ~cn ~seg_no ~total ~please_ack)
  in
  let at_distance m d = max 1 (m.completed - window + d) in
  let shuffled seed l =
    let rng = Random.State.make [| seed |] in
    List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
  in
  let step s =
    what := show_ddstep s;
    match s with
    | Fresh (p, n, gap, total, pa) ->
      for _ = 1 to n do
        let cn = peers.(p).cursor + gap + 1 in
        for seg_no = 1 to total do
          send p ~cn ~seg_no ~total ~please_ack:(pa = 2 || (pa = 1 && seg_no = total))
        done
      done
    | Scrambled (p, total, seed) ->
      let cn = peers.(p).cursor + 1 in
      let rng = Random.State.make [| seed |] in
      List.iter
        (fun seg_no -> send p ~cn ~seg_no ~total ~please_ack:(Random.State.bool rng))
        (shuffled seed (List.init total (fun i -> i + 1) @ [ 1 + (seed land 0xff mod total) ]))
    | Part (p, total, seed) ->
      let cn = peers.(p).cursor + 1 in
      List.iter
        (fun seg_no -> send p ~cn ~seg_no ~total ~please_ack:(seed land 1 = 0))
        (List.tl (shuffled seed (List.init total (fun i -> i + 1))))
    | At (p, d, pick, please_ack) ->
      let m = peers.(p) in
      let cn = at_distance m d in
      let total =
        match List.assoc_opt cn m.calls with
        | Some (Partial (total, _) | Done (total, _)) -> total
        | None -> 1
      in
      send p ~cn ~seg_no:(1 + (pick mod total)) ~total ~please_ack
    | Probe (p, d) ->
      let cn = at_distance peers.(p) d in
      send_raw w socks.(p) ~dst (Segment.probe ~call_no:(Int32.of_int cn));
      settle p ~sent:(Printf.sprintf "probe %d" cn) [ ref_probe peers.(p) cn ]
  in
  ignore (run_client w (fun () -> List.iter step steps));
  true

let prop_dedup_model =
  QCheck.Test.make ~name:"call segments get section 4.2's answers" ~count:150
    QCheck.(
      make
        ~print:(fun steps -> String.concat "; " (List.map show_ddstep steps))
        Gen.(list_size (int_range 10 50) gen_ddstep))
    run_dedup

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_pairmsg"
    [ ( "segment",
        [ Alcotest.test_case "roundtrip" `Quick test_segment_roundtrip;
          Alcotest.test_case "garbage" `Quick test_segment_garbage;
          Alcotest.test_case "split too long" `Quick test_split_too_long ]
        @ qcheck [ prop_split_reassemble ] );
      ( "endpoint",
        [ Alcotest.test_case "echo" `Quick test_call_echo;
          Alcotest.test_case "multi-segment" `Quick test_call_multisegment;
          Alcotest.test_case "lossy network" `Quick test_call_over_lossy_network;
          Alcotest.test_case "multi-segment lossy" `Quick test_multisegment_over_lossy_network;
          Alcotest.test_case "exactly-once" `Quick test_exactly_once_execution;
          Alcotest.test_case "crash detected" `Quick test_crash_detected;
          Alcotest.test_case "crash mid-execution" `Quick test_crash_mid_execution_detected;
          Alcotest.test_case "probes keep slow server" `Quick test_probes_keep_slow_server_alive;
          Alcotest.test_case "crash within timeout bound" `Quick test_watchdog_crash_within_timeout;
          Alcotest.test_case "probes only after msg_acked" `Quick test_probes_only_after_msg_acked;
          Alcotest.test_case "watchdog fibers cancelled" `Quick test_watchdog_fibers_cancelled;
          Alcotest.test_case "demux crash while parked" `Quick test_demux_crash_while_parked;
          Alcotest.test_case "no handler rejected" `Quick test_no_handler_rejected;
          Alcotest.test_case "call_many" `Quick test_call_many_unicast_and_multicast;
          Alcotest.test_case "call_many partial crash" `Quick test_call_many_partial_crash;
          Alcotest.test_case "deterministic call numbers" `Quick test_deterministic_call_numbers ] );
      ( "window",
        [ Alcotest.test_case "replay behind window not re-executed" `Quick
            test_window_replay_not_reexecuted;
          Alcotest.test_case "probe for pruned call acked" `Quick
            test_window_probe_for_pruned_call;
          Alcotest.test_case "late duplicate return acked once" `Quick
            test_window_late_duplicate_return;
          Alcotest.test_case "first-come return completes call" `Quick
            test_window_first_come_return;
          Alcotest.test_case "peer's calls prune its returns" `Quick
            test_window_peer_calls_prune_returns ] );
      ("delivered", qcheck [ prop_delivered_model ]);
      ("dedup", qcheck [ prop_dedup_model ]);
      ( "udp_echo",
        [ Alcotest.test_case "echo" `Quick test_udp_echo;
          Alcotest.test_case "retry on loss" `Quick test_udp_echo_retries_on_loss;
          Alcotest.test_case "gives up after max_retries" `Quick test_udp_echo_gives_up ] );
      ( "stream",
        [ Alcotest.test_case "echo" `Quick test_stream_echo;
          Alcotest.test_case "large lossy" `Quick test_stream_large_message_lossy;
          Alcotest.test_case "in order" `Quick test_stream_messages_in_order;
          Alcotest.test_case "backoff under partition" `Quick test_stream_backoff_under_partition ] ) ]
