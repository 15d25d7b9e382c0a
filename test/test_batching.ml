(* Tests for the tick-boundary datagram batcher ([Net.set_batching]):
   coalescing of same-instant copies, byte-identical traces across
   equal-seed batched runs (pairmsg and rpc), equivalence of the
   application-visible message sequence with the unbatched path under
   loss / duplication / extra delay, and steady-state allocation and
   retained-state budgets on the replicated-call hot path. *)

open Circus_sim
open Circus_net
open Circus_pairmsg
open Circus_rpc
module Trace = Circus_trace.Trace
module Export = Circus_trace.Export

(* ------------------------------------------------------------------ *)
(* Coalescing: same-instant copies to one destination ride one event. *)

(* Zero jitter and zero per-byte time so every copy injected at one
   instant arrives at one instant — the only configuration where
   grouping is observable as an event-count difference. *)
let zero_jitter = { Net.default_params with jitter_mean = 0.0; per_byte = 0.0 }

let send_burst ~batching () =
  let engine = Engine.create () in
  let net = Net.create engine ~params:zero_jitter () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let c = Net.add_host net ~name:"c" () in
  let sa = Net.udp_bind net a ~port:10 () in
  let sb = Net.udp_bind net b ~port:10 () in
  let sc = Net.udp_bind net c ~port:10 () in
  Net.set_batching net batching;
  let src = Net.socket_addr sa in
  List.iter
    (fun (dst, payload) -> Net.send net ~src ~dst (Bytes.of_string payload))
    [ (Net.socket_addr sb, "1");
      (Net.socket_addr sb, "2");
      (Net.socket_addr sb, "3");
      (Net.socket_addr sc, "x") ];
  (* [pending] flushes the batcher before counting, so this is the
     number of delivery events actually carrying the four copies. *)
  let events = Engine.pending engine in
  Engine.run engine;
  let drain sock =
    let rec go acc =
      match Mailbox.try_recv (Net.mailbox sock) with
      | Some d -> go (Bytes.to_string d.Net.payload :: acc)
      | None -> List.rev acc
    in
    go []
  in
  (events, drain sb, drain sc, (Net.stats net).delivered)

let test_batch_coalesces_same_instant () =
  let ev_b, to_b_b, to_c_b, delivered_b = send_burst ~batching:true () in
  let ev_u, to_b_u, to_c_u, delivered_u = send_burst ~batching:false () in
  Alcotest.(check int) "unbatched: one event per copy" 4 ev_u;
  (* All four copies share the zero-jitter arrival instant, so the
     whole burst — including the cross-destination fan-out to c —
     rides one delivery event. *)
  Alcotest.(check int) "batched: one event per arrival instant" 1 ev_b;
  Alcotest.(check int) "batched delivers all copies" 4 delivered_b;
  Alcotest.(check int) "unbatched delivers all copies" 4 delivered_u;
  Alcotest.(check (list string)) "batched order = send order" [ "1"; "2"; "3" ] to_b_b;
  Alcotest.(check (list string)) "unbatched order = send order" [ "1"; "2"; "3" ] to_b_u;
  Alcotest.(check (list string)) "second destination batched" [ "x" ] to_c_b;
  Alcotest.(check (list string)) "second destination unbatched" [ "x" ] to_c_u

(* Multicast fan-out: under zero jitter all copies of one transmission
   share the arrival instant, so the whole fan-out — distinct
   destinations included — must ride a single delivery event. *)
let test_multicast_fanout_coalesces () =
  let fanout ~batching =
    let engine = Engine.create () in
    let net = Net.create engine ~params:zero_jitter () in
    let a = Net.add_host net ~name:"a" () in
    let sa = Net.udp_bind net a ~port:10 () in
    let dsts =
      List.init 3 (fun i ->
          let h = Net.add_host net ~name:(Printf.sprintf "m%d" i) () in
          Net.udp_bind net h ~port:10 ())
    in
    Net.set_batching net batching;
    Net.send_multicast net ~src:(Net.socket_addr sa)
      ~dsts:(List.map Net.socket_addr dsts)
      (Bytes.of_string "mc");
    let events = Engine.pending engine in
    Engine.run engine;
    let received =
      List.map
        (fun s ->
          match Mailbox.try_recv (Net.mailbox s) with
          | Some d -> Bytes.to_string d.Net.payload
          | None -> "")
        dsts
    in
    (events, received)
  in
  let ev_b, rx_b = fanout ~batching:true in
  let ev_u, rx_u = fanout ~batching:false in
  Alcotest.(check int) "unbatched: one event per destination" 3 ev_u;
  Alcotest.(check int) "batched: whole fan-out on one event" 1 ev_b;
  Alcotest.(check (list string)) "batched fan-out delivered" [ "mc"; "mc"; "mc" ] rx_b;
  Alcotest.(check (list string)) "unbatched fan-out delivered" [ "mc"; "mc"; "mc" ] rx_u

let test_disable_flushes_buffered () =
  let engine = Engine.create () in
  let net = Net.create engine ~params:zero_jitter () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let sa = Net.udp_bind net a ~port:10 () in
  let sb = Net.udp_bind net b ~port:10 () in
  Net.set_batching net true;
  Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (Bytes.of_string "y");
  Net.set_batching net false;
  Alcotest.(check bool) "batching reads off" false (Net.batching net);
  Engine.run engine;
  match Mailbox.try_recv (Net.mailbox sb) with
  | Some d -> Alcotest.(check string) "buffered copy delivered" "y" (Bytes.to_string d.Net.payload)
  | None -> Alcotest.fail "copy buffered at disable time was lost"

(* ------------------------------------------------------------------ *)
(* Equal seeds => byte-identical batched traces (pairmsg). *)

let run_pairmsg_traced ?(burst = true) ~batching ~seed () =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~params:(Net.lan ~loss:0.1 ~duplication:0.15 ()) () in
  let env = Syscall.make net () in
  Syscall.set_burst env burst;
  let server_host = Net.add_host net ~name:"server" () in
  let client_host = Net.add_host net ~name:"client" () in
  Net.set_batching net batching;
  let sink = Trace.start ~clock:(fun () -> Engine.now engine) () in
  let server = Endpoint.create env server_host ~port:50 () in
  Endpoint.serve server (fun ~src:_ body -> body);
  let replies = ref [] in
  ignore
    (Host.spawn client_host (fun () ->
         let ep = Endpoint.create env client_host () in
         for i = 1 to 8 do
           let reply =
             Endpoint.call ep ~dst:(Endpoint.addr server)
               (Bytes.of_string (Printf.sprintf "m%d" i))
           in
           replies := Bytes.to_string reply :: !replies
         done;
         Endpoint.close ep));
  Engine.run engine;
  Trace.stop ();
  (Export.jsonl sink, List.rev !replies)

let prop_batched_pairmsg_trace_deterministic =
  QCheck.Test.make ~name:"equal seeds: batched pairmsg traces byte-identical" ~count:20
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let trace1, replies1 = run_pairmsg_traced ~batching:true ~seed () in
      let trace2, replies2 = run_pairmsg_traced ~batching:true ~seed () in
      trace1 = trace2 && replies1 = replies2)

(* ------------------------------------------------------------------ *)
(* Equal seeds => byte-identical batched traces (rpc). *)

let run_rpc ?(burst = true) ~batching ~traced ~seed () =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~params:(Net.lan ~loss:0.05 ~duplication:0.1 ()) () in
  let env = Syscall.make net () in
  Syscall.set_burst env burst;
  let served = ref [] in
  let members =
    List.init 3 (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "server%d" i) () in
        let rt = Runtime.create env h ~port:50 () in
        let module_no =
          Runtime.export rt (fun _ctx ~proc_no:_ body ->
              served := Printf.sprintf "s%d:%s" i (Bytes.to_string body) :: !served;
              body)
        in
        Runtime.module_addr rt module_no)
  in
  let troupe = Troupe.make ~id:42L ~members in
  let client_host = Net.add_host net ~name:"client" () in
  let rt = Runtime.create env client_host () in
  Net.set_batching net batching;
  let sink = if traced then Some (Trace.start ~clock:(fun () -> Engine.now engine) ()) else None in
  let replies = ref [] in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         for i = 1 to 5 do
           let r =
             Runtime.call_troupe ctx troupe ~proc_no:0 (Bytes.of_string (Printf.sprintf "q%d" i))
           in
           replies := Bytes.to_string r :: !replies
         done));
  Engine.run engine;
  let trace =
    match sink with
    | Some sink ->
      Trace.stop ();
      Export.jsonl sink
    | None -> ""
  in
  (trace, List.rev !replies, List.rev !served)

let prop_batched_rpc_trace_deterministic =
  QCheck.Test.make ~name:"equal seeds: batched rpc traces byte-identical" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let t1, r1, s1 = run_rpc ~batching:true ~traced:true ~seed () in
      let t2, r2, s2 = run_rpc ~batching:true ~traced:true ~seed () in
      t1 = t2 && r1 = r2 && s1 = s2)

(* ------------------------------------------------------------------ *)
(* Batched vs unbatched: same application-visible sequence under
   loss, duplication, and extra delay (the circus_fault knobs). *)

let run_visible ?(burst = true) ~batching ~seed () =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~params:(Net.lan ~loss:0.12 ~duplication:0.2 ()) () in
  (* Extra exponential delay via the fault-injection knob, so delayed
     copies exercise the batcher's precomputed-arrival path. *)
  Net.set_extra_delay_mean net 0.4e-3;
  let env = Syscall.make net () in
  Syscall.set_burst env burst;
  let server_host = Net.add_host net ~name:"server" () in
  let client_host = Net.add_host net ~name:"client" () in
  Net.set_batching net batching;
  let log = ref [] in
  let server = Endpoint.create env server_host ~port:50 () in
  Endpoint.serve server (fun ~src:_ body ->
      log := ("srv:" ^ Bytes.to_string body) :: !log;
      body);
  ignore
    (Host.spawn client_host (fun () ->
         let ep = Endpoint.create env client_host () in
         for i = 1 to 10 do
           let reply =
             Endpoint.call ep ~dst:(Endpoint.addr server)
               (Bytes.of_string (Printf.sprintf "m%d" i))
           in
           log := ("rep:" ^ Bytes.to_string reply) :: !log
         done;
         Endpoint.close ep));
  Engine.run engine;
  List.rev !log

let prop_batched_equals_unbatched_sequence =
  QCheck.Test.make
    ~name:"batched run sees the sequence an unbatched run sees (loss/dup/delay)" ~count:20
    QCheck.(int_range 1 100_000)
    (fun seed -> run_visible ~batching:true ~seed () = run_visible ~batching:false ~seed ())

let prop_batched_equals_unbatched_rpc =
  QCheck.Test.make ~name:"batched rpc run matches unbatched replies and executions" ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let _, r1, s1 = run_rpc ~batching:true ~traced:false ~seed () in
      let _, r2, s2 = run_rpc ~batching:false ~traced:false ~seed () in
      r1 = r2 && s1 = s2)

(* ------------------------------------------------------------------ *)
(* Burst charging vs the literal per-charge loop.  [Syscall.set_burst]
   flips every multi-charge entry point ([sendmsg_vec], [charge_burst])
   between [Host.charge_span] and a [Host.use_cpu] loop; the two must
   be observationally indistinguishable — byte-identical traces (charge
   slices at the same instants), identical replies and server-side
   executions — under loss, duplication, and extra delay. *)

let prop_burst_equals_legacy_pairmsg =
  QCheck.Test.make ~name:"burst charging = per-charge loop (pairmsg trace + replies)" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let t1, r1 = run_pairmsg_traced ~burst:true ~batching:true ~seed () in
      let t2, r2 = run_pairmsg_traced ~burst:false ~batching:true ~seed () in
      t1 = t2 && r1 = r2)

let prop_burst_equals_legacy_rpc =
  QCheck.Test.make ~name:"burst charging = per-charge loop (rpc trace + executions)" ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let t1, r1, s1 = run_rpc ~burst:true ~batching:true ~traced:true ~seed () in
      let t2, r2, s2 = run_rpc ~burst:false ~batching:true ~traced:true ~seed () in
      t1 = t2 && r1 = r2 && s1 = s2)

let prop_burst_equals_legacy_sequence =
  QCheck.Test.make
    ~name:"burst charging sees the per-charge sequence (loss/dup/delay)" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      run_visible ~burst:true ~batching:true ~seed ()
      = run_visible ~burst:false ~batching:true ~seed ())

(* ------------------------------------------------------------------ *)
(* sendmsg_vec exception contract: a hook that raises at element [i]
   leaves elements [< i] fully charged and injected and element [i]
   onward untouched — never a half-charged segment. *)

let test_sendmsg_vec_before_raise () =
  let engine = Engine.create () in
  let net = Net.create engine ~params:zero_jitter () in
  let env = Syscall.make net () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let sa = Net.udp_bind net a ~port:10 () in
  let sb = Net.udp_bind net b ~port:10 () in
  let meter = Meter.create () in
  let user_cost = 0.003 in
  let on_segment_calls = ref [] in
  let raised = ref false in
  ignore
    (Host.spawn a (fun () ->
         try
           Syscall.sendmsg_vec env ~meter
             ~before:(fun i -> if i = 2 then failwith "hook boom")
             ~user_cost
             ~on_segment:(fun i -> on_segment_calls := i :: !on_segment_calls)
             sa ~dst:(Net.socket_addr sb)
             (Array.init 4 (fun i -> Bytes.of_string (string_of_int i)))
         with Failure _ -> raised := true));
  Engine.run engine;
  Alcotest.(check bool) "hook exception propagated" true !raised;
  Alcotest.(check (list int)) "on_segment ran for completed elements only" [ 0; 1 ]
    (List.rev !on_segment_calls);
  let sendmsg_cost = (Syscall.costs env).Syscall.sendmsg in
  Alcotest.(check (float 1e-9)) "kernel time: exactly two sendmsg charges"
    (2.0 *. sendmsg_cost) (Meter.kernel meter);
  Alcotest.(check (float 1e-9)) "user time: exactly two per-segment charges"
    (2.0 *. user_cost) (Meter.user meter);
  let rec drain acc =
    match Mailbox.try_recv (Net.mailbox sb) with
    | Some d -> drain (Bytes.to_string d.Net.payload :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list string)) "elements before the raise were injected, none after"
    [ "0"; "1" ] (drain [])

(* ------------------------------------------------------------------ *)
(* Burst charging composed with the sharded cluster: the merged trace
   and every client's outcome log must be invariant across burst
   {on,off} x domains {1,2,4}, with a chaos plan running.  An echo
   server on shard 0 serves pairmsg clients on the three other shards,
   so every call crosses LPs; the plan crashes/bounces one client host
   and throws loss/delay bursts at the rest. *)

module Cluster_plan = Circus_fault.Plan
module Injector = Circus_fault.Injector

let cluster_burst_run ~seed ~domains ~burst =
  let params = { (Net.lan ~loss:0.05 ~duplication:0.1 ()) with propagation = 2e-3 } in
  let c = Cluster.create ~seed ~params ~lps:4 () in
  Cluster.enable_tracing c;
  let hosts = Array.init 4 (fun i -> Cluster.add_host c ~name:(Printf.sprintf "h%d" i) ()) in
  let envs =
    Array.init 4 (fun lp ->
        let env = Syscall.make (Cluster.net c lp) () in
        Syscall.set_burst env burst;
        env)
  in
  let server_lp = Cluster.lp_of_host c (Host.id hosts.(0)) in
  let server_addr = ref None in
  Cluster.with_lp c server_lp (fun () ->
      let server = Endpoint.create envs.(server_lp) hosts.(0) ~port:50 () in
      Endpoint.serve server (fun ~src:_ body -> body);
      server_addr := Some (Endpoint.addr server));
  let dst = Option.get !server_addr in
  let logs = Array.make 4 [] in
  for i = 1 to 3 do
    let lp = Cluster.lp_of_host c (Host.id hosts.(i)) in
    Cluster.with_lp c lp (fun () ->
        ignore
          (Host.spawn hosts.(i) (fun () ->
               let ep = Endpoint.create envs.(lp) hosts.(i) () in
               for k = 1 to 24 do
                 (match
                    Endpoint.call ep ~dst (Bytes.of_string (Printf.sprintf "c%d.%d" i k))
                  with
                 | reply -> logs.(i) <- ("ok:" ^ Bytes.to_string reply) :: logs.(i)
                 | exception Fiber.Cancelled -> raise Fiber.Cancelled
                 | exception _ -> logs.(i) <- Printf.sprintf "fail:%d" k :: logs.(i));
                 Fiber.sleep 0.2
               done)))
  done;
  let plan =
    Cluster_plan.random ~seed:(seed lxor 0x5A5A)
      ~victims:[ Host.id hosts.(2) ]
      ~others:[ Host.id hosts.(0); Host.id hosts.(1); Host.id hosts.(3) ]
      ~horizon:5.0 ()
  in
  Injector.inject_cluster c plan;
  Cluster.run ~until:6.5 ~domains c;
  let trace = Export.jsonl_events (Cluster.merged_events c) in
  (trace, Array.map List.rev logs, List.length plan)

let check_cluster_burst_invariance ~seed =
  let ref_trace, ref_logs, plan_steps = cluster_burst_run ~seed ~domains:1 ~burst:true in
  let calls = Array.fold_left (fun n log -> n + List.length log) 0 ref_logs in
  if calls = 0 then Alcotest.fail "no client completed a call — vacuous comparison";
  if plan_steps = 0 then Alcotest.fail "empty chaos plan — vacuous chaos comparison";
  List.for_all
    (fun (domains, burst) ->
      let trace, logs, _ = cluster_burst_run ~seed ~domains ~burst in
      trace = ref_trace && logs = ref_logs)
    [ (1, false); (2, true); (2, false); (4, true); (4, false) ]

let test_cluster_burst_invariant_fixed_seed () =
  Alcotest.(check bool) "burst {on,off} x domains {1,2,4} identical (seed 17)" true
    (check_cluster_burst_invariance ~seed:17)

let prop_cluster_burst_invariant =
  QCheck.Test.make ~count:3
    ~name:"chaos cluster: burst {on,off} x domains {1,2,4} byte-identical"
    QCheck.(int_range 0 10_000)
    (fun seed -> check_cluster_burst_invariance ~seed)

(* ------------------------------------------------------------------ *)
(* Steady-state allocation budget on the replicated-call path.  This
   pins the Collator / duplicate-suppression work at fixed cost: a
   regression that reintroduces per-call closures or per-call table
   churn shows up as a jump in bytes allocated per call.  The budget
   is ~1.2x the measured figure (53.6 KB/call for the 3-member troupe
   with burst charging) to stay robust across compiler versions while
   still catching structural regressions. *)

(* A 3-member echo troupe and a client runtime on one engine. *)
let echo_troupe ?costs () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let env = Syscall.make net ?costs () in
  let members =
    List.init 3 (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "server%d" i) () in
        let rt = Runtime.create env h ~port:50 () in
        let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> body) in
        Runtime.module_addr rt module_no)
  in
  let troupe = Troupe.make ~id:42L ~members in
  let client_host = Net.add_host net ~name:"client" () in
  (engine, troupe, Runtime.create env client_host ())

let test_call_alloc_budget () =
  let engine, troupe, rt = echo_troupe ~costs:Syscall.fast_costs () in
  let iters = 40 in
  let per_call = ref infinity in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         let body = Bytes.create 64 in
         (* Warm-up: populate tables, pools, and scratch buffers. *)
         for _ = 1 to 8 do
           ignore (Runtime.call_troupe ctx troupe ~proc_no:0 body)
         done;
         (* Read the counters only right after a minor collection.  On
            OCaml 5.1 their not-yet-collected part of the minor heap is
            undercounted and made good at the next collection, so a
            reading taken anywhere else depends on how many
            collections happen to fall inside the window. *)
         Gc.minor ();
         let before = Gc.allocated_bytes () in
         for _ = 1 to iters do
           ignore (Runtime.call_troupe ctx troupe ~proc_no:0 body)
         done;
         Gc.minor ();
         per_call := (Gc.allocated_bytes () -. before) /. float_of_int iters));
  Engine.run engine;
  let budget = 64_000.0 in
  if not (!per_call < budget) then
    Alcotest.failf "replicated call allocates %.0f bytes/call (budget %.0f)" !per_call budget

(* What a long-lived client keeps per completed call: live words after a
   full major GC, measured inside the client fiber so the whole testbed
   is reachable both times.  The client's pairmsg endpoint keeps a
   constant-size marker per return it has delivered (to ack late
   duplicates); a leak of message bodies or reassembly records breaks
   the budget.  The testbed keeps the default (1985) CPU costs: a call
   then spans enough simulated time that the timers earlier calls
   cancelled have fallen due, so pending engine events do not count. *)
let test_retained_state_budget () =
  let engine, troupe, rt = echo_troupe () in
  let calls = 10_000 in
  let per_call = ref infinity in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         let call () =
           ignore (Runtime.call_troupe ctx troupe ~proc_no:0 (Bytes.create 64))
         in
         for _ = 1 to 200 do
           call ()
         done;
         let before = live_words () in
         for _ = 1 to calls do
           call ()
         done;
         per_call := Float.of_int (live_words () - before) /. Float.of_int calls));
  Engine.run engine;
  let budget = 32.0 in
  if not (!per_call <= budget) then
    Alcotest.failf "a completed call leaves %.1f live words behind (budget %.0f)" !per_call
      budget

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_batching"
    [ ( "coalescing",
        [ Alcotest.test_case "same-instant copies share an event" `Quick
            test_batch_coalesces_same_instant;
          Alcotest.test_case "multicast fan-out shares an event" `Quick
            test_multicast_fanout_coalesces;
          Alcotest.test_case "disabling flushes buffered copies" `Quick
            test_disable_flushes_buffered ] );
      ( "determinism",
        qcheck [ prop_batched_pairmsg_trace_deterministic; prop_batched_rpc_trace_deterministic ]
      );
      ( "equivalence",
        qcheck [ prop_batched_equals_unbatched_sequence; prop_batched_equals_unbatched_rpc ] );
      ( "burst charging",
        Alcotest.test_case "sendmsg_vec hook raise: no half-charged burst" `Quick
          test_sendmsg_vec_before_raise
        :: qcheck
             [ prop_burst_equals_legacy_pairmsg;
               prop_burst_equals_legacy_rpc;
               prop_burst_equals_legacy_sequence ] );
      ( "burst x cluster",
        Alcotest.test_case "fixed seed, burst x domains" `Quick
          test_cluster_burst_invariant_fixed_seed
        :: qcheck [ prop_cluster_burst_invariant ] );
      ( "allocation",
        [ Alcotest.test_case "per-call budget" `Quick test_call_alloc_budget;
          Alcotest.test_case "retained state per call" `Quick test_retained_state_budget ] ) ]
