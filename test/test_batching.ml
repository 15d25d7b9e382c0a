(* Tests for burst-charged syscalls ([Syscall.set_burst]) against the
   literal per-charge loop, burst charging composed with the sharded
   cluster across domain counts under chaos, and steady-state
   allocation and retained-state budgets on the replicated-call hot
   path. *)

open Circus_sim
open Circus_net
open Circus_pairmsg
open Circus_rpc
module Trace = Circus_trace.Trace
module Export = Circus_trace.Export

(* ------------------------------------------------------------------ *)
(* Testbeds for the burst-charging properties below, all under loss
   and duplication: a traced pairmsg echo exchange, a traced 3-member
   rpc troupe, and an untraced pairmsg exchange that also draws extra
   delay. *)

let run_pairmsg_traced ~burst ~seed () =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~params:(Net.lan ~loss:0.1 ~duplication:0.15 ()) () in
  let env = Syscall.make net () in
  Syscall.set_burst env burst;
  let server_host = Net.add_host net ~name:"server" () in
  let client_host = Net.add_host net ~name:"client" () in
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

let run_rpc ~burst ~seed () =
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
  let sink = Trace.start ~clock:(fun () -> Engine.now engine) () in
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
  Trace.stop ();
  (Export.jsonl sink, List.rev !replies, List.rev !served)

(* Logs what the application sees: server executions and client
   replies, in order. *)
let run_visible ~burst ~seed () =
  let engine = Engine.create ~seed () in
  let net = Net.create engine ~params:(Net.lan ~loss:0.12 ~duplication:0.2 ()) () in
  (* Extra exponential delay via the fault-injection knob. *)
  Net.set_extra_delay_mean net 0.4e-3;
  let env = Syscall.make net () in
  Syscall.set_burst env burst;
  let server_host = Net.add_host net ~name:"server" () in
  let client_host = Net.add_host net ~name:"client" () in
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
      let t1, r1 = run_pairmsg_traced ~burst:true ~seed () in
      let t2, r2 = run_pairmsg_traced ~burst:false ~seed () in
      t1 = t2 && r1 = r2)

let prop_burst_equals_legacy_rpc =
  QCheck.Test.make ~name:"burst charging = per-charge loop (rpc trace + executions)" ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let t1, r1, s1 = run_rpc ~burst:true ~seed () in
      let t2, r2, s2 = run_rpc ~burst:false ~seed () in
      t1 = t2 && r1 = r2 && s1 = s2)

let prop_burst_equals_legacy_sequence =
  QCheck.Test.make
    ~name:"burst charging sees the per-charge sequence (loss/dup/delay)" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      run_visible ~burst:true ~seed ()
      = run_visible ~burst:false ~seed ())

(* ------------------------------------------------------------------ *)
(* sendmsg_vec exception contract: a hook that raises at element [i]
   leaves elements [< i] fully charged and injected and element [i]
   onward untouched — never a half-charged segment. *)

(* Zero jitter and zero per-byte time: every copy arrives exactly one
   propagation delay after it is sent. *)
let zero_jitter = { Net.default_params with jitter_mean = 0.0; per_byte = 0.0 }

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
   is ~1.2x the measured figure (50.5 KB/call for the 3-member troupe
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
  let budget = 60_600.0 in
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
    [ ( "burst charging",
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
