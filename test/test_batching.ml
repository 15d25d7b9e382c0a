(* Tests for burst charging ([Host.charge_span]) against the literal
   per-charge loop, pinned multi-segment troupe calls, the sharded
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
(* Burst charging against its oracle.  [Host.charge_span] replaced a
   literal per-charge [Host.use_cpu] loop; the loop stays here as the
   reference.  Random runs of charges with hooks that stamp the clock,
   raced by a second fiber charging the same CPU, must give the same
   hook instants, meter totals, CPU total and trace either way. *)

let charge_run ~span (kinds, costs, rivals) =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let host = Net.add_host net ~name:"h" () in
  let meter = Meter.create () in
  let log = ref [] in
  let stamp tag i = log := (tag, i, Engine.now engine) :: !log in
  let kind i =
    match kinds.(i) with 0 -> `User | 1 -> `Kernel "sendmsg" | _ -> `Kernel "gettimeofday"
  in
  let cost i = costs.(i) in
  let n = Array.length kinds in
  let sink = Trace.start ~clock:(fun () -> Engine.now engine) () in
  ignore
    (Host.spawn host (fun () ->
         if span then
           Host.charge_span host ~meter ~n ~before:(stamp "before") ~kind ~cost
             ~after:(stamp "after") ()
         else
           for i = 0 to n - 1 do
             stamp "before" i;
             Host.use_cpu host ~meter ~kind:(kind i) (cost i);
             stamp "after" i
           done));
  ignore
    (Host.spawn host (fun () ->
         List.iteri
           (fun k (delay, cost) ->
             Fiber.sleep delay;
             Host.use_cpu host ~kind:(`Kernel "recvmsg") cost;
             stamp "rival" k)
           rivals));
  Engine.run engine;
  Trace.stop ();
  ( List.rev !log,
    Meter.user meter,
    Meter.kernel meter,
    Meter.by_syscall meter,
    Host.cpu_time host,
    Export.jsonl sink )

let charge_case =
  let open QCheck.Gen in
  let gen =
    int_range 0 12 >>= fun n ->
    array_repeat n (int_range 0 2) >>= fun kinds ->
    array_repeat n (oneof [ return 0.0; float_range 1e-4 5e-3 ]) >>= fun costs ->
    list_size (int_range 0 4) (pair (float_range 0.0 0.02) (float_range 1e-4 3e-3))
    >|= fun rivals -> (kinds, costs, rivals)
  in
  let print (kinds, costs, rivals) =
    Printf.sprintf "kinds=[%s] costs=[%s] rivals=[%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int kinds)))
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") costs)))
      (String.concat ";" (List.map (fun (d, c) -> Printf.sprintf "%h@%h" c d) rivals))
  in
  QCheck.make ~print gen

let prop_charge_span_equals_loop =
  QCheck.Test.make ~name:"burst charging = per-charge loop (Host.charge_span vs use_cpu)"
    ~count:200 charge_case (fun case ->
      charge_run ~span:true case = charge_run ~span:false case)

(* Multi-segment troupe calls, pinned.  Each 11,520-byte argument and
   reply travels as an 8-segment burst, under loss and duplication, to
   a 1- or 3-member echo troupe.  The digests cover the JSONL trace and
   the replies; they were recorded when burst charging could still be
   switched off, and both modes gave these same bytes. *)

let multiseg_digest ~n ~seed =
  let engine = Engine.create ~seed () in
  let params = { Net.default_params with loss = 0.05; duplication = 0.1 } in
  let net = Net.create engine ~params () in
  let env = Syscall.make net () in
  let members =
    List.init n (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "server%d" i) () in
        let rt = Runtime.create env h ~port:50 () in
        Runtime.module_addr rt (Runtime.export rt (fun _ctx ~proc_no:_ body -> body)))
  in
  let troupe = Troupe.make ~id:42L ~members in
  let client_host = Net.add_host net ~name:"client" () in
  let rt = Runtime.create env client_host () in
  let sink = Trace.start ~clock:(fun () -> Engine.now engine) () in
  let replies = ref [] in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         for i = 1 to 3 do
           let arg = Bytes.init 11_520 (fun j -> Char.chr (97 + ((i + j) mod 26))) in
           let reply =
             match Runtime.call_troupe ctx troupe ~proc_no:0 arg with
             | r -> Digest.to_hex (Digest.bytes r)
             | exception e -> "raised " ^ Printexc.to_string e
           in
           replies := reply :: !replies
         done));
  Engine.run engine;
  Trace.stop ();
  Digest.to_hex (Digest.string (Export.jsonl sink ^ String.concat "\n" (List.rev !replies)))

let test_multiseg_golden () =
  List.iter
    (fun (n, seed, digest) ->
      Alcotest.(check string) (Printf.sprintf "n=%d seed=%d" n seed) digest
        (multiseg_digest ~n ~seed))
    [ (1, 5, "245dac712e99908af53810dfee297e21");
      (1, 11, "a30a6c568ac14511164577bd103cbaf0");
      (3, 5, "e5b773e1bc2f18b1b27c8c07bb328da7");
      (3, 11, "fea8deb0db315d9311ab6ee0189cd4d8") ]

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
   and every client's outcome log must be invariant across domains
   {1,2,4}, with a chaos plan running.  An echo server on shard 0
   serves pairmsg clients on the three other shards, so every call
   crosses LPs; the plan crashes/bounces one client host and throws
   loss/delay bursts at the rest. *)

module Cluster_plan = Circus_fault.Plan
module Injector = Circus_fault.Injector

let cluster_run ~seed ~domains =
  let params = { Net.default_params with loss = 0.05; duplication = 0.1; propagation = 2e-3 } in
  let c = Cluster.create ~seed ~params ~lps:4 () in
  Cluster.enable_tracing c;
  let hosts = Array.init 4 (fun i -> Cluster.add_host c ~name:(Printf.sprintf "h%d" i) ()) in
  let envs = Array.init 4 (fun lp -> Syscall.make (Cluster.net c lp) ()) in
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

let check_cluster_invariance ~seed =
  let ref_trace, ref_logs, plan_steps = cluster_run ~seed ~domains:1 in
  let calls = Array.fold_left (fun n log -> n + List.length log) 0 ref_logs in
  if calls = 0 then Alcotest.fail "no client completed a call — vacuous comparison";
  if plan_steps = 0 then Alcotest.fail "empty chaos plan — vacuous chaos comparison";
  List.for_all
    (fun domains ->
      let trace, logs, _ = cluster_run ~seed ~domains in
      trace = ref_trace && logs = ref_logs)
    [ 2; 4 ]

let test_cluster_invariant_fixed_seed () =
  Alcotest.(check bool) "domains {1,2,4} identical (seed 17)" true
    (check_cluster_invariance ~seed:17)

let prop_cluster_invariant =
  QCheck.Test.make ~count:3
    ~name:"chaos cluster: domains {1,2,4} byte-identical"
    QCheck.(int_range 0 10_000)
    (fun seed -> check_cluster_invariance ~seed)

(* ------------------------------------------------------------------ *)
(* Steady-state allocation budget on the replicated-call path.  This
   pins the Collator / duplicate-suppression work at fixed cost: a
   regression that reintroduces per-call closures or per-call table
   churn shows up as a jump in bytes allocated per call.  The budget
   sits ~9% above the measured figure (34.5 KB/call for the 3-member
   troupe with burst charging, OCaml 5.1; the 48 calls all fall in one
   retention period, so the servers' stores of executed returns are
   still growing) and is tightened, never loosened, when a change cuts
   the figure. *)

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
  let budget = 37_500.0 in
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
  let budget = 24.0 in
  if not (!per_call <= budget) then
    Alcotest.failf "a completed call leaves %.1f live words behind (budget %.0f)" !per_call
      budget

(* The scenario's shape of the same question: several client runtimes
   spread their calls over several troupes, so each server sees every
   [troupes]-th call number of each client, and the run goes on past
   the RPC layer's retention period (10 s simulated) until its sweeps
   have dropped every retained return.  What is still live then beyond
   the idle testbed is what the protocol never lets go of: the clients'
   delivered-return markers and the servers' dedup window, in tables
   sized by their peak: 35.2 words per completed call, against a budget
   with ~30% headroom.  Removed records left in table slots, a store of
   retired returns that keeps its peak-sized buffers, or message bodies
   kept for calls already handed to the handler, break the budget. *)
let test_retained_state_spread () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let env = Syscall.make net () in
  let troupes = 4 and clients = 6 and calls_each = 400 in
  let troupes =
    Array.init troupes (fun j ->
        let members =
          List.init 3 (fun i ->
              let h = Net.add_host net ~name:(Printf.sprintf "server%d.%d" j i) () in
              let rt = Runtime.create env h ~port:50 () in
              Runtime.module_addr rt (Runtime.export rt (fun _ctx ~proc_no:_ body -> body)))
        in
        Troupe.make ~id:(Int64.of_int (100 + j)) ~members)
  in
  let completed = ref 0 in
  let runtimes =
    List.init clients (fun c ->
        let rt = Runtime.create env (Net.add_host net ~name:(Printf.sprintf "client%d" c) ()) () in
        ignore
          (Runtime.spawn_thread rt (fun ctx ->
               for k = 1 to calls_each do
                 let troupe = troupes.((c + k) mod Array.length troupes) in
                 ignore (Runtime.call_troupe ctx troupe ~proc_no:0 (Bytes.create 64));
                 incr completed
               done));
        rt)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  Engine.run engine;
  let after = live_words () in
  ignore (Sys.opaque_identity (engine, net, troupes, runtimes));
  if !completed <> clients * calls_each then
    Alcotest.failf "%d of %d calls completed" !completed (clients * calls_each);
  if Engine.now engine < 10.0 then
    Alcotest.failf "the run ended at %.1f s, inside the first retention period"
      (Engine.now engine);
  let per_call = Float.of_int (after - before) /. Float.of_int !completed in
  let budget = 46.0 in
  if not (per_call <= budget) then
    Alcotest.failf "a completed call leaves %.1f live words behind (budget %.0f)" per_call
      budget

(* What a minor collection promotes per call on the same loop.  A
   record, list or boxed value that the protocol keeps across many
   calls survives the minor collections that fall inside its lifetime,
   and each promotion makes those collections longer, so the calls that
   pay for one are the slow ones.  Executed many-to-one calls keep only
   their encoded return, in a store with no young pointers; a store
   that kept each call's record for the 10 s retention period promotes
   132 words per call here (dev profile, OCaml 5.1).  The budget sits
   ~30% above the measured 19.8. *)
let test_promoted_words () =
  let engine, troupe, rt = echo_troupe () in
  let calls = 5_000 in
  let per_call = ref infinity in
  let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         let call () =
           ignore (Runtime.call_troupe ctx troupe ~proc_no:0 (Bytes.create 64))
         in
         for _ = 1 to 200 do
           call ()
         done;
         (* Start and end on an empty minor heap, so the count covers
            exactly what the calls left live. *)
         Gc.minor ();
         let before = promoted () in
         for _ = 1 to calls do
           call ()
         done;
         Gc.minor ();
         per_call := (promoted () -. before) /. Float.of_int calls));
  Engine.run engine;
  let budget = 26.0 in
  if not (!per_call <= budget) then
    Alcotest.failf "a call promotes %.1f words (budget %.0f)" !per_call budget

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_batching"
    [ ( "burst charging",
        Alcotest.test_case "sendmsg_vec hook raise: no half-charged burst" `Quick
          test_sendmsg_vec_before_raise
        :: Alcotest.test_case "multi-segment troupe calls, pinned digests" `Quick
             test_multiseg_golden
        :: qcheck [ prop_charge_span_equals_loop ] );
      ( "burst x cluster",
        Alcotest.test_case "fixed seed, domains {1,2,4}" `Quick test_cluster_invariant_fixed_seed
        :: qcheck [ prop_cluster_invariant ] );
      ( "allocation",
        [ Alcotest.test_case "per-call budget" `Quick test_call_alloc_budget;
          Alcotest.test_case "retained state per call" `Quick test_retained_state_budget;
          Alcotest.test_case "retained state, calls spread over troupes" `Quick
            test_retained_state_spread;
          Alcotest.test_case "promoted words per call" `Quick test_promoted_words ] ) ]
