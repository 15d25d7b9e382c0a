(* Failure-injection integration tests and tests for the extension
   features: the watchdog scheme (§4.3.4), weighted voting (§4.3.6),
   network partitions (§4.3.5), and the configuration manager
   (§7.5.3). *)

open Circus_sim
open Circus_net
open Circus_rpc

let bytes_of = Bytes.of_string

type world = { engine : Engine.t; net : Net.t; env : Syscall.env }

let make_world ?params ?seed () =
  let engine = Engine.create ?seed () in
  let net = Net.create engine ?params () in
  let env = Syscall.make net () in
  { engine; net; env }

let member w f =
  let h = Net.add_host w.net () in
  let rt = Runtime.create w.env h ~port:50 () in
  let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> f body) in
  (h, rt, Runtime.module_addr rt module_no)

(* ------------------------------------------------------------------ *)
(* Watchdog scheme *)

let test_watchdog_detects_rogue_member () =
  let w = make_world () in
  let members =
    [ member w (fun b -> b); member w (fun b -> b); member w (fun _ -> bytes_of "rogue") ]
  in
  let troupe = Troupe.make ~id:1L ~members:(List.map (fun (_, _, m) -> m) members) in
  let client = Runtime.create w.env (Net.add_host w.net ()) () in
  let result = ref "" in
  let flagged = ref false in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         let answer =
           Runtime.call_troupe_watchdog ctx troupe ~proc_no:0
             ~on_inconsistency:(fun _ -> flagged := true)
             (bytes_of "x")
         in
         result := Bytes.to_string answer));
  Engine.run w.engine;
  Alcotest.(check bool) "computation proceeded with first" true (!result = "x" || !result = "rogue");
  Alcotest.(check bool) "inconsistency detected in background" true !flagged

let test_watchdog_quiet_when_unanimous () =
  let w = make_world () in
  let members = List.init 3 (fun _ -> member w (fun b -> b)) in
  let troupe = Troupe.make ~id:1L ~members:(List.map (fun (_, _, m) -> m) members) in
  let client = Runtime.create w.env (Net.add_host w.net ()) () in
  let flagged = ref false in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         ignore
           (Runtime.call_troupe_watchdog ctx troupe ~proc_no:0
              ~on_inconsistency:(fun _ -> flagged := true)
              (bytes_of "ok"))));
  Engine.run w.engine;
  Alcotest.(check bool) "no false alarm" false !flagged

let test_watchdog_ignores_crashed_member () =
  let w = make_world () in
  let members = List.init 3 (fun _ -> member w (fun b -> b)) in
  let host0, _, _ = List.hd members in
  ignore (Engine.schedule w.engine ~delay:0.0001 (fun () -> Host.crash host0));
  let troupe = Troupe.make ~id:1L ~members:(List.map (fun (_, _, m) -> m) members) in
  let client = Runtime.create w.env (Net.add_host w.net ()) () in
  let flagged = ref false in
  let result = ref "" in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         Fiber.sleep 0.001;
         result :=
           Bytes.to_string
             (Runtime.call_troupe_watchdog ctx troupe ~proc_no:0
                ~on_inconsistency:(fun _ -> flagged := true)
                (bytes_of "y"))));
  Engine.run w.engine;
  Alcotest.(check string) "answered by survivors" "y" !result;
  Alcotest.(check bool) "a crash is not a disagreement" false !flagged

(* ------------------------------------------------------------------ *)
(* Weighted voting *)

let fabricated_reply maddr msg = { Collator.from = maddr; message = msg }

let maddr i = Circus_net.Addr.module_addr (Circus_net.Addr.make ~host:i ~port:1) 0

let test_weighted_quorum_accepts () =
  let ok = Rpc_msg.Ok_result (bytes_of "v") in
  let heavy = maddr 0 and light1 = maddr 1 and light2 = maddr 2 in
  let weights = [ (heavy, 3) ] in
  (* The heavy member alone reaches a threshold of 3. *)
  let replies =
    List.to_seq
      [ fabricated_reply heavy (Some ok);
        fabricated_reply light1 None;
        fabricated_reply light2 None ]
  in
  let msg = Collator.weighted_quorum ~weights ~threshold:3 ~total:3 replies in
  Alcotest.(check bool) "accepted" true (msg = ok)

let test_weighted_quorum_rejects () =
  let ok = Rpc_msg.Ok_result (bytes_of "v") in
  let heavy = maddr 0 and light1 = maddr 1 and light2 = maddr 2 in
  let weights = [ (heavy, 3) ] in
  (* Threshold 4: the lights agreeing muster 2, the heavy dissenter
     musters 3 — no message reaches the quorum. *)
  let other = Rpc_msg.Ok_result (bytes_of "w") in
  let replies =
    List.to_seq
      [ fabricated_reply light1 (Some ok);
        fabricated_reply light2 (Some ok);
        fabricated_reply heavy (Some other) ]
  in
  Alcotest.check_raises "no quorum" Collator.No_majority (fun () ->
      ignore (Collator.weighted_quorum ~weights ~threshold:4 ~total:3 replies))

(* ------------------------------------------------------------------ *)
(* Partitions *)

let test_partition_majority_collator_wins () =
  let w = make_world () in
  let executed = Array.make 3 false in
  let members =
    List.init 3 (fun i ->
        member w (fun b ->
            executed.(i) <- true;
            b))
  in
  let hosts = List.map (fun (h, _, _) -> Host.id h) members in
  let troupe = Troupe.make ~id:1L ~members:(List.map (fun (_, _, m) -> m) members) in
  let client_host = Net.add_host w.net () in
  let client = Runtime.create w.env client_host () in
  (* Partition member 2 away from the client and the other members. *)
  Net.set_partition w.net
    [ [ Host.id client_host; List.nth hosts 0; List.nth hosts 1 ]; [ List.nth hosts 2 ] ];
  let answer = ref "" in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         answer :=
           Bytes.to_string
             (Runtime.call_troupe ctx troupe ~proc_no:0 ~collator:Collator.majority
                (bytes_of "p"))));
  Engine.run w.engine;
  Alcotest.(check string) "majority answered" "p" !answer;
  Alcotest.(check (list bool)) "partitioned member diverged (did not execute)"
    [ true; true; false ] (Array.to_list executed)

let test_partition_unanimous_collator_survives () =
  (* The unanimous collator treats the unreachable member like a crash:
     the call still completes with the reachable members' messages. *)
  let w = make_world () in
  let members = List.init 3 (fun _ -> member w (fun b -> b)) in
  let hosts = List.map (fun (h, _, _) -> Host.id h) members in
  let troupe = Troupe.make ~id:1L ~members:(List.map (fun (_, _, m) -> m) members) in
  let client_host = Net.add_host w.net () in
  let client = Runtime.create w.env client_host () in
  Net.set_partition w.net
    [ [ Host.id client_host; List.nth hosts 0; List.nth hosts 1 ]; [ List.nth hosts 2 ] ];
  let answer = ref "" in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         answer := Bytes.to_string (Runtime.call_troupe ctx troupe ~proc_no:0 (bytes_of "q"))));
  Engine.run w.engine;
  Alcotest.(check string) "answered" "q" !answer

let test_wait_majority_server_policy () =
  (* A server with the Wait_majority policy proceeds once a majority of
     the client troupe has called — it need not wait for the straggler
     timeout when a member is partitioned away (§4.3.5). *)
  let w = make_world () in
  let server_host = Net.add_host w.net () in
  let server_rt = Runtime.create w.env server_host ~port:50 () in
  let executed_at = ref nan in
  let module_no =
    Runtime.export server_rt ~policy:Runtime.Wait_majority (fun _ctx ~proc_no:_ body ->
        executed_at := Engine.now w.engine;
        body)
  in
  let troupe = Troupe.singleton (Runtime.module_addr server_rt module_no) in
  let client_troupe_id = 70L in
  let clients =
    List.init 3 (fun _ ->
        let rt = Runtime.create w.env (Net.add_host w.net ()) ~port:60 () in
        Runtime.set_self_troupe rt client_troupe_id;
        rt)
  in
  let addrs = List.map Runtime.addr clients in
  Runtime.set_resolver server_rt (fun id ->
      if Ids.Troupe_id.equal id client_troupe_id then Some addrs else None);
  (* Partition the third client member away before it can call. *)
  let isolated = List.nth clients 2 in
  Net.set_partition w.net
    [ Host.id server_host
      :: List.map (fun rt -> Host.id (Runtime.host rt)) [ List.nth clients 0; List.nth clients 1 ];
      [ Host.id (Runtime.host isolated) ] ];
  let thread = { Ids.Thread_id.origin = 7000; pid = 1 } in
  let answered = ref 0 in
  List.iteri
    (fun i rt ->
      if i < 2 then
        ignore
          (Runtime.spawn_thread_as rt ~thread (fun ctx ->
               ignore (Runtime.call_troupe ctx troupe ~proc_no:0 (bytes_of "m"));
               incr answered)))
    clients;
  Engine.run w.engine;
  Alcotest.(check int) "both reachable members answered" 2 !answered;
  Alcotest.(check bool)
    (Printf.sprintf "executed quickly (%.3fs), before the straggler timeout" !executed_at)
    true (!executed_at < 1.0)

(* ------------------------------------------------------------------ *)
(* Stress: loss + duplication + reordering, multi-segment payloads *)

let test_stress_lossy_many_to_many () =
  let params = { Net.default_params with loss = 0.25; duplication = 0.15; jitter_mean = 0.002 } in
  let w = make_world ~params ~seed:23 () in
  let executions = ref 0 in
  let members =
    List.init 2 (fun _ ->
        member w (fun b ->
            incr executions;
            b))
  in
  let troupe = Troupe.make ~id:1L ~members:(List.map (fun (_, _, m) -> m) members) in
  let client = Runtime.create w.env (Net.add_host w.net ()) () in
  let calls = 30 in
  let big = Bytes.create 4000 in
  let completed = ref 0 in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         for i = 1 to calls do
           Bytes.set big 0 (Char.chr (i mod 256));
           let answer = Runtime.call_troupe ctx troupe ~proc_no:0 big in
           if Bytes.equal answer big then incr completed
         done));
  Engine.run w.engine;
  Alcotest.(check int) "all calls completed intact" calls !completed;
  Alcotest.(check int) "exactly-once at both members" (2 * calls) !executions

(* ------------------------------------------------------------------ *)
(* Configuration manager *)

let test_manager_instantiate_and_repair () =
  let w = make_world () in
  let hosts =
    List.map
      (fun (name, mem) ->
        Net.add_host w.net ~name ~attributes:[ ("memory", Host.Num mem) ] ())
      [ ("a", 16.0); ("b", 8.0); ("c", 8.0); ("d", 2.0) ]
  in
  let spec = Circus_config.Parser.parse {|troupe (x, y) where x.memory >= 8 and y.memory >= 8|} in
  let started = ref [] in
  let manager =
    Circus_config.Manager.create ~spec
      ~universe:(fun () ->
        List.filter Host.is_alive hosts |> List.map Circus_config.Solver.machine_of_host)
      ~start_member:(fun id -> started := id :: !started)
      ()
  in
  (match Circus_config.Manager.instantiate manager with
  | Ok chosen ->
    Alcotest.(check int) "two members started" 2 (List.length chosen);
    Alcotest.(check bool) "host d never chosen" false (List.mem (Host.id (List.nth hosts 3)) chosen)
  | Error e -> Alcotest.fail e);
  let first_choice = List.sort Int.compare !started in
  (* Crash one chosen host; repair must keep the survivor and start
     exactly one fresh member. *)
  let victim = List.find (fun h -> List.mem (Host.id h) first_choice) hosts in
  Host.crash victim;
  started := [];
  let survivors = List.filter (fun id -> id <> Host.id victim) first_choice in
  (match Circus_config.Manager.repair manager ~current:survivors with
  | Ok chosen ->
    Alcotest.(check bool) "survivor kept" true
      (List.for_all (fun id -> List.mem id chosen) survivors);
    Alcotest.(check int) "one fresh member" 1 (List.length !started);
    Alcotest.(check bool) "fresh member is alive and qualified" true
      (List.for_all
         (fun id ->
           let h = List.find (fun h -> Host.id h = id) hosts in
           Host.is_alive h)
         !started)
  | Error e -> Alcotest.fail e)

let test_manager_unsatisfiable () =
  let w = make_world () in
  let _h = Net.add_host w.net ~attributes:[ ("memory", Host.Num 1.0) ] () in
  let spec = Circus_config.Parser.parse {|troupe (x) where x.memory >= 8|} in
  let manager =
    Circus_config.Manager.create ~spec
      ~universe:(fun () ->
        Net.hosts w.net |> List.map Circus_config.Solver.machine_of_host)
      ~start_member:(fun _ -> Alcotest.fail "must not start anything")
      ()
  in
  match Circus_config.Manager.instantiate manager with
  | Ok _ -> Alcotest.fail "expected unsatisfiable"
  | Error _ -> ()

let test_manager_watch_repairs () =
  let w = make_world () in
  let hosts =
    List.init 3 (fun i ->
        Net.add_host w.net ~name:(Printf.sprintf "m%d" i)
          ~attributes:[ ("memory", Host.Num 8.0) ] ())
  in
  let spec = Circus_config.Parser.parse {|troupe (x, y) where x.memory >= 8 and y.memory >= 8|} in
  (* A fake membership register standing in for the binding agent. *)
  let membership = ref [ Host.id (List.nth hosts 0); Host.id (List.nth hosts 1) ] in
  let manager =
    Circus_config.Manager.create ~spec
      ~universe:(fun () ->
        List.filter Host.is_alive hosts |> List.map Circus_config.Solver.machine_of_host)
      ~start_member:(fun id -> membership := id :: !membership)
      ()
  in
  let watch_host = Net.add_host w.net ~name:"manager" () in
  ignore
    (Circus_config.Manager.watch manager watch_host
       ~current_members:(fun () -> Some !membership)
       ~period:1.0 ());
  (* Member 0 dies at t=2: the watcher must recruit host 2. *)
  ignore
    (Engine.schedule w.engine ~delay:2.0 (fun () ->
         Host.crash (List.nth hosts 0);
         membership := List.filter (fun id -> id <> Host.id (List.nth hosts 0)) !membership));
  Engine.run ~until:10.0 w.engine;
  Alcotest.(check bool) "repaired to full strength" true (List.length !membership >= 2);
  Alcotest.(check bool) "replacement is host 2" true
    (List.mem (Host.id (List.nth hosts 2)) !membership)

let () =
  Alcotest.run "circus_failures"
    [ ( "watchdog",
        [ Alcotest.test_case "detects rogue" `Quick test_watchdog_detects_rogue_member;
          Alcotest.test_case "quiet when unanimous" `Quick test_watchdog_quiet_when_unanimous;
          Alcotest.test_case "ignores crash" `Quick test_watchdog_ignores_crashed_member ] );
      ( "weighted voting",
        [ Alcotest.test_case "accepts" `Quick test_weighted_quorum_accepts;
          Alcotest.test_case "rejects" `Quick test_weighted_quorum_rejects ] );
      ( "partitions",
        [ Alcotest.test_case "majority collator" `Quick test_partition_majority_collator_wins;
          Alcotest.test_case "unanimous survives" `Quick test_partition_unanimous_collator_survives;
          Alcotest.test_case "wait-majority policy" `Quick test_wait_majority_server_policy ] );
      ( "stress",
        [ Alcotest.test_case "lossy many-to-many" `Quick test_stress_lossy_many_to_many ] );
      ( "config manager",
        [ Alcotest.test_case "instantiate and repair" `Quick test_manager_instantiate_and_repair;
          Alcotest.test_case "unsatisfiable" `Quick test_manager_unsatisfiable;
          Alcotest.test_case "watch repairs" `Quick test_manager_watch_repairs ] ) ]
