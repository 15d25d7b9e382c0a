(* Tests for troupes and replicated procedure call: one-to-many,
   many-to-one, many-to-many, thread ID propagation, collators,
   waiting policies, crash and stale-binding handling, and the
   retention of executed calls' returns. *)

open Circus_sim
open Circus_net
open Circus_rpc
module Trace = Circus_trace.Trace
module Export = Circus_trace.Export

let bytes_of = Bytes.of_string
let string_of = Bytes.to_string

type world = { engine : Engine.t; net : Net.t; env : Syscall.env }

let make_world ?params ?seed () =
  let engine = Engine.create ?seed () in
  let net = Net.create engine ?params () in
  let env = Syscall.make net () in
  { engine; net; env }

(* An echo server troupe of [n] members; each member counts its own
   executions.  Returns the troupe and the counters. *)
let echo_troupe w n =
  let counters = Array.make n 0 in
  let members =
    List.init n (fun i ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "server%d" i) () in
        let rt = Runtime.create w.env h ~port:50 () in
        let module_no =
          Runtime.export rt (fun _ctx ~proc_no body ->
              match proc_no with
              | 0 ->
                counters.(i) <- counters.(i) + 1;
                body
              | _ -> raise Runtime.Bad_interface)
        in
        (rt, Runtime.module_addr rt module_no))
  in
  let troupe = Troupe.make ~id:42L ~members:(List.map snd members) in
  List.iter
    (fun (rt, maddr) -> Runtime.set_export_troupe rt ~module_no:maddr.Addr.module_no (Some 42L))
    members;
  (troupe, counters, List.map fst members)

let run_to_completion w = Engine.run w.engine

let client_call w troupe ?multicast ?collator body =
  let h = Net.add_host w.net ~name:"client" () in
  let rt = Runtime.create w.env h () in
  let result = ref None in
  let error = ref None in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         match Runtime.call_troupe ctx troupe ~proc_no:0 ?multicast ?collator body with
         | v -> result := Some v
         | exception e -> error := Some e));
  run_to_completion w;
  match (!result, !error) with
  | Some v, _ -> Ok v
  | None, Some e -> Error e
  | None, None -> Alcotest.fail "call never completed"

let test_unreplicated_call () =
  let w = make_world () in
  let troupe, counters, _ = echo_troupe w 1 in
  (match client_call w troupe (bytes_of "hello") with
  | Ok v -> Alcotest.(check string) "echo" "hello" (string_of v)
  | Error e -> raise e);
  Alcotest.(check int) "one execution" 1 counters.(0)

let test_one_to_many_exactly_once_at_all () =
  let w = make_world () in
  let troupe, counters, _ = echo_troupe w 3 in
  (match client_call w troupe (bytes_of "rpc") with
  | Ok v -> Alcotest.(check string) "echo" "rpc" (string_of v)
  | Error e -> raise e);
  Alcotest.(check (array int)) "exactly once at every member" [| 1; 1; 1 |] counters

let test_one_to_many_multicast () =
  let w = make_world () in
  let troupe, counters, _ = echo_troupe w 4 in
  (match client_call w troupe ~multicast:true (bytes_of "mc") with
  | Ok v -> Alcotest.(check string) "echo" "mc" (string_of v)
  | Error e -> raise e);
  Alcotest.(check (array int)) "exactly once" [| 1; 1; 1; 1 |] counters

(* A many-to-many call (§4.3.3): a client troupe of [clients] members
   calls a server troupe of [servers] members.  Every server member
   resolves the client troupe id so it knows how many call messages to
   expect (§4.3.2). *)
let run_many_to_many w ~clients ~servers ~payload =
  let client_troupe_id = 77L in
  let client_runtimes =
    List.init clients (fun i ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "client%d" i) () in
        let rt = Runtime.create w.env h ~port:60 () in
        Runtime.set_self_troupe rt client_troupe_id;
        rt)
  in
  let client_addrs = List.map Runtime.addr client_runtimes in
  let resolver id = if Ids.Troupe_id.equal id client_troupe_id then Some client_addrs else None in
  let server_counters = Array.make servers 0 in
  let members =
    List.init servers (fun i ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "srv%d" i) () in
        let rt = Runtime.create w.env h ~port:50 () in
        Runtime.set_resolver rt resolver;
        let module_no =
          Runtime.export rt (fun _ctx ~proc_no:_ body ->
              server_counters.(i) <- server_counters.(i) + 1;
              body)
        in
        Runtime.module_addr rt module_no)
  in
  let server_troupe = Troupe.make ~id:43L ~members in
  let results = Array.make clients "" in
  let thread = { Ids.Thread_id.origin = 999; pid = 7 } in
  List.iteri
    (fun i rt ->
      ignore
        (Runtime.spawn_thread_as rt ~thread (fun ctx ->
             results.(i) <-
               string_of (Runtime.call_troupe ctx server_troupe ~proc_no:0 (bytes_of payload)))))
    client_runtimes;
  run_to_completion w;
  (results, server_counters)

let test_many_to_one () =
  let w = make_world () in
  let results, server_counters = run_many_to_many w ~clients:3 ~servers:1 ~payload:"m2o" in
  Alcotest.(check (array string)) "all members got the result" [| "m2o"; "m2o"; "m2o" |] results;
  Alcotest.(check (array int)) "executed exactly once" [| 1 |] server_counters

let test_many_to_many () =
  let w = make_world () in
  let results, server_counters = run_many_to_many w ~clients:2 ~servers:3 ~payload:"m2m" in
  Alcotest.(check (array string)) "both client members returned" [| "m2m"; "m2m" |] results;
  Alcotest.(check (array int)) "each server member executed once" [| 1; 1; 1 |] server_counters

let test_thread_id_propagation () =
  let w = make_world () in
  (* A -> B -> C: C must observe the thread ID minted at A. *)
  let host_c = Net.add_host w.net ~name:"C" () in
  let rt_c = Runtime.create w.env host_c ~port:50 () in
  let seen_at_c = ref None in
  let mod_c =
    Runtime.export rt_c (fun ctx ~proc_no:_ body ->
        seen_at_c := Some (Runtime.thread_id ctx);
        body)
  in
  let c_addr = Runtime.module_addr rt_c mod_c in
  let host_b = Net.add_host w.net ~name:"B" () in
  let rt_b = Runtime.create w.env host_b ~port:50 () in
  let mod_b =
    Runtime.export rt_b (fun ctx ~proc_no:_ body ->
        (* Nested call: pass the context along. *)
        Runtime.call_module ctx c_addr ~proc_no:0 body)
  in
  let b_addr = Runtime.module_addr rt_b mod_b in
  let host_a = Net.add_host w.net ~name:"A" () in
  let rt_a = Runtime.create w.env host_a () in
  let root_thread = ref None in
  ignore
    (Runtime.spawn_thread rt_a (fun ctx ->
         root_thread := Some (Runtime.thread_id ctx);
         ignore (Runtime.call_module ctx b_addr ~proc_no:0 (bytes_of "x"))));
  run_to_completion w;
  match (!root_thread, !seen_at_c) with
  | Some a, Some c ->
    Alcotest.(check bool) "same logical thread" true (Ids.Thread_id.equal a c)
  | _ -> Alcotest.fail "thread ids not captured"

let test_unanimous_detects_disagreement () =
  let w = make_world () in
  (* Two members disagree: one echoes, one mangles. *)
  let members =
    List.mapi
      (fun i f ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "s%d" i) () in
        let rt = Runtime.create w.env h ~port:50 () in
        let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> f body) in
        Runtime.module_addr rt module_no)
      [ (fun b -> b); (fun _ -> bytes_of "mangled") ]
  in
  let troupe = Troupe.make ~id:5L ~members in
  match client_call w troupe (bytes_of "agree?") with
  | Error Collator.Disagreement -> ()
  | Ok _ -> Alcotest.fail "disagreement not detected"
  | Error e -> raise e

let test_first_come_masks_disagreement () =
  let w = make_world () in
  let members =
    List.mapi
      (fun i f ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "s%d" i) () in
        let rt = Runtime.create w.env h ~port:50 () in
        let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> f body) in
        Runtime.module_addr rt module_no)
      [ (fun b -> b); (fun _ -> bytes_of "mangled") ]
  in
  let troupe = Troupe.make ~id:5L ~members in
  match client_call w troupe ~collator:Collator.first_come (bytes_of "x") with
  | Ok _ -> ()
  | Error e -> raise e

let test_majority_outvotes_bad_member () =
  let w = make_world () in
  let members =
    List.mapi
      (fun i f ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "s%d" i) () in
        let rt = Runtime.create w.env h ~port:50 () in
        let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> f body) in
        Runtime.module_addr rt module_no)
      [ (fun b -> b); (fun b -> b); (fun _ -> bytes_of "rogue") ]
  in
  let troupe = Troupe.make ~id:5L ~members in
  match client_call w troupe ~collator:Collator.majority (bytes_of "vote") with
  | Ok v -> Alcotest.(check string) "majority value" "vote" (string_of v)
  | Error e -> raise e

let test_unanimous_tolerates_member_crash () =
  let w = make_world () in
  let hosts = List.init 3 (fun i -> Net.add_host w.net ~name:(Printf.sprintf "s%d" i) ()) in
  let members =
    List.map
      (fun h ->
        let rt = Runtime.create w.env h ~port:50 () in
        let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> body) in
        Runtime.module_addr rt module_no)
      hosts
  in
  let troupe = Troupe.make ~id:6L ~members in
  ignore (Engine.schedule w.engine ~delay:0.0001 (fun () -> Host.crash (List.nth hosts 2)));
  match client_call w troupe (bytes_of "survive") with
  | Ok v -> Alcotest.(check string) "result from survivors" "survive" (string_of v)
  | Error e -> raise e

let test_total_failure_detected () =
  let w = make_world () in
  let hosts = List.init 2 (fun i -> Net.add_host w.net ~name:(Printf.sprintf "s%d" i) ()) in
  let members =
    List.map
      (fun h ->
        let rt = Runtime.create w.env h ~port:50 () in
        let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> body) in
        Runtime.module_addr rt module_no)
      hosts
  in
  let troupe = Troupe.make ~id:6L ~members in
  ignore (Engine.schedule w.engine ~delay:0.0001 (fun () -> List.iter Host.crash hosts));
  match client_call w troupe (bytes_of "doomed") with
  | Error Collator.Troupe_failed -> ()
  | Ok _ -> Alcotest.fail "total failure not detected"
  | Error e -> raise e

let test_stale_troupe_rejected () =
  let w = make_world () in
  let troupe, _, _ = echo_troupe w 2 in
  (* The client believes the troupe has a different (older) id. *)
  let stale = { troupe with Troupe.id = 41L } in
  match client_call w stale (bytes_of "old") with
  | Error (Runtime.Stale_binding id) -> Alcotest.(check int64) "rejected id" 41L id
  | Ok _ -> Alcotest.fail "stale binding accepted"
  | Error e -> raise e

let test_bad_module_number () =
  let w = make_world () in
  let h = Net.add_host w.net () in
  let rt = Runtime.create w.env h ~port:50 () in
  ignore (Runtime.export rt (fun _ctx ~proc_no:_ body -> body));
  let bogus = Troupe.singleton (Addr.module_addr (Runtime.addr rt) 9) in
  match client_call w bogus (bytes_of "x") with
  | Error Runtime.Bad_interface -> ()
  | Ok _ -> Alcotest.fail "unknown module accepted"
  | Error e -> raise e

let test_remote_error_propagates () =
  let w = make_world () in
  let h = Net.add_host w.net () in
  let rt = Runtime.create w.env h ~port:50 () in
  let module_no =
    Runtime.export rt (fun _ctx ~proc_no:_ _ -> raise (Runtime.Remote_error "boom"))
  in
  let troupe = Troupe.singleton (Runtime.module_addr rt module_no) in
  match client_call w troupe (bytes_of "x") with
  | Error (Runtime.Remote_error "boom") -> ()
  | Ok _ -> Alcotest.fail "no error"
  | Error e -> raise e

let test_explicit_replication_generator () =
  let w = make_world () in
  let troupe, _, _ = echo_troupe w 3 in
  let h = Net.add_host w.net ~name:"client" () in
  let rt = Runtime.create w.env h () in
  let first = ref None in
  let count = ref 0 in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         let total, replies = Runtime.call_troupe_gen ctx troupe ~proc_no:0 (bytes_of "gen") in
         Alcotest.(check int) "troupe size" 3 total;
         (* Short-circuit: stop at the first acceptable response
            (Figure 7.6), then re-traverse to count all. *)
         (match replies () with
         | Seq.Cons (r, _) -> first := r.Collator.message
         | Seq.Nil -> ());
         Seq.iter (fun _ -> incr count) replies));
  run_to_completion w;
  (match !first with
  | Some (Rpc_msg.Ok_result b) -> Alcotest.(check string) "first reply" "gen" (string_of b)
  | _ -> Alcotest.fail "no first reply");
  Alcotest.(check int) "memoized full traversal" 3 !count

let test_server_straggler_timeout () =
  (* A client troupe of 2 where one member never calls: the server must
     proceed after the straggler timeout and answer the live member. *)
  let w = make_world () in
  let server_host = Net.add_host w.net ~name:"server" () in
  let server_rt =
    Runtime.create w.env server_host ~port:50
      ~config:{ Runtime.straggler_timeout = 0.5; retention = 10.0 } ()
  in
  let executed = ref 0 in
  let module_no =
    Runtime.export server_rt (fun _ctx ~proc_no:_ body ->
        incr executed;
        body)
  in
  let troupe = Troupe.singleton (Runtime.module_addr server_rt module_no) in
  let client_troupe_id = 88L in
  let c1 = Runtime.create w.env (Net.add_host w.net ()) ~port:60 () in
  let c2 = Runtime.create w.env (Net.add_host w.net ()) ~port:60 () in
  Runtime.set_self_troupe c1 client_troupe_id;
  Runtime.set_self_troupe c2 client_troupe_id;
  let addrs = [ Runtime.addr c1; Runtime.addr c2 ] in
  let resolver id = if Ids.Troupe_id.equal id client_troupe_id then Some addrs else None in
  Runtime.set_resolver server_rt resolver;
  let thread = { Ids.Thread_id.origin = 1000; pid = 1 } in
  let got = ref None in
  (* Only member c1 makes the call; c2 is silent (crashed logically). *)
  ignore
    (Runtime.spawn_thread_as c1 ~thread (fun ctx ->
         got := Some (string_of (Runtime.call_troupe ctx troupe ~proc_no:0 (bytes_of "alone")))));
  run_to_completion w;
  Alcotest.(check (option string)) "live member answered" (Some "alone") !got;
  Alcotest.(check int) "executed once" 1 !executed

let test_first_come_broadcast_buffers_at_client () =
  (* Server runs on the first call message and broadcasts the return to
     the whole client troupe; the slow member's return must be waiting
     when it finally calls (§4.3.4, client-side buffering). *)
  let w = make_world () in
  let server_host = Net.add_host w.net ~name:"server" () in
  let server_rt = Runtime.create w.env server_host ~port:50 () in
  let executed = ref 0 in
  let module_no =
    Runtime.export server_rt
      ~policy:(Runtime.First_come { broadcast = true })
      (fun _ctx ~proc_no:_ body ->
        incr executed;
        body)
  in
  let troupe = Troupe.singleton (Runtime.module_addr server_rt module_no) in
  let client_troupe_id = 89L in
  let c1 = Runtime.create w.env (Net.add_host w.net ()) ~port:60 () in
  let c2 = Runtime.create w.env (Net.add_host w.net ()) ~port:60 () in
  Runtime.set_self_troupe c1 client_troupe_id;
  Runtime.set_self_troupe c2 client_troupe_id;
  let addrs = [ Runtime.addr c1; Runtime.addr c2 ] in
  let resolver id = if Ids.Troupe_id.equal id client_troupe_id then Some addrs else None in
  Runtime.set_resolver server_rt resolver;
  let thread = { Ids.Thread_id.origin = 1001; pid = 1 } in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  ignore
    (Runtime.spawn_thread_as c1 ~thread (fun ctx ->
         ignore (Runtime.call_troupe ctx troupe ~proc_no:0 (bytes_of "fast"));
         t1 := Engine.now w.engine));
  ignore
    (Runtime.spawn_thread_as c2 ~thread (fun ctx ->
         (* This member runs 3 s behind its replica. *)
         Fiber.sleep 3.0;
         ignore (Runtime.call_troupe ctx troupe ~proc_no:0 (bytes_of "fast"));
         t2 := Engine.now w.engine));
  run_to_completion w;
  Alcotest.(check int) "executed once" 1 !executed;
  Alcotest.(check bool) "fast member unblocked early" true (!t1 < 1.0);
  (* The slow member's answer was already buffered: its call completes
     almost instantly after t=3. *)
  Alcotest.(check bool)
    (Printf.sprintf "slow member instantaneous (%.4f)" (!t2 -. 3.0))
    true
    (!t2 -. 3.0 < 0.5)

(* ------------------------------------------------------------------ *)
(* Retention of executed many-to-one calls.  Once a call has executed,
   its encoded return waits in the runtime's [Retired] store until the
   retention sweep after its deadline: a client member that calls late
   gets the stored bytes, and the procedure does not run again. *)

(* A client troupe of two members and a one-member server whose
   procedure stamps each reply with its execution count, so a second
   execution shows in the reply.  Member c1 calls at 0; member c2 calls
   at [late] s, after the straggler timeout has executed the call.
   Returns the execution count, both replies, and the MD5 of the JSONL
   trace, the engine's event count and its final clock. *)
let late_member_run ~retention ~late =
  let w = make_world () in
  let server_rt =
    Runtime.create w.env (Net.add_host w.net ~name:"server" ()) ~port:50
      ~config:{ Runtime.straggler_timeout = 0.5; retention } ()
  in
  let executed = ref 0 in
  let module_no =
    Runtime.export server_rt (fun _ctx ~proc_no:_ body ->
        incr executed;
        Bytes.cat body (bytes_of (Printf.sprintf "#%d" !executed)))
  in
  let troupe = Troupe.singleton (Runtime.module_addr server_rt module_no) in
  let client_troupe_id = 90L in
  let c1 = Runtime.create w.env (Net.add_host w.net ()) ~port:60 () in
  let c2 = Runtime.create w.env (Net.add_host w.net ()) ~port:60 () in
  Runtime.set_self_troupe c1 client_troupe_id;
  Runtime.set_self_troupe c2 client_troupe_id;
  let addrs = [ Runtime.addr c1; Runtime.addr c2 ] in
  Runtime.set_resolver server_rt (fun id ->
      if Ids.Troupe_id.equal id client_troupe_id then Some addrs else None);
  let thread = { Ids.Thread_id.origin = 1002; pid = 1 } in
  let r1 = ref "" and r2 = ref "" in
  let sink = Trace.start ~clock:(fun () -> Engine.now w.engine) () in
  ignore
    (Runtime.spawn_thread_as c1 ~thread (fun ctx ->
         r1 := string_of (Runtime.call_troupe ctx troupe ~proc_no:0 (bytes_of "late"))));
  ignore
    (Runtime.spawn_thread_as c2 ~thread (fun ctx ->
         Fiber.sleep late;
         r2 := string_of (Runtime.call_troupe ctx troupe ~proc_no:0 (bytes_of "late"))));
  let events = Engine.run_counted w.engine in
  Trace.stop ();
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%s\n%d %h" (Export.jsonl sink) events (Engine.now w.engine)))
  in
  (!executed, !r1, !r2, digest)

(* The digests were recorded before returns moved out of the
   many-to-one records into [Retired]: a late member is answered with
   the same trace events, charges and engine events as when the record
   itself answered it. *)
let test_late_member_after_retirement () =
  let executed, r1, r2, digest = late_member_run ~retention:10.0 ~late:3.0 in
  Alcotest.(check int) "executed once" 1 executed;
  Alcotest.(check string) "first member" "late#1" r1;
  Alcotest.(check string) "late member gets the stored return" "late#1" r2;
  Alcotest.(check string) "trace and schedule" "5ade5ef35a693ed521aa65e6a76e80dc" digest

(* Past the retention period the sweep has dropped the return, so the
   late member's call is a new call: it waits out the straggler timeout
   and runs the procedure a second time, and the sweeper stops once the
   store is empty. *)
let test_duplicate_after_retention () =
  let executed, r1, r2, digest = late_member_run ~retention:1.0 ~late:3.0 in
  Alcotest.(check int) "executed again" 2 executed;
  Alcotest.(check string) "first member" "late#1" r1;
  Alcotest.(check string) "late member runs it anew" "late#2" r2;
  Alcotest.(check string) "trace and schedule" "bb148ac6511ba7070b81ab086f476008" digest

(* Once the final sweep has run the store holds nothing, not even a
   buffer sized by its busiest retention period: 400 calls with 4 KB
   returns, all retained until one sweep drops them, leave less than an
   eighth of their bytes live. *)
let test_store_released () =
  let w = make_world () in
  let server_rt =
    Runtime.create w.env (Net.add_host w.net ~name:"server" ()) ~port:50
      ~config:{ Runtime.straggler_timeout = 2.0; retention = 1000.0 } ()
  in
  let module_no = Runtime.export server_rt (fun _ctx ~proc_no:_ body -> body) in
  let troupe = Troupe.singleton (Runtime.module_addr server_rt module_no) in
  let client = Runtime.create w.env (Net.add_host w.net ~name:"client" ()) () in
  let calls = 400 and size = 4096 in
  let completed = ref 0 in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         for i = 1 to calls do
           let body = Bytes.make size (Char.chr (i land 0xff)) in
           if Bytes.equal body (Runtime.call_troupe ctx troupe ~proc_no:0 body) then
             incr completed
         done));
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  run_to_completion w;
  let after = live_words () in
  ignore (Sys.opaque_identity (server_rt, client));
  Alcotest.(check int) "calls completed" calls !completed;
  if Engine.now w.engine < 1000.0 then
    Alcotest.failf "the run ended at %.1f s, before the retention sweep" (Engine.now w.engine);
  let stored_words = calls * size / (Sys.word_size / 8) in
  if not (after - before < stored_words / 8) then
    Alcotest.failf "%d words live after the final sweep (%d words were retained)"
      (after - before) stored_words

(* The store against a list model: entries of random sizes, from empty
   to several times the arena's first capacity, added while the clock
   advances, so the arena grows, wraps round its end and empties again.
   Every held key reads back its bytes, every expired one reads
   nothing, and an empty store holds no arena. *)
type store_op = Add of int | Advance of float | Find of int

let show_store_op = function
  | Add n -> Printf.sprintf "add %d" n
  | Advance d -> Printf.sprintf "advance %g" d
  | Find i -> Printf.sprintf "find %d" i

let gen_store_op =
  QCheck.Gen.(
    frequency
      [ (5, map (fun n -> Add n) (frequency [ (4, int_bound 100); (1, int_bound 3000) ]));
        (2, map (fun d -> Advance (float_of_int d /. 4.0)) (int_bound 12));
        (3, map (fun i -> Find i) (int_bound 200)) ])

let store_contents key n = Bytes.init n (fun j -> Char.chr (((key * 31) + j) land 0xff))

let run_store_ops ops =
  let retention = 2.0 in
  let t = Retired.create () in
  let now = ref 0.0 and next_key = ref 0 in
  (* held entries, oldest first, and every key ever added *)
  let model = ref [] and added = ref [] in
  let find_ok key =
    let expect = List.find_map (fun (k, _, b) -> if k = key then Some b else None) !model in
    Retired.find t key = expect
  in
  let ok =
    List.for_all
      (fun op ->
        match op with
        | Add n ->
          let key = !next_key * 7919 in
          incr next_key;
          let b = store_contents key n in
          Retired.add t ~key ~expiry:(!now +. retention) b;
          model := !model @ [ (key, !now +. retention, b) ];
          added := key :: !added;
          Retired.length t = List.length !model
        | Advance d ->
          now := !now +. d;
          Retired.expire t ~now:!now;
          model := List.filter (fun (_, e, _) -> e > !now) !model;
          Retired.length t = List.length !model
          && (!model <> [] || Retired.arena_capacity t = 0)
        | Find i -> (
          match List.nth_opt !added (i mod max 1 (List.length !added)) with
          | Some key -> find_ok key
          | None -> Retired.find t 0 = None))
      ops
    && List.for_all find_ok !added
  in
  Retired.expire t ~now:infinity;
  ok
  && Retired.length t = 0
  && Retired.arena_capacity t = 0
  && List.for_all (fun key -> Retired.find t key = None) !added

let prop_store_model =
  QCheck.Test.make ~name:"Retired store = list model (growth, wrap, release)" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_store_op ops))
       QCheck.Gen.(list_size (int_range 1 200) gen_store_op))
    run_store_ops

let () =
  Alcotest.run "circus_rpc"
    [ ( "calls",
        [ Alcotest.test_case "unreplicated" `Quick test_unreplicated_call;
          Alcotest.test_case "one-to-many exactly once" `Quick test_one_to_many_exactly_once_at_all;
          Alcotest.test_case "one-to-many multicast" `Quick test_one_to_many_multicast;
          Alcotest.test_case "many-to-one" `Quick test_many_to_one;
          Alcotest.test_case "many-to-many" `Quick test_many_to_many;
          Alcotest.test_case "thread id propagation" `Quick test_thread_id_propagation ] );
      ( "collators",
        [ Alcotest.test_case "unanimous disagreement" `Quick test_unanimous_detects_disagreement;
          Alcotest.test_case "first-come" `Quick test_first_come_masks_disagreement;
          Alcotest.test_case "majority" `Quick test_majority_outvotes_bad_member;
          Alcotest.test_case "explicit replication" `Quick test_explicit_replication_generator ] );
      ( "failures",
        [ Alcotest.test_case "member crash tolerated" `Quick test_unanimous_tolerates_member_crash;
          Alcotest.test_case "total failure" `Quick test_total_failure_detected;
          Alcotest.test_case "stale troupe id" `Quick test_stale_troupe_rejected;
          Alcotest.test_case "bad module" `Quick test_bad_module_number;
          Alcotest.test_case "remote error" `Quick test_remote_error_propagates ] );
      ( "policies",
        [ Alcotest.test_case "straggler timeout" `Quick test_server_straggler_timeout;
          Alcotest.test_case "first-come broadcast" `Quick test_first_come_broadcast_buffers_at_client ] );
      ( "retention",
        [ Alcotest.test_case "late member after retirement" `Quick
            test_late_member_after_retirement;
          Alcotest.test_case "duplicate after retention and sweep" `Quick
            test_duplicate_after_retention;
          Alcotest.test_case "store released after the final sweep" `Quick test_store_released;
          QCheck_alcotest.to_alcotest prop_store_model ] ) ]
