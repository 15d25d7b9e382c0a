(* Tests for the Ringmaster binding agent, client caches and rebinding,
   the janitor, and troupe-member recruitment with state transfer. *)

open Circus_sim
open Circus_net
open Circus_rpc
open Circus_binding
module Codec = Circus_wire.Codec

let bytes_of = Bytes.of_string
let string_of = Bytes.to_string

type world = {
  engine : Engine.t;
  net : Net.t;
  env : Syscall.env;
  ringmaster : Troupe.t;
}

(* A world with [n] Ringmaster members on dedicated hosts. *)
let make_world ?(ringmasters = 2) ?seed () =
  let engine = Engine.create ?seed () in
  let net = Net.create engine () in
  let env = Syscall.make net () in
  let hosts =
    List.init ringmasters (fun i -> Net.add_host net ~name:(Printf.sprintf "rm%d" i) ())
  in
  List.iter (fun h -> ignore (Ringmaster.start_member env h)) hosts;
  let ringmaster = Ringmaster.bootstrap_troupe ~hosts:(List.map Host.id hosts) () in
  { engine; net; env; ringmaster }

(* A counter service member: proc 0 increments and returns the value,
   proc 1 reads it.  State is exposed for get_state transfer. *)
let counter_member w ?(initial = 0) name_unused =
  ignore name_unused;
  let host = Net.add_host w.net () in
  let rt = Runtime.create w.env host ~port:50 () in
  let client = Client.create rt ~ringmaster:w.ringmaster in
  let counter = ref initial in
  let module_no =
    Runtime.export rt (fun _ctx ~proc_no body ->
        ignore body;
        match proc_no with
        | 0 ->
          incr counter;
          bytes_of (string_of_int !counter)
        | 1 -> bytes_of (string_of_int !counter)
        | _ -> raise Runtime.Bad_interface)
  in
  Runtime.set_state_provider rt ~module_no (fun () -> bytes_of (string_of_int !counter));
  let load state = counter := int_of_string (string_of state) in
  (host, rt, client, module_no, counter, load)

let run w = Engine.run w.engine

let spawn_client w f =
  let host = Net.add_host w.net () in
  let rt = Runtime.create w.env host () in
  let client = Client.create rt ~ringmaster:w.ringmaster in
  ignore (Runtime.spawn_thread rt (fun ctx -> f client ctx))

let test_register_and_import () =
  let w = make_world () in
  let _, _, member_client, module_no, _, _ = counter_member w "counter" in
  let imported = ref None in
  (* The member exports itself by name... *)
  ignore
    (Runtime.spawn_thread (Client.runtime member_client) (fun ctx ->
         let troupe =
           Client.export_service member_client ctx ~name:"counter" ~module_no
         in
         Alcotest.(check int) "one member" 1 (Troupe.size troupe)));
  (* ...and a client imports and calls it. *)
  spawn_client w (fun client ctx ->
      Fiber.sleep 1.0;
      let answer = Client.call client ctx ~service:"counter" ~proc_no:0 Bytes.empty in
      imported := Some (string_of answer));
  run w;
  Alcotest.(check (option string)) "called through binding" (Some "1") !imported

let test_unknown_service () =
  let w = make_world () in
  let result = ref None in
  spawn_client w (fun client ctx ->
      match Client.import client ctx "nonexistent" with
      | _ -> result := Some "found"
      | exception Client.Unknown_service name -> result := Some ("unknown:" ^ name));
  run w;
  Alcotest.(check (option string)) "unknown" (Some "unknown:nonexistent") !result

let test_add_member_changes_id_and_stale_cache_masked () =
  let w = make_world () in
  let _, _, c1, m1, _, _ = counter_member w "svc" in
  let _, _, c2, m2, _, load2 = counter_member w "svc" in
  let observed = ref [] in
  (* First member registers at t=0. *)
  ignore
    (Runtime.spawn_thread (Client.runtime c1) (fun ctx ->
         ignore (Client.export_service c1 ctx ~name:"svc" ~module_no:m1)));
  (* A client imports (and caches) the one-member binding, calls, then
     calls again after the membership changed underneath it. *)
  spawn_client w (fun client ctx ->
      Fiber.sleep 1.0;
      let t1 = Client.import client ctx "svc" in
      observed := Printf.sprintf "size1=%d" (Troupe.size t1) :: !observed;
      ignore (Client.call client ctx ~service:"svc" ~proc_no:0 Bytes.empty);
      (* Wait for the second member to join (it does so at t=5). *)
      Fiber.sleep 10.0;
      (* The cached binding is now stale (T ⊃ C): the call must be
         transparently rebound and still succeed. *)
      let answer = Client.call client ctx ~service:"svc" ~proc_no:0 Bytes.empty in
      observed := ("answer=" ^ string_of answer) :: !observed;
      let t2 = Client.import client ctx "svc" in
      observed := Printf.sprintf "size2=%d" (Troupe.size t2) :: !observed;
      observed := Printf.sprintf "id_changed=%b" (t2.Troupe.id <> t1.Troupe.id) :: !observed);
  (* Second member joins at t=5, with state transfer. *)
  ignore
    (Host.spawn (Runtime.host (Client.runtime c2)) (fun () ->
         Fiber.sleep 5.0;
         let ctx = Runtime.detached_ctx (Client.runtime c2) in
         ignore (Recruit.join c2 ctx ~name:"svc" ~module_no:m2 ~load:load2)));
  run w;
  let got = List.rev !observed in
  Alcotest.(check (list string))
    "stale cache masked, id changed"
    [ "size1=1"; "answer=2"; "size2=2"; "id_changed=true" ]
    got

let test_recruit_state_transfer () =
  let w = make_world () in
  let _, _, c1, m1, counter1, _ = counter_member w "kv" in
  let _, _, c2, _, counter2, load2 = counter_member w "kv" in
  counter1 := 41;
  ignore
    (Runtime.spawn_thread (Client.runtime c1) (fun ctx ->
         ignore (Client.export_service c1 ctx ~name:"kv" ~module_no:m1)));
  let c2rt = Client.runtime c2 in
  ignore
    (Host.spawn (Runtime.host c2rt) (fun () ->
         Fiber.sleep 2.0;
         let ctx = Runtime.detached_ctx c2rt in
         let m2 =
           (* re-declare export on c2's runtime: module 0 already made in
              counter_member *)
           0
         in
         ignore (Recruit.join c2 ctx ~name:"kv" ~module_no:m2 ~load:load2)));
  run w;
  Alcotest.(check int) "state transferred" 41 !counter2

let test_janitor_removes_crashed_member () =
  let w = make_world () in
  let h1, _, c1, m1, _, _ = counter_member w "gc" in
  let _, _, c2, m2, _, _ = counter_member w "gc" in
  ignore
    (Runtime.spawn_thread (Client.runtime c1) (fun ctx ->
         ignore (Client.export_service c1 ctx ~name:"gc" ~module_no:m1)));
  ignore
    (Host.spawn (Runtime.host (Client.runtime c2)) (fun () ->
         Fiber.sleep 1.0;
         let ctx = Runtime.detached_ctx (Client.runtime c2) in
         ignore (Recruit.join c2 ctx ~name:"gc" ~module_no:m2 ~load:(fun _ -> ()))));
  (* Crash member 1 at t=10; run a janitor from a separate host. *)
  ignore (Engine.schedule w.engine ~delay:10.0 (fun () -> Host.crash h1));
  let sizes = ref [] in
  spawn_client w (fun client ctx ->
      ignore (Janitor.spawn client ~period:5.0 ());
      Fiber.sleep 30.0;
      let troupe = Client.rebind client ctx "gc" in
      sizes := Troupe.size troupe :: !sizes);
  Engine.run ~until:60.0 w.engine;
  Alcotest.(check (list int)) "one member left" [ 1 ] !sizes

let test_resolver_through_ringmaster () =
  (* A replicated client troupe registered at the Ringmaster; the
     server resolves the client troupe id remotely (§4.3.2). *)
  let w = make_world () in
  let executed = ref 0 in
  (* Server. *)
  let server_host = Net.add_host w.net ~name:"server" () in
  let server_rt = Runtime.create w.env server_host ~port:50 () in
  let _server_client = Client.create server_rt ~ringmaster:w.ringmaster in
  let server_mod =
    Runtime.export server_rt (fun _ctx ~proc_no:_ body ->
        incr executed;
        body)
  in
  let server_troupe = Troupe.singleton (Runtime.module_addr server_rt server_mod) in
  (* Two client members registered as a troupe by a third party. *)
  let client_rts =
    List.init 2 (fun i ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "cm%d" i) () in
        let rt = Runtime.create w.env h ~port:60 () in
        ignore (Client.create rt ~ringmaster:w.ringmaster);
        rt)
  in
  let members =
    List.map (fun rt -> Addr.module_addr (Runtime.addr rt) 0) client_rts
  in
  let registered_id = ref Ids.Troupe_id.none in
  spawn_client w (fun client ctx ->
      let id =
        Client.register client ctx ~name:"client-troupe"
          (Troupe.make ~id:Ids.Troupe_id.none ~members)
      in
      registered_id := id;
      List.iter (fun rt -> Runtime.set_self_troupe rt id) client_rts);
  ignore
    (Engine.schedule w.engine ~delay:2.0 (fun () ->
         let thread = { Ids.Thread_id.origin = 12345; pid = 9 } in
         List.iter
           (fun rt ->
             ignore
               (Runtime.spawn_thread_as rt ~thread (fun ctx ->
                    ignore (Runtime.call_troupe ctx server_troupe ~proc_no:0 (bytes_of "x")))))
           client_rts));
  run w;
  Alcotest.(check bool) "registered" true (not (Ids.Troupe_id.equal !registered_id Ids.Troupe_id.none));
  Alcotest.(check int) "executed once for the pair" 1 !executed

(* A lookup cancelled while it queues for the lookup permit leaves the
   queue: with one permit, A holds it and B queues behind A; B is
   cancelled; when A finishes, the permit is free again, and C, asking
   later, gets its answer. *)
let test_cancelled_queued_lookup_frees_permit () =
  let w = make_world ~ringmasters:1 () in
  let rt = Runtime.create w.env (Net.add_host w.net ()) () in
  let client = Client.create rt ~ringmaster:w.ringmaster in
  let outcome = Hashtbl.create 3 in
  let ask who name ~at =
    ignore
      (Engine.schedule w.engine ~delay:at (fun () ->
           let thread =
             Runtime.spawn_thread rt (fun ctx ->
                 match Client.import client ctx name with
                 | _ -> Hashtbl.replace outcome who "found"
                 | exception Client.Unknown_service _ -> Hashtbl.replace outcome who "unknown"
                 | exception Fiber.Cancelled -> Hashtbl.replace outcome who "cancelled")
           in
           if who = "B" then
             (* B has queued behind A by the next instant; A's lookup
                takes tens of milliseconds. *)
             ignore (Engine.schedule w.engine ~delay:0.001 (fun () -> Fiber.cancel thread))))
  in
  ask "A" "a" ~at:0.0;
  ask "B" "b" ~at:0.0;
  ask "C" "c" ~at:1.0;
  Engine.run ~until:30.0 w.engine;
  let seen who = Hashtbl.find_opt outcome who in
  Alcotest.(check (option string)) "A answered" (Some "unknown") (seen "A");
  Alcotest.(check (option string)) "B cancelled" (Some "cancelled") (seen "B");
  Alcotest.(check (option string)) "C answered" (Some "unknown") (seen "C")

(* A lookup cancelled while it asks the registry cancels no one else:
   B and C ask for the same name while A's call is in flight and follow
   A's flight; A is cancelled mid-call; the first of B and C to resume
   asks again, the other follows it, and both get the troupe. *)
let test_cancelled_asker_hands_over_flight () =
  let w = make_world ~ringmasters:1 () in
  let _, _, member_client, module_no, _, _ = counter_member w "counter" in
  ignore
    (Runtime.spawn_thread (Client.runtime member_client) (fun ctx ->
         ignore (Client.export_service member_client ctx ~name:"counter" ~module_no)));
  let rt = Runtime.create w.env (Net.add_host w.net ()) () in
  let client = Client.create rt ~ringmaster:w.ringmaster in
  let outcome = Hashtbl.create 3 in
  let ask who ~at =
    ignore
      (Engine.schedule_abs w.engine ~at (fun () ->
           let thread =
             Runtime.spawn_thread rt (fun ctx ->
                 match Client.import client ctx "counter" with
                 | troupe ->
                   Hashtbl.replace outcome who (Printf.sprintf "found %d" (Troupe.size troupe))
                 | exception Client.Unknown_service _ -> Hashtbl.replace outcome who "unknown"
                 | exception Fiber.Cancelled -> Hashtbl.replace outcome who "cancelled")
           in
           (* A's registry call takes tens of milliseconds. *)
           if who = "A" then
             ignore (Engine.schedule w.engine ~delay:0.002 (fun () -> Fiber.cancel thread))))
  in
  ask "A" ~at:1.0;
  ask "B" ~at:1.001;
  ask "C" ~at:1.001;
  Engine.run ~until:30.0 w.engine;
  let seen who = Hashtbl.find_opt outcome who in
  Alcotest.(check (option string)) "A cancelled" (Some "cancelled") (seen "A");
  Alcotest.(check (option string)) "B answered" (Some "found 1") (seen "B");
  Alcotest.(check (option string)) "C answered" (Some "found 1") (seen "C")

(* ------------------------------------------------------------------ *)
(* Sharing.  Clients on one domain keep one copy of what their caches
   share: a name, a troupe and a member list decoded from equal
   registry answers are one value.  A registry of [services] names,
   each a troupe of three of [hosts] echo members, registered by one
   client; the clients under test warm from it. *)

let shared_world ~services =
  let w = make_world ~ringmasters:1 () in
  let hosts = 6 in
  let members =
    Array.init hosts (fun i ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "m%d" i) () in
        let rt = Runtime.create w.env h ~port:50 () in
        Runtime.module_addr rt (Runtime.export rt (fun _ctx ~proc_no:_ body -> body)))
  in
  let name i = Printf.sprintf "svc%02d" i in
  spawn_client w (fun client ctx ->
      for i = 0 to services - 1 do
        let members = List.init 3 (fun k -> members.((i + k) mod hosts)) in
        ignore
          (Client.register client ctx ~name:(name i)
             (Troupe.make ~id:Ids.Troupe_id.none ~members))
      done);
  (w, name)

let new_client w =
  let rt = Runtime.create w.env (Net.add_host w.net ()) () in
  Client.create rt ~ringmaster:w.ringmaster

(* [f client ctx] on a thread of [client]'s runtime, at [at]. *)
let at_time w ~at client f =
  ignore
    (Engine.schedule w.engine ~delay:at (fun () ->
         ignore (Runtime.spawn_thread (Client.runtime client) (fun ctx -> f client ctx))))

let test_warm_shares () =
  let w, name = shared_world ~services:5 in
  let a = new_client w and b = new_client w in
  at_time w ~at:5.0 a Client.warm;
  at_time w ~at:5.0 b Client.warm;
  run w;
  let ca = Client.cached a and cb = Client.cached b in
  Alcotest.(check (list string)) "both caches warmed" (List.init 5 name) (List.map fst ca);
  Alcotest.(check (list string)) "same names" (List.map fst ca) (List.map fst cb);
  List.iter2
    (fun (na, ta) (nb, tb) ->
      Alcotest.(check bool) (na ^ ": one name key") true (na == nb);
      Alcotest.(check bool) (na ^ ": one troupe") true (ta == tb);
      match (Client.resolve a ta.Troupe.id, Client.resolve b tb.Troupe.id) with
      | Some ma, Some mb ->
        Alcotest.(check int) (na ^ ": three members") 3 (List.length ma);
        Alcotest.(check bool) (na ^ ": one member list") true (ma == mb)
      | _ -> Alcotest.failf "%s: id not cached" na)
    ca cb

(* A membership change re-caches a new troupe value in the client that
   made it; the other client's cached binding is the old value,
   untouched. *)
let test_change_leaves_other_binding () =
  let w, name = shared_world ~services:3 in
  let _, _, joiner, module_no, _, _ = counter_member w "joiner" in
  let other = new_client w in
  at_time w ~at:5.0 joiner Client.warm;
  at_time w ~at:5.0 other Client.warm;
  let before = ref None and after = ref None in
  at_time w ~at:20.0 joiner (fun client ctx ->
      before := List.assoc_opt (name 1) (Client.cached client);
      after := Some (Client.export_service client ctx ~name:(name 1) ~module_no));
  run w;
  let old = Option.get !before and fresh = Option.get !after in
  Alcotest.(check bool) "the old troupe was shared" true
    (List.assoc (name 1) (Client.cached other) == old);
  Alcotest.(check bool) "the joiner re-cached a new value" true
    (List.assoc (name 1) (Client.cached joiner) == fresh && fresh != old);
  Alcotest.(check int) "the new troupe has the joiner" 4 (Troupe.size fresh);
  Alcotest.(check bool) "a new id" false (Ids.Troupe_id.equal fresh.Troupe.id old.Troupe.id);
  Alcotest.(check int) "the old troupe is untouched" 3 (Troupe.size old);
  Alcotest.(check bool) "the other client keeps the old members" true
    (Client.resolve other old.Troupe.id
    = Some (List.map (fun m -> m.Addr.process) old.Troupe.members))

(* What each further warmed client retains: live words after a full
   major collection, once the first client has warmed (so every shared
   value exists) and again once [extra] more have, both after the
   registry's retention period so its retired answers are gone.  A
   client then keeps its two hash tables' entries, and the protocol
   state of one more peer, but no name, troupe or member list of its
   own: 714.5 words for 30 names.  When each client kept its own
   decoded copy of them it retained 2,033 words.  The budget has ~30%
   headroom. *)
let test_warm_retention_budget () =
  let services = 30 and extra = 8 in
  let w, _ = shared_world ~services in
  let first = new_client w in
  let clients = List.init extra (fun _ -> new_client w) in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = ref 0 and after = ref 0 in
  at_time w ~at:5.0 first Client.warm;
  ignore (Engine.schedule w.engine ~delay:40.0 (fun () -> before := live_words ()));
  List.iter (fun c -> at_time w ~at:41.0 c Client.warm) clients;
  ignore (Engine.schedule w.engine ~delay:80.0 (fun () -> after := live_words ()));
  run w;
  ignore (Sys.opaque_identity (first, clients));
  List.iter
    (fun c ->
      Alcotest.(check int) "warmed" services (List.length (Client.cached c)))
    (first :: clients);
  let per_client = Float.of_int (!after - !before) /. Float.of_int extra in
  let budget = 930.0 in
  if not (per_client <= budget) then
    Alcotest.failf "a warmed client retains %.1f words for %d names (budget %.0f)" per_client
      services budget

let () =
  Alcotest.run "circus_binding"
    [ ( "ringmaster",
        [ Alcotest.test_case "register and import" `Quick test_register_and_import;
          Alcotest.test_case "unknown service" `Quick test_unknown_service;
          Alcotest.test_case "resolver via ringmaster" `Quick test_resolver_through_ringmaster;
          Alcotest.test_case "cancelled asker hands over its flight" `Quick
            test_cancelled_asker_hands_over_flight;
          Alcotest.test_case "cancelled queued lookup frees permit" `Quick
            test_cancelled_queued_lookup_frees_permit ] );
      ( "reconfiguration",
        [ Alcotest.test_case "add member + stale cache" `Quick
            test_add_member_changes_id_and_stale_cache_masked;
          Alcotest.test_case "state transfer" `Quick test_recruit_state_transfer;
          Alcotest.test_case "janitor" `Quick test_janitor_removes_crashed_member ] );
      ( "sharing",
        [ Alcotest.test_case "warmed clients share values" `Quick test_warm_shares;
          Alcotest.test_case "a change leaves other bindings" `Quick
            test_change_leaves_other_binding;
          Alcotest.test_case "words per warmed client" `Quick test_warm_retention_budget ] ) ]
