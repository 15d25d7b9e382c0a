(* Fine-grained protocol behaviour tests: the acknowledgment
   optimizations of §4.2.4, implicit acknowledgments, collator
   laziness, transaction-object misuse, and ordered-broadcast release
   timing. *)

open Circus_sim
open Circus_net
open Circus_pairmsg
open Circus_rpc

let bytes_of = Bytes.of_string

type world = { engine : Engine.t; net : Net.t; env : Syscall.env; client : Host.t; server : Host.t }

let make_world ?params ?seed () =
  let engine = Engine.create ?seed () in
  let net = Net.create engine ?params () in
  let env = Syscall.make net () in
  let client = Net.add_host net ~name:"client" () in
  let server = Net.add_host net ~name:"server" () in
  { engine; net; env; client; server }

(* ------------------------------------------------------------------ *)
(* Implicit acknowledgments: on a lossless network, a sequence of
   single-segment exchanges needs exactly two datagrams per call — the
   return acknowledges the call, and the next call acknowledges the
   previous return (§4.2.2).  Only the final return needs explicit
   acknowledgment traffic. *)

let test_implicit_acks_minimize_traffic () =
  let w = make_world () in
  let server_ep = Endpoint.create w.env w.server ~port:50 () in
  Endpoint.serve server_ep (fun ~src:_ body -> body);
  let calls = 25 in
  ignore
    (Host.spawn w.client (fun () ->
         let ep = Endpoint.create w.env w.client () in
         for i = 1 to calls do
           ignore (Endpoint.call ep ~dst:(Endpoint.addr server_ep) (bytes_of (string_of_int i)))
         done));
  Engine.run w.engine;
  let sent = (Net.stats w.net).Net.sent in
  Alcotest.(check bool)
    (Printf.sprintf "2 datagrams per call plus a small tail (%d for %d calls)" sent calls)
    true
    (sent >= 2 * calls && sent <= (2 * calls) + 6)

(* Out-of-order arrival of a multi-segment message triggers an
   immediate explicit acknowledgment so the sender retransmits the
   missing segment promptly (§4.2.4): under loss, a multi-segment call
   still completes well within a couple of retransmission intervals. *)
let test_out_of_order_ack_speeds_recovery () =
  let w = make_world ~params:{ Net.default_params with loss = 0.3 } ~seed:77 () in
  let server_ep = Endpoint.create w.env w.server ~port:50 () in
  Endpoint.serve server_ep (fun ~src:_ body -> body);
  let big = Bytes.create 6000 in
  let finished_at = ref infinity in
  ignore
    (Host.spawn w.client (fun () ->
         let ep = Endpoint.create w.env w.client () in
         ignore (Endpoint.call ep ~dst:(Endpoint.addr server_ep) big);
         finished_at := Engine.now w.engine));
  Engine.run w.engine;
  Alcotest.(check bool)
    (Printf.sprintf "completed at %.3fs despite 30%% loss" !finished_at)
    true
    (!finished_at < 2.0)

(* A multicast one-to-many call on a lossy network: members that missed
   the single multicast burst are recovered by point-to-point
   retransmission with please-ack (§4.3.7 + §4.2.2). *)
let test_multicast_recovers_from_loss () =
  let engine = Engine.create ~seed:31 () in
  let net = Net.create engine ~params:{ Net.default_params with loss = 0.35 } () in
  let env = Syscall.make net () in
  let client_host = Net.add_host net () in
  let servers =
    List.init 4 (fun _ ->
        let h = Net.add_host net () in
        let ep = Endpoint.create env h ~port:50 () in
        Endpoint.serve ep (fun ~src:_ body -> body);
        Endpoint.addr ep)
  in
  let answers = ref 0 in
  ignore
    (Host.spawn client_host (fun () ->
         let ep = Endpoint.create env client_host () in
         let replies = Endpoint.call_many ep ~dsts:servers ~multicast:true (bytes_of "mc") in
         for _ = 1 to 4 do
           match Endpoint.next_reply replies with
           | { Endpoint.result = Ok _; _ } -> incr answers
           | _ -> ()
         done));
  Engine.run engine;
  Alcotest.(check int) "every member answered despite 35% loss" 4 !answers

(* ------------------------------------------------------------------ *)
(* Collator laziness: a quorum of 1 must let the caller proceed before
   slow members have answered (lazy generator application, §4.3.6). *)

let test_quorum_returns_before_slow_member () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let env = Syscall.make net () in
  let members =
    List.mapi
      (fun i delay ->
        let h = Net.add_host net ~name:(Printf.sprintf "s%d" i) () in
        let rt = Runtime.create env h ~port:50 () in
        let module_no =
          Runtime.export rt (fun _ctx ~proc_no:_ body ->
              Fiber.sleep delay;
              body)
        in
        Runtime.module_addr rt module_no)
      [ 0.0; 10.0 ]
  in
  let troupe = Troupe.make ~id:3L ~members in
  let client = Runtime.create env (Net.add_host net ()) () in
  let answered_at = ref infinity in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         ignore
           (Runtime.call_troupe ctx troupe ~proc_no:0 ~collator:(Collator.quorum 1)
              (bytes_of "fast"));
         answered_at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "returned at %.3fs, long before the 10s member" !answered_at)
    true (!answered_at < 1.0)

(* ------------------------------------------------------------------ *)
(* Transaction-object misuse *)

let test_txn_use_after_abort_rejected () =
  let engine = Engine.create () in
  let store = Circus_txn.Lightweight.create engine in
  let observed = ref None in
  ignore
    (Fiber.spawn engine (fun () ->
         let txn = Circus_txn.Lightweight.begin_txn store in
         Circus_txn.Lightweight.set store txn "k" (Some (bytes_of "v"));
         Circus_txn.Lightweight.abort store txn;
         (try ignore (Circus_txn.Lightweight.get store txn "k")
          with e -> observed := Some e)));
  Engine.run engine;
  match !observed with
  | Some Circus_txn.Lightweight.Txn_aborted -> ()
  | Some e -> raise e
  | None -> Alcotest.fail "use after abort was allowed"

let test_txn_double_commit_rejected () =
  let engine = Engine.create () in
  let store = Circus_txn.Lightweight.create engine in
  let observed = ref None in
  ignore
    (Fiber.spawn engine (fun () ->
         let txn = Circus_txn.Lightweight.begin_txn store in
         Circus_txn.Lightweight.commit store txn;
         (try Circus_txn.Lightweight.commit store txn with e -> observed := Some e)));
  Engine.run engine;
  match !observed with
  | Some Circus_txn.Lightweight.Txn_aborted -> ()
  | Some e -> raise e
  | None -> Alcotest.fail "double commit was allowed"

(* ------------------------------------------------------------------ *)
(* Ordered broadcast release timing: a member must not release a
   message before its accepted time has arrived on the local clock
   (Figure 5.1's "time > now()" guard). *)

let test_ordered_broadcast_waits_for_accepted_time () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let env = Syscall.make net ~costs:Syscall.fast_costs () in
  (* The second member's clock runs 0.5 s behind: the accepted time
     (the max of the proposals, which the fast-clock member sets) lies
     in its future, so it must delay release until then. *)
  let delivery_times = Array.make 2 nan in
  let members =
    List.init 2 (fun i ->
        let offset = if i = 0 then 0.5 else 0.0 in
        let h = Net.add_host net ~clock_offset:offset () in
        let rt = Runtime.create env h ~port:50 () in
        let ob =
          Circus_txn.Ordered_broadcast.create h ~deliver:(fun _ ->
              delivery_times.(i) <- Engine.now engine)
        in
        let module_no = Circus_txn.Ordered_broadcast.export rt ob in
        Runtime.module_addr rt module_no)
  in
  let troupe = Troupe.make ~id:5L ~members in
  let client = Runtime.create env (Net.add_host net ()) () in
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         Circus_txn.Ordered_broadcast.atomic_broadcast ctx troupe (bytes_of "x")));
  Engine.run engine;
  Alcotest.(check bool) "both delivered" true
    (Array.for_all (fun t -> not (Float.is_nan t)) delivery_times);
  (* The slow-clock member's local time must have reached the accepted
     time: simulation time >= 0.5 (accepted time ~0.5+eps on the fast
     clock, i.e. ~0.5 later on the slow one). *)
  Alcotest.(check bool)
    (Printf.sprintf "slow-clock member delayed release (%.3f)" delivery_times.(1))
    true
    (delivery_times.(1) >= 0.45)

(* ------------------------------------------------------------------ *)
(* Configuration parser details *)

let test_config_field_groups_and_idl_names () =
  (* IDL: shared-type field groups "a, b: CARDINAL". *)
  let program =
    Circus_idl.Parser.parse
      "P: PROGRAM 1 VERSION 1 = BEGIN R: TYPE = RECORD [a, b: CARDINAL, c: STRING]; END."
  in
  match Circus_idl.Ast.types program with
  | [ (_, Circus_idl.Ast.Record fields) ] ->
    Alcotest.(check (list string)) "field names" [ "a"; "b"; "c" ]
      (List.map (fun f -> f.Circus_idl.Ast.field_name) fields)
  | _ -> Alcotest.fail "expected one record type"

let prop_prng_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Prng.shuffle (Prng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_protocol_details"
    [ ( "acks",
        [ Alcotest.test_case "implicit acks minimize traffic" `Quick
            test_implicit_acks_minimize_traffic;
          Alcotest.test_case "out-of-order recovery" `Quick test_out_of_order_ack_speeds_recovery;
          Alcotest.test_case "multicast loss recovery" `Quick test_multicast_recovers_from_loss ] );
      ( "collators",
        [ Alcotest.test_case "quorum is lazy" `Quick test_quorum_returns_before_slow_member ] );
      ( "transactions",
        [ Alcotest.test_case "use after abort" `Quick test_txn_use_after_abort_rejected;
          Alcotest.test_case "double commit" `Quick test_txn_double_commit_rejected ] );
      ( "ordered broadcast",
        [ Alcotest.test_case "waits for accepted time" `Quick
            test_ordered_broadcast_waits_for_accepted_time ] );
      ( "misc",
        [ Alcotest.test_case "idl field groups" `Quick test_config_field_groups_and_idl_names ]
        @ qcheck [ prop_prng_shuffle_is_permutation ] ) ]
