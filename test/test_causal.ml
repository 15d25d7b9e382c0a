(* Tests for causal request tracing: context survival across
   retransmission, duplication, and crash/restart; the trace-level
   invariants; attribution determinism; and the Metrics quantile/merge
   edge cases the attribution report leans on. *)

open Circus_sim
open Circus_net
open Circus_rpc
module Trace = Circus_trace.Trace
module Event = Circus_trace.Event
module Causal = Circus_trace.Causal
module Metrics = Circus_trace.Metrics

let bytes_of = Bytes.of_string
let string_of = Bytes.to_string

type world = { engine : Engine.t; net : Net.t; env : Syscall.env }

let make_world ?params ?seed () =
  let engine = Engine.create ?seed () in
  let net = Net.create engine ?params () in
  let env = Syscall.make net () in
  { engine; net; env }

(* Run [f] with causal tracing recording into a quiet sink clocked on
   simulated time — the configuration the scenario's attribution mode
   uses.  Returns [f]'s result and the recorded events. *)
let with_causal w f =
  ignore
    (Trace.start ~cats:[ Causal.cat ] ~quiet:true ~clock:(fun () -> Engine.now w.engine) ());
  Causal.set_enabled true;
  Causal.reset ();
  Fun.protect
    ~finally:(fun () ->
      Causal.set_enabled false;
      Trace.stop ())
    (fun () ->
      let v = f () in
      (v, Trace.events ()))

(* Causal events named one of [names]. *)
let causal names (e : Event.t) = String.equal e.Event.cat Causal.cat && List.mem e.Event.name names

(* No reply precedes its call: every vote and collate follows a call
   event of the same request. *)
let reply_after_call () =
  Trace.Expect.follows ~before:(causal [ "call" ]) ~after:(causal [ "vote"; "collate" ]) ()

let echo_troupe w n =
  let members =
    List.init n (fun i ->
        let h = Net.add_host w.net ~name:(Printf.sprintf "server%d" i) () in
        let rt = Runtime.create w.env h ~port:50 () in
        let module_no =
          Runtime.export rt (fun _ctx ~proc_no:_ body -> body)
        in
        (h, rt, Runtime.module_addr rt module_no))
  in
  let troupe = Troupe.make ~id:42L ~members:(List.map (fun (_, _, a) -> a) members) in
  List.iter
    (fun (_, rt, maddr) ->
      Runtime.set_export_troupe rt ~module_no:maddr.Addr.module_no (Some 42L))
    members;
  (troupe, List.map (fun (h, _, _) -> h) members)

let client_call w troupe ?collator body =
  let h = Net.add_host w.net ~name:"client" () in
  let rt = Runtime.create w.env h () in
  let result = ref None in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         result := Some (Runtime.call_troupe ctx troupe ~proc_no:0 ?collator body)));
  Engine.run w.engine;
  match !result with Some v -> v | None -> Alcotest.fail "call never completed"

let causal_events = List.filter (fun e -> String.equal e.Event.cat Causal.cat)

let count_named name evs =
  List.length (List.filter (fun e -> String.equal e.Event.name name) (causal_events evs))

let reqs_of evs =
  List.sort_uniq compare
    (List.filter_map (fun e -> Event.int_arg e "req") (causal_events evs))

(* ------------------------------------------------------------------ *)
(* Context propagation under adverse delivery *)

let test_ctx_survives_retransmits () =
  (* A lossy link forces pairmsg retransmission; the retransmitted
     copies must carry the same request's context, and the chain must
     still close end to end. *)
  let params = { Net.default_params with loss = 0.25 } in
  let w = make_world ~params ~seed:7 () in
  let troupe, _ = echo_troupe w 1 in
  let (r, evs) = with_causal w (fun () -> client_call w troupe (bytes_of "lossy")) in
  Alcotest.(check string) "call completed" "lossy" (string_of r);
  Alcotest.(check bool) "retransmissions happened" true (count_named "rexmit" evs > 0);
  (match reqs_of evs with
  | [ _ ] -> ()
  | rs -> Alcotest.failf "expected one request id across all events, saw %d" (List.length rs));
  let a = Causal.analyze ~terminal:"collate" evs in
  Alcotest.(check int) "one complete critical path" 1 (List.length a.Causal.paths);
  Alcotest.(check int) "no truncated chains" 0 a.Causal.incomplete

let test_ctx_survives_duplication () =
  (* Every datagram duplicated: duplicate deliveries are suppressed by
     the endpoint, so each member still executes exactly once and the
     analysis still finds exactly one chain. *)
  let params = { Net.default_params with duplication = 1.0 } in
  let w = make_world ~params ~seed:11 () in
  let troupe, _ = echo_troupe w 3 in
  let (r, evs) = with_causal w (fun () -> client_call w troupe (bytes_of "dup")) in
  Alcotest.(check string) "call completed" "dup" (string_of r);
  Alcotest.(check int) "exactly one execution per member" 3 (count_named "exec_done" evs);
  let a = Causal.analyze ~terminal:"collate" evs in
  Alcotest.(check int) "one complete critical path" 1 (List.length a.Causal.paths);
  Alcotest.(check int) "no truncated chains" 0 a.Causal.incomplete;
  match Causal.Invariant.quorum_execution ~quorum:3 evs with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_ctx_survives_crash_restart () =
  (* One member crashes mid-call; the call collates from the
     survivors.  After the host restarts (incarnation bump), a second
     request through the same world mints a fresh context and closes
     its chain too. *)
  let w = make_world ~seed:13 () in
  let troupe, hosts = echo_troupe w 3 in
  let victim = List.nth hosts 2 in
  let inc0 = Host.incarnation victim in
  let (_, evs) =
    with_causal w (fun () ->
        ignore (Engine.schedule w.engine ~delay:0.0001 (fun () -> Host.crash victim));
        let r1 = client_call w troupe (bytes_of "survive") in
        Alcotest.(check string) "first call served by survivors" "survive" (string_of r1);
        Host.restart victim;
        Alcotest.(check bool) "incarnation bumped" true (Host.incarnation victim > inc0);
        let fresh, _ = echo_troupe w 2 in
        let fresh = { fresh with Troupe.id = 42L } in
        let r2 = client_call w fresh (bytes_of "again") in
        Alcotest.(check string) "post-restart call" "again" (string_of r2);
        reply_after_call ())
  in
  (match reqs_of evs with
  | [ _; _ ] -> ()
  | rs -> Alcotest.failf "expected two distinct request ids, saw %d" (List.length rs));
  let a = Causal.analyze ~terminal:"collate" evs in
  Alcotest.(check int) "both chains complete" 2 (List.length a.Causal.paths);
  Alcotest.(check int) "no truncated chains" 0 a.Causal.incomplete

(* ------------------------------------------------------------------ *)
(* Trace-level invariants and Expect.follows *)

let test_invariants_clean_call () =
  let w = make_world ~seed:3 () in
  let troupe, _ = echo_troupe w 3 in
  let (_, evs) =
    with_causal w (fun () ->
        ignore (client_call w troupe (bytes_of "q"));
        reply_after_call ();
        (* The precedence check must actually bite: every vote comes
           before the collate that counts it, so no vote follows a
           collate of its request. *)
        match Trace.Expect.follows ~before:(causal [ "collate" ]) ~after:(causal [ "vote" ]) () with
        | () -> Alcotest.fail "a vote cannot follow its collate"
        | exception Trace.Expect.Failed _ -> ())
  in
  (match Causal.Invariant.quorum_execution ~quorum:3 evs with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (* The quorum invariant must actually bite: demanding more
     executions than the troupe has members fails. *)
  match Causal.Invariant.quorum_execution ~quorum:4 evs with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "quorum 4 cannot hold with 3 members"

let test_expect_follows () =
  let w = make_world ~seed:5 () in
  let troupe, _ = echo_troupe w 2 in
  let ((), _) =
    with_causal w (fun () ->
        ignore (client_call w troupe (bytes_of "f"));
        (* Same-request ordering: every execution follows its call. *)
        Trace.Expect.follows ~before:(causal [ "call" ]) ~after:(causal [ "exec_done" ]) ();
        (* And the reverse direction must fail: no call follows a vote. *)
        match Trace.Expect.follows ~before:(causal [ "vote" ]) ~after:(causal [ "call" ]) () with
        | () -> Alcotest.fail "call cannot follow a vote"
        | exception Trace.Expect.Failed _ -> ())
  in
  ()

let test_analysis_deterministic () =
  (* Two identically-seeded worlds produce byte-identical attribution
     reports. *)
  let run () =
    let w = make_world ~seed:21 () in
    let troupe, _ = echo_troupe w 3 in
    let (_, evs) = with_causal w (fun () -> client_call w troupe (bytes_of "det")) in
    Causal.attribution_json (Causal.analyze ~terminal:"collate" evs)
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical attribution" a b

(* ------------------------------------------------------------------ *)
(* Metrics quantile/merge edge cases *)

let test_metrics_quantile_edges () =
  let m = Metrics.create () in
  Alcotest.(check (option (float 0.0))) "missing histogram" None (Metrics.quantile m "lat" 0.5);
  Metrics.observe m "lat" 0.25;
  Alcotest.(check (option (float 0.0))) "single sample p0" (Some 0.25) (Metrics.quantile m "lat" 0.0);
  Alcotest.(check (option (float 0.0))) "single sample p50" (Some 0.25) (Metrics.quantile m "lat" 0.5);
  Alcotest.(check (option (float 0.0))) "single sample p100" (Some 0.25) (Metrics.quantile m "lat" 1.0);
  Alcotest.check_raises "q out of range" (Invalid_argument "Metrics.quantile: q outside [0, 1]")
    (fun () -> ignore (Metrics.quantile m "lat" 1.5))

let test_metrics_merge_disjoint () =
  (* Two registries with disjoint value ranges; the merged histogram
     must answer exact quantiles over the union while the combined
     sample count stays within the exact cap. *)
  let a = Metrics.create () and b = Metrics.create () in
  for i = 1 to 10 do Metrics.observe a "lat" (0.001 *. float_of_int i) done;
  for i = 1 to 10 do Metrics.observe b "lat" (1.0 +. (0.001 *. float_of_int i)) done;
  Metrics.merge ~into:a b;
  (match Metrics.histogram a "lat" with
  | Some h ->
    Alcotest.(check int) "merged count" 20 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "merged min" 0.001 h.Metrics.min;
    Alcotest.(check (float 1e-9)) "merged max" 1.010 h.Metrics.max
  | None -> Alcotest.fail "merged histogram missing");
  (* Nearest rank over 20 samples: p50 -> rank 10 -> 0.010 (the top of
     the low range), p75 -> rank 15 -> 1.005. *)
  Alcotest.(check (option (float 1e-9))) "p50 exact" (Some 0.010) (Metrics.quantile a "lat" 0.5);
  Alcotest.(check (option (float 1e-9))) "p75 exact" (Some 1.005) (Metrics.quantile a "lat" 0.75)

let test_metrics_exact_cap_boundary () =
  (* Exactly 512 samples: still nearest rank over raw samples.  One
     more observation tips the histogram into bucket interpolation,
     which must stay within the grid's 1/16 relative error. *)
  let m = Metrics.create () in
  for i = 1 to 512 do Metrics.observe m "lat" (0.001 *. float_of_int i) done;
  Alcotest.(check (option (float 1e-9)))
    "512 samples: exact nearest rank" (Some 0.256) (Metrics.quantile m "lat" 0.5);
  Alcotest.(check (option (float 1e-9)))
    "512 samples: exact p100" (Some 0.512) (Metrics.quantile m "lat" 1.0);
  Metrics.observe m "lat" 0.0005;
  (match Metrics.quantile m "lat" 0.5 with
  | Some v ->
    let expected = 0.256 in
    Alcotest.(check bool)
      (Printf.sprintf "513 samples: interpolated p50 within bucket error (%.6f)" v)
      true
      (Float.abs (v -. expected) /. expected < 0.0625 +. 1e-6)
  | None -> Alcotest.fail "histogram vanished");
  match Metrics.quantile m "lat" 1.0 with
  | Some v -> Alcotest.(check (float 1e-9)) "513 samples: p100 clamps to max" 0.512 v
  | None -> Alcotest.fail "histogram vanished"

let () =
  Alcotest.run "circus_causal"
    [ ( "propagation",
        [ Alcotest.test_case "survives retransmits" `Quick test_ctx_survives_retransmits;
          Alcotest.test_case "survives duplication" `Quick test_ctx_survives_duplication;
          Alcotest.test_case "survives crash/restart" `Quick test_ctx_survives_crash_restart ] );
      ( "invariants",
        [ Alcotest.test_case "quorum + reply-after-call" `Quick test_invariants_clean_call;
          Alcotest.test_case "expect follows" `Quick test_expect_follows;
          Alcotest.test_case "deterministic analysis" `Quick test_analysis_deterministic ] );
      ( "metrics",
        [ Alcotest.test_case "quantile edges" `Quick test_metrics_quantile_edges;
          Alcotest.test_case "merge disjoint ranges" `Quick test_metrics_merge_disjoint;
          Alcotest.test_case "exact-cap boundary" `Quick test_metrics_exact_cap_boundary ] ) ]
