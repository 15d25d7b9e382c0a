(* Tests for the trace/metrics subsystem: ring-buffer overflow policy,
   the metrics registry, span nesting, exporter golden output, the
   Expect protocol assertions, and the CI regression oracle — equal
   seeds produce byte-identical exported traces. *)

open Circus_sim
open Circus_net
open Circus
module Ring = Circus_trace.Ring
module Metrics = Circus_trace.Metrics
module Trace = Circus_trace.Trace
module Event = Circus_trace.Event
module Export = Circus_trace.Export
module Causal = Circus_trace.Causal
module Codec = Circus_wire.Codec

(* Every test that installs a sink must remove it, or it leaks into the
   next test in this binary. *)
let with_manual_sink ?(capacity = 64) f =
  let now = ref 0.0 in
  let sink = Trace.start ~capacity ~clock:(fun () -> !now) () in
  Fun.protect ~finally:Trace.stop (fun () -> f sink now)

let expect_failed f =
  match f () with
  | () -> Alcotest.fail "expected Trace.Expect.Failed"
  | exception Trace.Expect.Failed _ -> ()

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

let test_ring_overflow () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check int) "length" 4 (Ring.length r);
  Alcotest.(check int) "dropped" 3 (Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 4; 5; 6; 7 ] (Ring.to_list r)

let test_ring_clear () =
  let r = Ring.create ~capacity:2 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Ring.clear r;
  Alcotest.(check int) "length" 0 (Ring.length r);
  Alcotest.(check int) "dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
  Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Ring.to_list r)

let test_ring_bad_capacity () =
  Alcotest.check_raises "zero" (Invalid_argument "Ring.create: capacity must be positive")
    (fun () -> ignore (Ring.create ~capacity:0))

let test_sink_overflow_policy () =
  with_manual_sink ~capacity:3 (fun sink _now ->
      for i = 1 to 5 do
        Trace.emit ~cat:"t" ~args:[ ("i", Event.Int i) ] "e"
      done;
      Alcotest.(check int) "dropped" 2 (Trace.sink_dropped sink);
      let kept = List.filter_map (fun e -> Event.int_arg e "i") (Trace.sink_events sink) in
      Alcotest.(check (list int)) "newest survive" [ 3; 4; 5 ] kept;
      (* Sequence numbers keep counting across overwrites, so truncation
         is visible in the exported stream. *)
      let seqs = List.map (fun e -> e.Event.seq) (Trace.sink_events sink) in
      Alcotest.(check (list int)) "seqs" [ 2; 3; 4 ] seqs)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "b";
  Metrics.incr ~by:3 m "a";
  Metrics.incr m "b";
  Alcotest.(check int) "a" 3 (Metrics.counter m "a");
  Alcotest.(check int) "b" 2 (Metrics.counter m "b");
  Alcotest.(check int) "absent" 0 (Metrics.counter m "zzz");
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 3); ("b", 2) ] (Metrics.counters m)

let test_metrics_histogram () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat") [ 1.0; 3.0; 2.0 ];
  match Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 3 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 6.0 h.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 1.0 h.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 3.0 h.Metrics.max;
    Alcotest.(check (float 1e-9)) "mean" 2.0 h.Metrics.mean

let test_metrics_quantile_exact () =
  let m = Metrics.create () in
  (* Below the exact-sample cap: nearest-rank over raw samples. *)
  List.iter (Metrics.observe m "lat") [ 0.9; 0.1; 0.5; 0.3; 0.7 ];
  let q p = Option.get (Metrics.quantile m "lat" p) in
  Alcotest.(check (float 1e-9)) "p0" 0.1 (q 0.0);
  Alcotest.(check (float 1e-9)) "p50" 0.5 (q 0.5);
  Alcotest.(check (float 1e-9)) "p100" 0.9 (q 1.0);
  Alcotest.(check bool) "missing" true (Metrics.quantile m "zzz" 0.5 = None);
  Alcotest.check_raises "bad q" (Invalid_argument "Metrics.quantile: q outside [0, 1]")
    (fun () -> ignore (Metrics.quantile m "lat" 1.5))

let test_metrics_quantile_bucketed () =
  let m = Metrics.create () in
  (* Push past the exact-sample cap so quantiles come from the log
     buckets; the bucket error bound is < 1/16 relative. *)
  for i = 1 to 2000 do
    Metrics.observe m "lat" (1e-3 *. Float.of_int i)
  done;
  let check p expect =
    let v = Option.get (Metrics.quantile m "lat" p) in
    let err = Float.abs (v -. expect) /. expect in
    if err > 1.0 /. 16.0 then
      Alcotest.failf "q%.3f: %.6f vs expected %.6f (err %.3f)" p v expect err
  in
  check 0.5 1.0;
  check 0.99 1.98;
  check 0.999 1.998

let test_metrics_merge () =
  let shard vals counters =
    let m = Metrics.create () in
    List.iter (Metrics.observe m "lat") vals;
    List.iter (fun (n, k) -> Metrics.incr ~by:k m n) counters;
    m
  in
  let a () = shard [ 0.1; 0.4 ] [ ("ok", 2) ] in
  let b () = shard [ 0.2; 0.8 ] [ ("ok", 3); ("err", 1) ] in
  let into = a () in
  Metrics.merge ~into (b ());
  Alcotest.(check int) "counters add" 5 (Metrics.counter into "ok");
  Alcotest.(check int) "new counter" 1 (Metrics.counter into "err");
  (match Metrics.histogram into "lat" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 4 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "min" 0.1 h.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 0.8 h.Metrics.max);
  (* Nearest rank over the merged [0.1; 0.2; 0.4; 0.8]: rank ceil(0.5 * 4) = 2. *)
  Alcotest.(check (float 1e-9)) "exact quantile after merge" 0.2
    (Option.get (Metrics.quantile into "lat" 0.5));
  Alcotest.(check (float 1e-9)) "exact p75 after merge" 0.4
    (Option.get (Metrics.quantile into "lat" 0.75));
  (* Merging per-shard registries in a fixed order is deterministic. *)
  let m1 = a () in
  Metrics.merge ~into:m1 (b ());
  let m2 = a () in
  Metrics.merge ~into:m2 (b ());
  Alcotest.(check string) "deterministic" (Metrics.to_json m1) (Metrics.to_json m2)

let test_metrics_json_deterministic () =
  let build order =
    let m = Metrics.create () in
    List.iter (fun n -> Metrics.incr m n) order;
    List.iter (fun n -> Metrics.observe m n 0.5) (List.rev order);
    Metrics.to_json m
  in
  Alcotest.(check string) "order independent"
    (build [ "x"; "a"; "m" ])
    (build [ "m"; "x"; "a" ])

(* ------------------------------------------------------------------ *)
(* Recorder and spans *)

let test_disabled_is_silent () =
  Trace.stop ();
  Alcotest.(check bool) "off" false (Trace.on ());
  Trace.emit ~cat:"t" "ignored";
  Trace.incr "ignored";
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
  Alcotest.(check int) "no dropped" 0 (Trace.dropped ())

(* [on ()] answers for loud sinks only.  A quiet causal sink leaves it
   false, so the guarded firehose sites stay asleep, while direct
   causal emits still record.  Each install and removal keeps the
   loud-sink count that gates [on ()] in step: after every transition
   [on ()] must say whether the installed sink is loud. *)
let test_on_gate () =
  Trace.stop ();
  let quiet = Trace.start ~cats:[ Causal.cat ] ~quiet:true ~clock:(fun () -> 0.0) () in
  Fun.protect ~finally:Trace.stop (fun () ->
      Alcotest.(check bool) "quiet sink: off" false (Trace.on ());
      ignore (Causal.root ~host:0 "call");
      Trace.emit ~cat:"fiber" "filtered";
      Alcotest.(check int) "causal event recorded" 1 (List.length (Trace.sink_events quiet));
      let loud = Trace.start ~clock:(fun () -> 0.0) () in
      let expect label on = Alcotest.(check bool) label on (Trace.on ()) in
      expect "start: on" true;
      Trace.use (Some loud);
      expect "loud replaces itself: on" true;
      Trace.use (Some quiet);
      expect "quiet replaces loud: off" false;
      Trace.use (Some loud);
      expect "loud replaces quiet: on" true;
      Trace.stop ();
      expect "stop: off" false;
      ignore (Trace.start ~clock:(fun () -> 0.0) ());
      expect "start again: on" true);
  Alcotest.(check bool) "stopped: off" false (Trace.on ())

let test_emit_records_clock_and_seq () =
  with_manual_sink (fun sink now ->
      now := 1.5;
      Trace.emit ~cat:"a" ~host:2 ~fiber:7 "first";
      now := 2.5;
      Trace.emit ~cat:"a" "second";
      match Trace.sink_events sink with
      | [ e1; e2 ] ->
        Alcotest.(check int) "seq0" 0 e1.Event.seq;
        Alcotest.(check int) "seq1" 1 e2.Event.seq;
        Alcotest.(check (float 0.0)) "t0" 1.5 e1.Event.time;
        Alcotest.(check (float 0.0)) "t1" 2.5 e2.Event.time;
        Alcotest.(check int) "host" 2 e1.Event.host;
        Alcotest.(check int) "fiber" 7 e1.Event.fiber;
        Alcotest.(check int) "default host" (-1) e2.Event.host
      | es -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length es)))

let test_span_nesting () =
  with_manual_sink (fun _sink _now ->
      Trace.span ~host:0 ~fiber:1 ~cat:"t" "outer" (fun () ->
          Trace.span ~host:0 ~fiber:1 ~cat:"t" "inner" (fun () -> ()));
      (* Interleaved scopes: fine, nesting is per (host, fiber). *)
      Trace.span_begin ~host:0 ~fiber:2 ~cat:"t" "a";
      Trace.span_begin ~host:0 ~fiber:3 ~cat:"t" "b";
      Trace.span_end ~host:0 ~fiber:2 ~cat:"t" "a";
      Trace.span_end ~host:0 ~fiber:3 ~cat:"t" "b";
      Trace.Expect.well_nested ())

let test_span_exception_still_nested () =
  with_manual_sink (fun sink _now ->
      (try Trace.span ~host:1 ~fiber:1 ~cat:"t" "risky" (fun () -> failwith "boom")
       with Failure _ -> ());
      Trace.Expect.well_nested ();
      let last = List.nth (Trace.sink_events sink) 1 in
      Alcotest.(check bool) "raised flag" true
        (match Event.arg last "raised" with Some (Event.Bool b) -> b | _ -> false))

let test_bad_nesting_detected () =
  with_manual_sink (fun _sink _now ->
      Trace.span_begin ~host:0 ~fiber:1 ~cat:"t" "a";
      Trace.span_end ~host:0 ~fiber:1 ~cat:"t" "b";
      expect_failed Trace.Expect.well_nested);
  with_manual_sink (fun _sink _now ->
      Trace.span_begin ~host:0 ~fiber:1 ~cat:"t" "open";
      expect_failed Trace.Expect.well_nested)

let test_expect_filters () =
  with_manual_sink (fun _sink _now ->
      Trace.emit ~cat:"net" ~args:[ ("len", Event.Int 10) ] "send";
      Trace.emit ~cat:"net" ~args:[ ("len", Event.Int 99) ] "send";
      Trace.emit ~cat:"net" "deliver";
      Trace.Expect.count ~cat:"net" ~name:"send" 2;
      Trace.Expect.at_least ~cat:"net" 3;
      Trace.Expect.none ~cat:"net" ~name:"drop" ();
      Trace.Expect.count ~cat:"net" ~name:"send"
        ~where:(fun e -> Event.int_arg e "len" = Some 99)
        1;
      Trace.Expect.ordered
        ~before:(fun e -> String.equal e.Event.name "send")
        ~after:(fun e -> String.equal e.Event.name "deliver")
        ();
      expect_failed (fun () -> Trace.Expect.count ~cat:"net" ~name:"send" 3);
      expect_failed (fun () -> Trace.Expect.none ~cat:"net" ~name:"deliver" ());
      expect_failed (fun () ->
          Trace.Expect.ordered
            ~before:(fun e -> String.equal e.Event.name "deliver")
            ~after:(fun e -> String.equal e.Event.name "send")
            ()))

(* ------------------------------------------------------------------ *)
(* Exporters: golden strings over a hand-built stream *)

let golden_events now =
  now := 0.5;
  Trace.emit ~cat:"net" ~host:1 ~fiber:2
    ~args:[ ("len", Event.Int 3); ("tag", Event.Str "a\"b") ]
    "send";
  now := 2.0;
  Trace.emit ~phase:(Event.Complete 0.25) ~cat:"syscall" ~host:0 "sendmsg"

let test_jsonl_golden () =
  with_manual_sink (fun sink now ->
      golden_events now;
      Alcotest.(check string) "jsonl"
        ("{\"seq\":0,\"t\":0.5,\"ph\":\"i\",\"cat\":\"net\",\"name\":\"send\",\"host\":1,\"fiber\":2,"
       ^ "\"args\":{\"len\":3,\"tag\":\"a\\\"b\"}}\n"
       ^ "{\"seq\":1,\"t\":2.0,\"ph\":\"X\",\"dur\":0.25,\"cat\":\"syscall\",\"name\":\"sendmsg\","
       ^ "\"host\":0,\"fiber\":-1}\n")
        (Export.jsonl sink))

let test_chrome_golden () =
  with_manual_sink (fun sink now ->
      golden_events now;
      Alcotest.(check string) "chrome"
        ("{\"traceEvents\":[\n"
       ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"host0\"}},\n"
       ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"host1\"}},\n"
       ^ "{\"name\":\"send\",\"cat\":\"net\",\"ph\":\"i\",\"ts\":500000.0,\"s\":\"t\",\"pid\":1,\"tid\":2,"
       ^ "\"args\":{\"seq\":0,\"len\":3,\"tag\":\"a\\\"b\"}},\n"
       ^ "{\"name\":\"sendmsg\",\"cat\":\"syscall\",\"ph\":\"X\",\"ts\":2000000.0,\"dur\":250000.0,"
       ^ "\"pid\":0,\"tid\":0,\"args\":{\"seq\":1}}\n"
       ^ "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":0}}\n")
        (Export.chrome sink))

let test_float_repr () =
  Alcotest.(check string) "integer" "2.0" (Event.float_repr 2.0);
  Alcotest.(check string) "fraction" "0.00125" (Event.float_repr 0.00125);
  Alcotest.(check string) "negative" "-1.5" (Event.float_repr (-1.5))

(* ------------------------------------------------------------------ *)
(* Protocol-level assertions over real simulation runs *)

let test_partition_blocks_delivery () =
  let engine = Engine.create ~seed:11 () in
  let sink = Engine.enable_tracing engine in
  Fun.protect ~finally:Trace.stop (fun () ->
      let net = Net.create engine () in
      let a = Net.add_host net ~name:"a" () in
      let b = Net.add_host net ~name:"b" () in
      let sa = Net.udp_bind net a ~port:100 () in
      let sb = Net.udp_bind net b ~port:200 () in
      Net.set_partition net [ [ Host.id a ]; [ Host.id b ] ];
      ignore
        (Host.spawn a (fun () ->
             Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb)
               (Bytes.of_string "x")));
      Engine.run engine;
      Trace.Expect.at_least ~cat:"net" ~name:"send" 1;
      Trace.Expect.none ~cat:"net" ~name:"deliver" ();
      Trace.Expect.at_least ~cat:"net" ~name:"drop" 1;
      ignore sink)

let test_delivery_after_send () =
  let engine = Engine.create ~seed:12 () in
  ignore (Engine.enable_tracing engine);
  Fun.protect ~finally:Trace.stop (fun () ->
      let net = Net.create engine () in
      let a = Net.add_host net ~name:"a" () in
      let b = Net.add_host net ~name:"b" () in
      let sa = Net.udp_bind net a ~port:100 () in
      let sb = Net.udp_bind net b ~port:200 () in
      ignore (Host.spawn b (fun () -> ignore (Mailbox.recv ~timeout:10.0 (Net.mailbox sb))));
      ignore
        (Host.spawn a (fun () ->
             Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb)
               (Bytes.of_string "hi")));
      Engine.run engine;
      Trace.Expect.count ~cat:"net" ~name:"deliver" 1;
      Trace.Expect.ordered
        ~before:(fun e -> String.equal e.Event.cat "net" && String.equal e.Event.name "send")
        ~after:(fun e -> String.equal e.Event.cat "net" && String.equal e.Event.name "deliver")
        ();
      Trace.Expect.well_nested ())

(* ------------------------------------------------------------------ *)
(* The regression oracle: equal seeds, byte-identical exports *)

let put = Interface.proc ~proc_no:0 ~name:"put" (Codec.pair Codec.string Codec.string) Codec.unit
let get = Interface.proc ~proc_no:1 ~name:"get" Codec.string (Codec.option Codec.string)
let state_codec = Codec.list (Codec.pair Codec.string Codec.string)

(* A miniature quickstart: a 2-member replicated kv troupe and one
   client, traced end to end. *)
let run_traced_workload ~seed =
  let sys = System.create ~seed () in
  let sink = System.enable_tracing ~capacity:100_000 sys in
  Fun.protect ~finally:Trace.stop (fun () ->
      List.iter
        (fun i ->
          let p = System.process sys ~name:(Printf.sprintf "kv%d" i) () in
          let table : (string, string) Hashtbl.t = Hashtbl.create 8 in
          let handlers =
            [ Interface.handle put (fun _ctx (k, v) -> Hashtbl.replace table k v);
              Interface.handle get (fun _ctx k -> Hashtbl.find_opt table k) ]
          in
          let state =
            ( (fun () ->
                Codec.encode state_codec
                  (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []))),
              fun bytes ->
                Hashtbl.reset table;
                List.iter (fun (k, v) -> Hashtbl.replace table k v)
                  (Codec.decode state_codec bytes) )
          in
          ignore
            (System.spawn p (fun ctx ->
                 ignore (Service.serve p ctx ~name:"kv" ~state handlers))))
        [ 0; 1 ];
      let client = System.process sys ~name:"client" () in
      let read_back = ref None in
      ignore
        (System.spawn client (fun ctx ->
             Fiber.sleep 0.5;
             Service.call client ctx ~service:"kv" put ("k", "v");
             read_back := Service.call client ctx ~service:"kv" get "k"));
      System.run sys;
      Alcotest.(check (option string)) "workload result" (Some "v") !read_back;
      (Export.jsonl sink, Export.chrome sink, Trace.sink_dropped sink))

let test_same_seed_same_bytes () =
  let jsonl1, chrome1, dropped1 = run_traced_workload ~seed:2026 in
  let jsonl2, chrome2, dropped2 = run_traced_workload ~seed:2026 in
  Alcotest.(check int) "nothing dropped" 0 dropped1;
  Alcotest.(check bool) "non-trivial trace" true (String.length jsonl1 > 1000);
  Alcotest.(check int) "dropped agree" dropped1 dropped2;
  Alcotest.(check string) "jsonl identical" jsonl1 jsonl2;
  Alcotest.(check string) "chrome identical" chrome1 chrome2

let test_different_seed_different_bytes () =
  let jsonl1, _, _ = run_traced_workload ~seed:1 in
  let jsonl2, _, _ = run_traced_workload ~seed:2 in
  Alcotest.(check bool) "streams differ" false (String.equal jsonl1 jsonl2)

let prop_equal_seeds_identical_traces =
  QCheck.Test.make ~name:"equal seeds yield byte-identical traces" ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let jsonl1, chrome1, _ = run_traced_workload ~seed in
      let jsonl2, chrome2, _ = run_traced_workload ~seed in
      String.equal jsonl1 jsonl2 && String.equal chrome1 chrome2)

(* ------------------------------------------------------------------ *)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_trace"
    [ ( "ring",
        [ Alcotest.test_case "overflow overwrites oldest" `Quick test_ring_overflow;
          Alcotest.test_case "clear" `Quick test_ring_clear;
          Alcotest.test_case "bad capacity" `Quick test_ring_bad_capacity;
          Alcotest.test_case "sink overflow policy" `Quick test_sink_overflow_policy ] );
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "quantile exact" `Quick test_metrics_quantile_exact;
          Alcotest.test_case "quantile bucketed" `Quick test_metrics_quantile_bucketed;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "json deterministic" `Quick test_metrics_json_deterministic ] );
      ( "recorder",
        [ Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
          Alcotest.test_case "on gate" `Quick test_on_gate;
          Alcotest.test_case "clock and seq" `Quick test_emit_records_clock_and_seq;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception" `Quick test_span_exception_still_nested;
          Alcotest.test_case "bad nesting detected" `Quick test_bad_nesting_detected;
          Alcotest.test_case "expect filters" `Quick test_expect_filters ] );
      ( "export",
        [ Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "float repr" `Quick test_float_repr ] );
      ( "protocols",
        [ Alcotest.test_case "partition blocks delivery" `Quick test_partition_blocks_delivery;
          Alcotest.test_case "delivery after send" `Quick test_delivery_after_send ] );
      ( "determinism",
        [ Alcotest.test_case "same seed same bytes" `Quick test_same_seed_same_bytes;
          Alcotest.test_case "different seeds differ" `Quick test_different_seed_different_bytes ]
        @ qcheck [ prop_equal_seeds_identical_traces ] ) ]
