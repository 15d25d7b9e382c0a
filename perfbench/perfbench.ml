(* The repository benchmark: wall-clock cost of simulated replicated
   calls, end to end and per layer.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it runs the workload's timed repetitions for S
   seconds (and its set-up several times), checks every repetition's
   simulated outputs, and prints the end-to-end metrics.  With --trace 1
   it instead runs the layer ladder and one traced pass of the workload,
   records spans around its calls into each layer, and prints the
   per-layer metrics.  The last line of standard output is one JSON
   object; a failed check exits non-zero without printing it.  Workload,
   metric and seed documentation lives in perfbench/spec.json. *)

module Scenario = Circus_scenario.Scenario
module Causal = Circus_trace.Causal
module Trace = Circus_trace.Trace
module Event = Circus_trace.Event
open Measure

let workload_names = "calls" :: List.map (fun w -> w.Scen.name) Scen.all

(* ------------------------------------------------------------------ *)
(* End-to-end runs (tracing off) *)

let calls_e2e ~seed ~seconds =
  let calls = Calls.calls_per_rep in
  let rep () = with_heap_peak (Calls.run_rep ~seed ~n:3 ~calls) in
  (* An untimed warm-up repetition is the reference for the
     simulated-clock check. *)
  let reference, _ = rep () in
  let nreps = max 3 (int_of_float (Float.round (seconds /. Calls.nominal_s))) in
  let reps, heaps = List.split (List.init nreps (fun _ -> rep ())) in
  List.iter
    (fun r ->
      check (r.Calls.sim_end = reference.Calls.sim_end)
        "calls: final simulated clock %h differs from the warm-up repetition's %h" r.Calls.sim_end
        reference.Calls.sim_end)
    reps;
  let us =
    List.concat_map (fun r -> List.map (fun ns -> ns /. 1e3) (Array.to_list r.Calls.call_ns)) reps
  in
  let n = List.length us in
  let us_scan =
    List.concat_map
      (fun r -> List.map (fun ns -> ns /. 1e3) (Array.to_list r.Calls.call_ns_scan))
      reps
  in
  let chunk_p50s =
    List.concat_map
      (fun r ->
        List.init (calls / Calls.chunk) (fun c ->
            quantile 0.5 (Array.to_list (Array.sub r.Calls.call_ns (c * Calls.chunk) Calls.chunk))))
      reps
  in
  let over = Printf.sprintf "%d repetitions of %d calls" nreps calls in
  Printf.printf "%-34s %16d calls of %d failed\n" "failed_share" 0 n;
  ( n,
    [ metric "setup_s" "s" ~samples:nreps ~note:"testbed + warm-up calls, median repetition"
        (median (List.map (fun r -> r.Calls.setup_s) reps));
      metric "requests_per_s" "1/s" ~samples:nreps ~note:("calls per second over " ^ over)
        (Float.of_int n /. List.fold_left (fun acc r -> acc +. r.Calls.loop_s) 0.0 reps);
      metric "call_wall_p50_us" "us" ~samples:n
        ~note:
          (Printf.sprintf "per Runtime.call_troupe, median of the p50s of %d-call chunks, %s"
             Calls.chunk over)
        (median chunk_p50s /. 1e3);
      metric "call_wall_tail_us" "us" ~samples:n
        ~note:
          (Printf.sprintf "p%g per Runtime.call_troupe, table-scan kernel scale, %s"
             (100.0 *. tail_quantile n) over)
        (quantile (tail_quantile n) us_scan);
      metric "peak_heap_mb" "MB" ~samples:nreps ~note:"peak major heap, mean repetition"
        (mean heaps) ] )

let check_digest (w : Scen.t) ~expected got =
  Option.iter
    (fun want -> check (got = want) "%s: d1 report digest %s, expected %s" w.Scen.name got want)
    expected

let scenario_e2e (w : Scen.t) ~seed ~seconds ~digest =
  let seeds = List.init (Scen.sub_worlds w ~seconds) (Scen.sub_seed seed) in
  let seed0 = List.hd seeds in
  (* Untimed warm-up: sub-world 0 at one domain, the reference for the
     output checks. *)
  let reference, _ = Scen.run w ~seed:seed0 in
  Scen.check_accounting w reference;
  let ref_digest = Scen.digest w ~seed:seed0 reference in
  Printf.printf "report digest (d1, spec seed %d): %s\n" seed0 ref_digest;
  check_digest w ~expected:digest ref_digest;
  let setups = List.init 5 (fun j -> Scen.setup_wall ~seed:(Scen.sub_seed seed j) w) in
  let runs, heaps =
    List.split
      (List.map
         (fun s ->
           let (r, wall), heap = with_heap_peak (fun () -> Scen.run w ~seed:s) in
           Scen.check_accounting w r;
           ((r, wall), heap))
         seeds)
  in
  let r0, _ = List.hd runs in
  check (Scen.digest w ~seed:seed0 r0 = ref_digest) "%s: report differs across repetitions"
    w.Scen.name;
  let k = List.length runs in
  let arrivals = List.fold_left (fun acc (r, _) -> acc + r.Scenario.arrivals) 0 runs in
  let wall = List.fold_left (fun acc (_, wall) -> acc +. wall) 0.0 runs in
  let us_per_arrival =
    List.map (fun (r, wall) -> 1e6 *. wall /. Float.of_int r.Scenario.arrivals) runs
  in
  Printf.printf "%-34s %16.6g share  n=%-7d (failed + unserved) / arrivals over %d worlds\n"
    "failed_share"
    (Float.of_int
       (List.fold_left (fun acc (r, _) -> acc + r.Scenario.failed + r.Scenario.unserved) 0 runs)
    /. Float.of_int arrivals)
    arrivals k;
  let worlds = Printf.sprintf "%d worlds" k in
  let slower = List.filteri (fun i _ -> i >= k / 2) (List.sort Float.compare us_per_arrival) in
  ( arrivals,
    [ metric "setup_s" "s" ~samples:(List.length setups) ~note:"median zero-traffic run"
        (median setups);
      metric "requests_per_s" "1/s" ~samples:k
        ~note:("arrivals per second of Scenario.run, " ^ worlds)
        (Float.of_int arrivals /. wall);
      metric "call_wall_p50_us" "us" ~samples:k
        ~note:("per arrival, interquartile mean of " ^ worlds)
        (interquartile_mean us_per_arrival);
      metric "call_wall_tail_us" "us" ~samples:k
        ~note:("per arrival, mean of the slower half of " ^ worlds)
        (mean slower);
      metric "peak_heap_mb" "MB" ~samples:k ~note:("peak major heap, mean world of " ^ worlds)
        (mean heaps) ] )

(* ------------------------------------------------------------------ *)
(* Per-layer run (traced) *)

(* What the workload itself contributes to the per-layer figures. *)
type workload_layers = {
  attempted : int;
  events_per_request : float;
  ns_per_event : float;
  datagrams_per_request : float;
  drop_share : float;
  rexmits_per_request : float;
  speedup_d2 : float;
  speedup_source : string;
  mismatch_runs : int;
  traffic_wall_s : float;
  sim_s_per_wall_s : float;
  overhead_ratio : float;
  failed_share : float;
}

let count_rexmits events =
  List.length (List.filter (fun e -> e.Event.cat = Causal.cat && e.Event.name = "rexmit") events)

(* [f] with a process-wide trace sink installed and causal tracing on;
   returns its result, the recorded events and the ring's drop count. *)
let with_trace ?capacity ?cats ?quiet f =
  ignore (Trace.start ?capacity ?cats ?quiet ~clock:(fun () -> 0.0) ());
  Causal.set_enabled true;
  Causal.reset ();
  Fun.protect
    ~finally:(fun () ->
      Causal.set_enabled false;
      Trace.stop ())
    (fun () ->
      let v = f () in
      (v, Trace.events (), Trace.dropped ()))

(* The fixed 8-LP [Parallel] workload at d1 and d2, twice: the median
   speedup and how many d2 runs ran something other than d1. *)
let synthetic_parallel () =
  let pairs =
    List.init 2 (fun _ ->
        span "parallel.synthetic" (fun () ->
            let w1, d1 = Ladder.parallel_synthetic ~domains:1 in
            let w2, d2 = Ladder.parallel_synthetic ~domains:2 in
            (w1 /. w2, d1 <> d2)))
  in
  (median (List.map fst pairs), List.length (List.filter snd pairs))

let calls_layers ~seed =
  let calls = Calls.calls_per_rep / 4 in
  let requests = Float.of_int (calls + Calls.warmup_calls) in
  let rep () =
    span "calls.rep" (fun () ->
        let r = Calls.run_rep ~seed ~n:3 ~calls () in
        (r, r.Calls.setup_s +. r.Calls.loop_s))
  in
  let r, wall = rep () in
  let (_, traced_wall), _, _ = with_trace rep in
  let (r_causal, _), events, dropped =
    with_trace ~capacity:(1 lsl 18) ~cats:[ Causal.cat ] ~quiet:true rep
  in
  check (dropped = 0) "calls: the causal ring dropped %d events" dropped;
  check (r_causal.Calls.sim_end = r.Calls.sim_end) "calls: causal tracing moved simulated time";
  let speedup_d2, mismatch_runs = synthetic_parallel () in
  { attempted = 3 * calls;
    events_per_request = Float.of_int r.Calls.events /. requests;
    ns_per_event = wall *. 1e9 /. Float.of_int r.Calls.events;
    datagrams_per_request = Float.of_int r.Calls.datagrams /. requests;
    drop_share = Float.of_int r.Calls.dropped /. Float.of_int (max 1 r.Calls.datagrams);
    rexmits_per_request = Float.of_int (count_rexmits events) /. requests;
    speedup_d2;
    speedup_source = "8-LP Parallel workload";
    mismatch_runs;
    traffic_wall_s = r.Calls.loop_s;
    sim_s_per_wall_s = r.Calls.sim_end /. wall;
    overhead_ratio = traced_wall /. wall;
    failed_share = 0.0 }

(* Sub-world 0 of the workload: at d1 and d2 (the parallel figures), and
   once more with the simulator's own tracing on.  A d2 run that raises
   or reports other than d1 is counted, not fatal: that is the race of
   ROADMAP open item 1. *)
let scenario_layers (w : Scen.t) ~seed ~digest =
  let seed = Scen.sub_seed seed 0 in
  let spec = w.Scen.spec seed in
  let run ~domains name = span name (fun () -> Scen.run ~domains w ~seed) in
  let r, wall = run ~domains:1 "scenario.run.d1" in
  Scen.check_accounting w r;
  let d1 = Scen.digest w ~seed r in
  check_digest w ~expected:digest d1;
  let d2_runs =
    List.init 2 (fun _ ->
        match run ~domains:2 "scenario.run.d2" with
        | r2, wall2 ->
          Scen.check_accounting w r2;
          Some (wall2, Scen.digest w ~seed r2 = d1)
        | exception e ->
          Printf.printf "%s: a d2 run raised %s\n" w.Scen.name (Printexc.to_string e);
          None)
  in
  let d2_walls = List.filter_map (Option.map fst) d2_runs in
  let mismatches = List.length (List.filter (fun o -> Option.map snd o <> Some true) d2_runs) in
  let speedup_d2, speedup_source =
    if d2_walls = [] then
      (fst (synthetic_parallel ()), "8-LP Parallel workload (no d2 world completed)")
    else (wall /. median d2_walls, w.Scen.name ^ " world 0")
  in
  let setup_wall = span "scenario.setup" (fun () -> Scen.setup_wall ~seed w) in
  let traced, traced_wall =
    span "scenario.run.traced" (fun () -> Scen.run ~tracing:true ~causal:true w ~seed)
  in
  Scen.check_accounting w traced;
  (* The firehose ring overwrites its oldest events; count retransmits
     from a causal-only run when it did. *)
  let rexmit_events =
    if traced.Scenario.trace_dropped = 0 then traced.Scenario.trace_events
    else begin
      let causal, _ =
        span "scenario.run.causal" (fun () ->
            Scen.run ~causal:true ~trace_capacity:(1 lsl 18) w ~seed)
      in
      check (causal.Scenario.trace_dropped = 0) "%s: the causal ring dropped %d events" w.Scen.name
        causal.Scenario.trace_dropped;
      causal.Scenario.trace_events
    end
  in
  let arrivals = Float.of_int r.Scenario.arrivals in
  let events = Float.of_int r.Scenario.events_executed in
  { attempted = ((1 + List.length d2_walls) * r.Scenario.arrivals) + traced.Scenario.arrivals;
    events_per_request = events /. arrivals;
    ns_per_event = wall *. 1e9 /. events;
    datagrams_per_request = Float.of_int r.Scenario.net_sent /. arrivals;
    drop_share = Float.of_int r.Scenario.net_dropped /. Float.of_int (max 1 r.Scenario.net_sent);
    rexmits_per_request = Float.of_int (count_rexmits rexmit_events) /. arrivals;
    speedup_d2;
    speedup_source;
    mismatch_runs = mismatches;
    traffic_wall_s = wall -. setup_wall;
    sim_s_per_wall_s = (spec.Scenario.warmup +. spec.Scenario.duration) /. wall;
    overhead_ratio = traced_wall /. wall;
    failed_share = Scen.failed_share r }

let layers workload ~seed ~digest =
  let l =
    span workload (fun () ->
        match List.find_opt (fun w -> w.Scen.name = workload) Scen.all with
        | Some w -> scenario_layers w ~seed ~digest
        | None -> calls_layers ~seed)
  in
  let ladder f = span "ladder" f in
  let encode = ladder Ladder.segment_encode_ns in
  let decode = ladder Ladder.segment_decode_ns in
  let words_per_segment = ladder Ladder.minor_words_per_segment in
  let send_deliver = ladder Ladder.send_deliver_ns in
  let exchange = ladder Ladder.exchange_ns in
  let n1, _ = ladder (fun () -> Ladder.call_ns ~n:1) in
  let n3, words_per_call = ladder (fun () -> Ladder.call_ns ~n:3) in
  let b = ladder Ladder.binding in
  let place, troupes = ladder Ladder.place_ms in
  let timer_cancel = ladder Ladder.timer_cancel_ns in
  let mailbox_op = ladder Ladder.mailbox_op_ns in
  let retained =
    span "pairmsg.retained" (fun () ->
        Calls.retained_words_per_call ~seed ~calls:Calls.calls_per_rep)
  in
  (* Each rung with the rung it is built on, if any: a cached lookup and
     the solver send nothing, and an uncached lookup is a read from one
     Ringmaster member, an n=1 call. *)
  let rungs =
    [ ("wire.segment_encode_ns+decode", encode +. decode, None);
      ("net.send_deliver_ns", send_deliver, Some (encode +. decode));
      ("pairmsg.exchange_ns", exchange, Some send_deliver);
      ("rpc.call_n1_ns", n1, Some exchange);
      ("rpc.call_n3_ns", n3, Some n1);
      ("binding.lookup_cached_ns", b.Ladder.cached_ns, None);
      ("binding.lookup_uncached_ns", b.Ladder.uncached_ns, Some n1);
      ("placement.place_ns", place *. 1e6, None) ]
  in
  print_endline "ladder (reference ns/op; self = rung minus the rung it is built on):";
  List.iter
    (fun (name, ns, below) ->
      let self = ns -. Option.value below ~default:0.0 in
      Printf.printf "  %-30s %14.1f   self %14.1f\n" name ns self)
    rungs;
  (* The flagship world's set-up, with the solver's share beside it. *)
  let default_setup =
    span "scenario.default_setup" (fun () ->
        Scen.setup_wall ~seed:(Scen.sub_seed seed 0) Scen.default_world)
  in
  Printf.printf "default world set-up %.3f s; placement.place_ms %.2f x %d troupes = %.3f s of it\n"
    default_setup place troupes (place *. Float.of_int troupes /. 1e3);
  let per_request = Printf.sprintf "per %s request" workload in
  ( l.attempted,
    [ metric "sim.events_per_request" "count" ~note:per_request l.events_per_request;
      metric "sim.ns_per_event" "ns" ~note:workload l.ns_per_event;
      metric "sim.timer_cancel_ns" "ns" ~samples:Ladder.batches ~note:"schedule+cancel pair"
        timer_cancel;
      metric "sim.mailbox_op_ns" "ns" ~samples:Ladder.batches mailbox_op;
      metric "parallel.speedup_d2" "ratio" ~samples:2 ~note:("wall d1 / d2, " ^ l.speedup_source)
        l.speedup_d2;
      metric "parallel.digest_mismatch_runs" "count" ~samples:2
        ~note:"d2 runs that raised or reported unlike d1"
        (Float.of_int l.mismatch_runs);
      metric "wire.segment_encode_ns" "ns" ~samples:Ladder.batches encode;
      metric "wire.segment_decode_ns" "ns" ~samples:Ladder.batches decode;
      metric "wire.minor_words_per_segment" "words" words_per_segment;
      metric "net.send_deliver_ns" "ns" ~samples:Ladder.batches send_deliver;
      metric "net.datagrams_per_request" "count" ~note:per_request l.datagrams_per_request;
      metric "net.drop_share" "share" ~note:workload l.drop_share;
      metric "pairmsg.exchange_ns" "ns" ~samples:Ladder.batches exchange;
      metric "pairmsg.rexmits_per_request" "count" ~note:per_request l.rexmits_per_request;
      metric "pairmsg.retained_words_per_call" "words" ~samples:Calls.calls_per_rep
        ~note:"n=3 calls loop" retained;
      metric "rpc.call_n1_ns" "ns" ~samples:Ladder.batches n1;
      metric "rpc.call_n3_ns" "ns" ~samples:Ladder.batches n3;
      metric "rpc.member_marginal_ns" "ns" ~note:"(n3 - n1) / 2" ((n3 -. n1) /. 2.0);
      metric "rpc.minor_words_per_call" "words" ~note:"n=3" words_per_call;
      metric "binding.lookup_cached_ns" "ns" ~samples:Ladder.batches b.Ladder.cached_ns;
      metric "binding.lookup_uncached_ns" "ns" ~samples:Ladder.batches b.Ladder.uncached_ns;
      metric "binding.register_ms" "ms" b.Ladder.register_ms;
      metric "placement.place_ms" "ms" ~samples:troupes ~note:"default world shape, per troupe"
        place;
      metric "scenario.default_setup_s" "s" ~note:"zero-traffic Scenario.default world"
        default_setup;
      metric "scenario.traffic_wall_s" "s" ~note:workload l.traffic_wall_s;
      metric "scenario.sim_s_per_wall_s" "ratio" ~note:workload l.sim_s_per_wall_s;
      metric "scenario.failed_share" "share" ~note:(workload ^ ", d1") l.failed_share;
      metric "trace.overhead_ratio" "ratio" ~note:"traced / untraced wall" l.overhead_ratio ] )

(* ------------------------------------------------------------------ *)

let main workload seed seconds traced digest spans_path =
  Printf.printf "perfbench: workload %s, seed %d, %s\n%!" workload seed
    (if traced then "traced per-layer run" else Printf.sprintf "%.0f s timed run" seconds);
  match
    if traced then begin
      recording := true;
      let result = layers workload ~seed ~digest in
      Option.iter write_spans spans_path;
      result
    end
    else
      match List.find_opt (fun w -> w.Scen.name = workload) Scen.all with
      | Some w -> scenario_e2e w ~seed ~seconds ~digest
      | None -> calls_e2e ~seed ~seconds
  with
  | attempted, metrics ->
    Printf.printf "calibration: kernel %.2f ms mean over %d runs; times in %.0f ms-kernel seconds\n"
      (1e3 *. !kernel_total_s /. Float.of_int (max 1 !kernel_runs)) !kernel_runs
      (1e3 *. reference_kernel_s);
    print_result ~attempted metrics;
    0
  | exception Check_failed msg ->
    Printf.eprintf "perfbench: check failed: %s\n%!" msg;
    1

open Cmdliner

let cmd =
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) workload_names))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let seconds =
    Arg.(value & opt float 10.0 & info [ "seconds" ] ~docv:"S" ~doc:"Length of the timed run.")
  in
  let traced =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: the traced per-layer run instead of the timed one.")
  in
  let digest =
    Arg.(
      value
      & opt (some string) None
      & info [ "digest" ] ~docv:"MD5" ~doc:"Expected digest of the d1 scenario report.")
  in
  let spans =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans" ] ~docv:"PATH" ~doc:"Write the traced run's spans here (JSON lines).")
  in
  Cmd.v
    (Cmd.info "perfbench" ~doc:"Wall-clock benchmark of simulated replicated calls")
    Term.(const main $ workload $ seed $ seconds $ traced $ digest $ spans)

let () = exit (Cmd.eval' cmd)
