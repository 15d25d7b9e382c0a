(* Wall-clock throughput benchmarks for the simulator's hot paths.

   Unlike bench/main.exe — which regenerates the paper's *simulated*
   numbers (virtual milliseconds per call, a model that must never
   move) — this harness measures how fast the simulator itself runs:
   real events per wall-clock second.  That figure bounds how far the
   experiments can scale (bigger troupes, longer horizons, qcheck
   sweeps), so it is tracked as a first-class artifact.

   Usage:
     dune exec bench/throughput.exe -- [--quick] [--json PATH]
                                       [--baseline PATH] [--max-regress PCT]
                                       [--require PREFIX] [--summary PATH]

   --json PATH       write results as BENCH_throughput-style JSON
   --baseline PATH   compare against a previous JSON file; print the
                     speedup/regression per bench
   --max-regress PCT with --baseline, exit non-zero if any bench's
                     rate fell more than PCT percent (default 30) —
                     the CI regression gate
   --require PREFIXES with --baseline, also fail if a result row whose
                     name starts with any of the comma-separated
                     prefixes has no baseline entry (guards the
                     rpc_calls_n* and engine_parallel_d* rows against
                     silent renames/drops)
   --max-regress-for PREFIX:PCT[,...]  per-prefix gate overrides (the
                     trace_overhead_* retention rows are dimensionless
                     and get a tight gate; wall-clock rows keep the
                     loose one)
   --domains N       cap the engine_parallel_d* rows at N domains
                     (default 4: rows for d = 1, 2, 4)
   --summary PATH    with --baseline, append the comparison as a
                     markdown table to PATH ($GITHUB_STEP_SUMMARY)
   --quick           ~10x smaller workloads (for smoke checks)

   Any other option (in either mode) is rejected with exit code 2.

   Each bench runs three times and reports the best rate, which is the
   standard way to suppress scheduler/GC noise on shared runners. *)

open Circus_sim
open Circus_workloads

let now_s () = Unix.gettimeofday ()

type result = { name : string; ops : int; wall_s : float }

let rate r = float_of_int r.ops /. r.wall_s

(* Run [f] three times, keep the fastest. *)
let best ~name ~ops f =
  let wall = ref infinity in
  for _ = 1 to 3 do
    let t0 = now_s () in
    f ();
    let t = now_s () -. t0 in
    if t < !wall then wall := t
  done;
  (* Guard against a clock granularity of 0 on very small workloads. *)
  { name; ops; wall_s = Float.max !wall 1e-9 }

(* ------------------------------------------------------------------ *)
(* Engine: zero-delay events (the fiber wake / yield / mailbox path). *)

let bench_engine_wakes ~events =
  best ~name:"engine_wakes" ~ops:events (fun () ->
      let engine = Engine.create () in
      let remaining = ref events in
      let rec tick () =
        if !remaining > 0 then begin
          decr remaining;
          ignore (Engine.schedule engine ~delay:0.0 tick)
        end
      in
      for _ = 1 to 64 do
        ignore (Engine.schedule engine ~delay:0.0 tick)
      done;
      Engine.run engine)

(* Engine: positive pseudo-random delays (the pure timer-heap path). *)

let bench_engine_timers ~events =
  best ~name:"engine_timers" ~ops:events (fun () ->
      let engine = Engine.create () in
      let prng = Prng.create 7 in
      let remaining = ref events in
      let rec tick () =
        if !remaining > 0 then begin
          decr remaining;
          let delay = 1e-6 +. (1e-3 *. Prng.float prng) in
          ignore (Engine.schedule engine ~delay tick)
        end
      in
      for _ = 1 to 256 do
        ignore (Engine.schedule engine ~delay:(Prng.float prng) tick)
      done;
      Engine.run engine)

(* Engine: schedule-then-cancel churn (timeout-guard pattern: most
   timers are armed and then cancelled before they fire). *)

let bench_engine_cancels ~events =
  best ~name:"engine_cancels" ~ops:events (fun () ->
      let engine = Engine.create () in
      let remaining = ref events in
      let rec tick () =
        if !remaining > 0 then begin
          decr remaining;
          (* Arm a far-future "timeout", immediately cancel it, and
             continue: the cancelled event must not accumulate. *)
          let guard = Engine.schedule engine ~delay:1000.0 (fun () -> ()) in
          Engine.cancel guard;
          ignore (Engine.schedule engine ~delay:0.0 tick)
        end
      in
      for _ = 1 to 16 do
        ignore (Engine.schedule engine ~delay:0.0 tick)
      done;
      Engine.run engine)

(* Fibers: spawn + wake (sleep 0) throughput. *)

let bench_fiber_spawn_wake ~fibers ~yields =
  best ~name:"fiber_spawn_wake" ~ops:(fibers * (yields + 1)) (fun () ->
      let engine = Engine.create () in
      for _ = 1 to fibers do
        ignore
          (Fiber.spawn engine (fun () ->
               for _ = 1 to yields do
                 Fiber.yield ()
               done))
      done;
      Engine.run engine)

(* Mailbox: blocking send/recv ping-pong between two fibers. *)

let bench_mailbox ~messages =
  best ~name:"mailbox_ops" ~ops:(2 * messages) (fun () ->
      let engine = Engine.create () in
      let a : int Mailbox.t = Mailbox.create engine in
      let b : int Mailbox.t = Mailbox.create engine in
      ignore
        (Fiber.spawn engine (fun () ->
             for i = 1 to messages do
               Mailbox.send a i;
               ignore (Mailbox.recv b)
             done));
      ignore
        (Fiber.spawn engine (fun () ->
             for _ = 1 to messages do
               (match Mailbox.recv a with
               | Some v -> Mailbox.send b v
               | None -> assert false)
             done));
      Engine.run engine)

(* Mailbox: recv-with-timeout that always times out (the waiter-leak
   path: every iteration parks a waiter that must be reclaimed). *)

let bench_mailbox_timeouts ~timeouts =
  best ~name:"mailbox_timeouts" ~ops:timeouts (fun () ->
      let engine = Engine.create () in
      let mb : int Mailbox.t = Mailbox.create engine in
      ignore
        (Fiber.spawn engine (fun () ->
             for _ = 1 to timeouts do
               ignore (Mailbox.recv ~timeout:1e-6 mb)
             done));
      Engine.run engine)

(* Parallel engine: 8 LPs of dense local churn plus a cross-LP message
   every 64 events, run at a given domain count.  The same workload at
   d = 1, 2, 4 gives the scaling curve; the barrier cadence (one per
   lookahead window, ~100 events per LP per window here) is the
   realistic cost being measured, not an idealized embarrassingly
   parallel loop. *)

let bench_engine_parallel ~events ~domains =
  let lps = 8 in
  best
    ~name:(Printf.sprintf "engine_parallel_d%d" domains)
    ~ops:events
    (fun () ->
      let t = Parallel.create ~lps ~lookahead:1e-3 () in
      let per_lp = events / lps in
      for i = 0 to lps - 1 do
        let engine = Parallel.engine t i in
        let remaining = ref per_lp in
        let rec tick () =
          if !remaining > 0 then begin
            decr remaining;
            if !remaining mod 64 = 0 then
              Parallel.post t ~src:i
                ~dst:((i + 1) mod lps)
                ~at:(Engine.now engine +. 1e-3)
                (fun () -> ());
            ignore (Engine.schedule engine ~delay:1e-5 tick)
          end
        in
        ignore (Engine.schedule_abs engine ~at:0.0 tick)
      done;
      Parallel.run ~domains t)

(* Wire: datagram-style encode (segment header + payload) per op. *)

let bench_wire_encode ~encodes =
  let payload = Bytes.create 64 in
  best ~name:"wire_encode" ~ops:encodes (fun () ->
      for i = 1 to encodes do
        let seg =
          Circus_pairmsg.Segment.data_segment ~msg_type:Circus_pairmsg.Segment.Call
            ~total:1 ~seg_no:1 ~call_no:(Int32.of_int i) payload
        in
        ignore (Circus_pairmsg.Segment.encode seg)
      done)

(* Full stack: replicated procedure calls per wall-clock second at
   troupe sizes 1..5 (the Table 4.1 workload, reduced iterations). *)

let bench_rpc ~iterations ~n =
  best
    ~name:(Printf.sprintf "rpc_calls_n%d" n)
    ~ops:iterations
    (fun () -> ignore (Workloads.circus_row ~iterations ~n ()))

(* Burst path: the same replicated call with an ~11.5 KB argument so
   every call/reply is an 8-segment message — each send is one
   [Syscall.sendmsg_vec] charge span rather than eight sleep/wake
   round-trips.  Tracked separately from the 64-byte rows because the
   two stress different code: rpc_calls_n* is dominated by fixed
   per-call machinery, rpc_burst_seg8_n* by the per-segment charge
   loop. *)

let bench_rpc_burst ~iterations ~n =
  best
    ~name:(Printf.sprintf "rpc_burst_seg8_n%d" n)
    ~ops:iterations
    (fun () -> ignore (Workloads.circus_row ~iterations ~n ~payload:11_520 ()))

(* Causal-tracing overhead on the hot replicated-call path, reported
   as a machine-portable *retention ratio*: rate = 1000 x (wall with
   causal off / wall with causal on), so ~1000 means free and 950
   means 5% overhead.  Being dimensionless, the row compares cleanly
   across runner generations, which is what lets CI gate it at a tight
   percentage while the absolute-rate rows keep their loose gate. *)

module Trace = Circus_trace.Trace
module Causal = Circus_trace.Causal

let bench_trace_overhead ~iterations ~n =
  let timed ~causal =
    if causal then begin
      (* A quiet, category-filtered sink: causal events are recorded
         while the firehose instrumentation stays asleep ([Trace.on]
         reports false) — the configuration the scenario's
         attribution mode runs. *)
      ignore (Trace.start ~cats:[ Causal.cat ] ~quiet:true ~clock:(fun () -> 0.0) ());
      Causal.set_enabled true;
      Causal.reset ()
    end;
    Gc.full_major ();
    let t0 = now_s () in
    ignore (Workloads.circus_row ~iterations ~n ());
    let t = now_s () -. t0 in
    if causal then begin
      Causal.set_enabled false;
      Trace.stop ()
    end;
    t
  in
  (* The two walls of one back-to-back pair see the same machine
     phase (frequency, cache pressure, neighbours on a shared
     runner), so their quotient is far stabler than a quotient of
     independently-taken minima; the median over pairs then discards
     the odd GC-straddled outlier.  One untimed warmup pair first. *)
  ignore (timed ~causal:false);
  ignore (timed ~causal:true);
  let ratios =
    List.init 5 (fun _ ->
        let off = timed ~causal:false in
        let on = timed ~causal:true in
        on /. Float.max off 1e-9)
  in
  let sorted = List.sort Float.compare ratios in
  let median = List.nth sorted (List.length sorted / 2) in
  { name = Printf.sprintf "trace_overhead_n%d" n; ops = 1000; wall_s = Float.max median 1e-9 }

(* Scenario engine: a reduced sharded world (64 hosts, 12 replicated
   troupes, 2x2 partitioned Ringmaster, 8 shards) under open-loop
   traffic, measured end to end — world construction, registration,
   binding, replicated calls, collation.  The d = 1, 2, 4 rows give
   the scenario-level scaling curve; completed requests per wall
   second is the "heavy traffic" figure of merit. *)

module Scenario = Circus_scenario.Scenario
module Export = Circus_trace.Export

let scenario_bench_spec ~arrival ~quick =
  { Scenario.default with
    Scenario.seed = 77;
    lps = 8;
    hosts = 96;
    troupes = 12;
    replicas = 3;
    rm_partitions = 2;
    rm_replicas = 2;
    clients = 2_000;
    (* ~125 req/s offered: comfortably inside this topology's stable
       region (the retransmit/probe knee for 96 hosts sits near
       160 req/s) so the rows measure engine throughput, not
       congestion behaviour. *)
    think = 16.0;
    frontends = 4;
    pool = 8;
    warmup = 2.0;
    duration = (if quick then 0.4 else 1.0);
    arrival }

let bench_scenario ~arrival ~domains ~quick =
  let spec = scenario_bench_spec ~arrival ~quick in
  let name = Printf.sprintf "scenario_%s_d%d" (Scenario.arrival_name arrival) domains in
  (* ops (completed requests) is an output of the run — deterministic
     per seed — so derive it from the report instead of fixing it up
     front like the other benches. *)
  let wall = ref infinity and ops = ref 0 in
  for _ = 1 to 3 do
    let t0 = now_s () in
    let r = Scenario.run ~domains spec in
    let t = now_s () -. t0 in
    if t < !wall then wall := t;
    ops := r.Scenario.completed
  done;
  { name; ops = !ops; wall_s = Float.max !wall 1e-9 }

(* ------------------------------------------------------------------ *)
(* JSON out / baseline in *)

let json_of_results results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":\"circus-bench-throughput/1\",\"benches\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n{\"name\":\"%s\",\"ops\":%d,\"wall_s\":%.6f,\"rate\":%.1f}"
           r.name r.ops r.wall_s (rate r)))
    results;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* Minimal extraction of {"name":...,"rate":...} pairs from a previous
   run's JSON; avoids a JSON-library dependency.  The format is ours
   and machine-written, so a scan is sufficient. *)
let parse_baseline text =
  let find_from sub pos =
    let n = String.length text and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub text i m = sub then Some (i + m)
      else go (i + 1)
    in
    go pos
  in
  let until_char c pos =
    let stop = try String.index_from text pos c with Not_found -> String.length text in
    (String.sub text pos (stop - pos), stop)
  in
  let rec collect pos acc =
    match find_from "{\"name\":\"" pos with
    | None -> List.rev acc
    | Some p -> (
      let name, p = until_char '"' p in
      match find_from "\"rate\":" p with
      | None -> List.rev acc
      | Some p ->
        let num, p = until_char '}' p in
        let acc =
          match float_of_string_opt (String.trim num) with
          | Some r -> (name, r) :: acc
          | None -> acc
        in
        collect p acc)
  in
  collect 0 []

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)

let flag_value name argv =
  let rec scan = function
    | flag :: value :: _ when String.equal flag name -> Some value
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list argv)

(* Every option each mode reads: [values] take an argument, [switches]
   stand alone.  Any other [--]-argument is rejected, so a typo such as
   [--domian 4] fails loudly instead of silently running the default. *)
let scenario_values =
  [ "--scenario"; "--seed"; "--lps"; "--hosts"; "--troupes"; "--replicas"; "--rm-partitions";
    "--rm-replicas"; "--clients"; "--think"; "--frontends"; "--pool"; "--locality"; "--payload";
    "--warmup"; "--duration"; "--domains"; "--chaos"; "--trace-jsonl"; "--trace-chrome";
    "--trace-cap"; "--explain"; "--report-json"; "--summary" ]

let scenario_switches = [ "--no-causal" ]

let suite_values =
  [ "--json"; "--baseline"; "--max-regress"; "--max-regress-for"; "--domains"; "--require";
    "--summary" ]

let suite_switches = [ "--quick" ]

let check_flags ~values ~switches argv =
  let reject fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        exit 2)
      fmt
  in
  let rec scan = function
    | [] -> ()
    | [ flag ] when List.mem flag values -> reject "throughput: option %s needs a value" flag
    | flag :: _ :: rest when List.mem flag values -> scan rest
    | arg :: rest when List.mem arg switches || not (String.starts_with ~prefix:"--" arg) ->
      scan rest
    | arg :: _ -> reject "throughput: unknown option %s" arg
  in
  scan (List.tl (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* --scenario: run one full-size scenario and report sustained req/s,
   latency quantiles and availability.  All knobs have the
   million-client defaults (100k clients over 1000 hosts); equal seeds
   give byte-identical traces and report JSON at any --domains. *)

let scenario_main kind =
  let arrival =
    match Scenario.arrival_of_name kind with
    | Some a -> a
    | None -> failwith "--scenario expects poisson, burst or diurnal"
  in
  let int_flag name dflt =
    match flag_value name Sys.argv with
    | None -> dflt
    | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None -> failwith (name ^ " expects an integer"))
  in
  let float_flag name dflt =
    match flag_value name Sys.argv with
    | None -> dflt
    | Some s -> (
      match float_of_string_opt s with
      | Some v -> v
      | None -> failwith (name ^ " expects a number"))
  in
  let d = Scenario.default in
  let spec =
    { Scenario.seed = int_flag "--seed" d.Scenario.seed;
      lps = int_flag "--lps" d.Scenario.lps;
      hosts = int_flag "--hosts" d.Scenario.hosts;
      troupes = int_flag "--troupes" d.Scenario.troupes;
      replicas = int_flag "--replicas" d.Scenario.replicas;
      rm_partitions = int_flag "--rm-partitions" d.Scenario.rm_partitions;
      rm_replicas = int_flag "--rm-replicas" d.Scenario.rm_replicas;
      clients = int_flag "--clients" d.Scenario.clients;
      think = float_flag "--think" d.Scenario.think;
      frontends = int_flag "--frontends" d.Scenario.frontends;
      pool = int_flag "--pool" d.Scenario.pool;
      locality = float_flag "--locality" d.Scenario.locality;
      payload = int_flag "--payload" d.Scenario.payload;
      warmup = float_flag "--warmup" d.Scenario.warmup;
      duration = float_flag "--duration" d.Scenario.duration;
      arrival }
  in
  let domains = int_flag "--domains" 1 in
  let chaos =
    match flag_value "--chaos" Sys.argv with
    | None -> None
    | Some s -> (
      match int_of_string_opt s with
      | Some v -> Some v
      | None -> failwith "--chaos expects an integer seed")
  in
  let trace_path = flag_value "--trace-jsonl" Sys.argv in
  let chrome_path = flag_value "--trace-chrome" Sys.argv in
  let tracing = Option.is_some trace_path || Option.is_some chrome_path in
  let trace_capacity = int_flag "--trace-cap" 65_536 in
  let causal = not (Array.exists (( = ) "--no-causal") Sys.argv) in
  let explain = int_flag "--explain" 0 in
  Printf.printf
    "circus scenario: %s arrivals, %d clients / %d hosts / %d troupes x %d, rm %dx%d, %d \
     shards, domains %d%s\n\
     offered ~%.0f req/s for %.1fs (after %.1fs warmup)\n\
     %!"
    kind spec.Scenario.clients spec.Scenario.hosts spec.Scenario.troupes
    spec.Scenario.replicas spec.Scenario.rm_partitions spec.Scenario.rm_replicas
    spec.Scenario.lps domains
    (match chaos with Some s -> Printf.sprintf ", chaos seed %d" s | None -> "")
    (Scenario.offered_rate spec) spec.Scenario.duration spec.Scenario.warmup;
  let t0 = now_s () in
  let r = Scenario.run ~domains ?chaos ~tracing ~trace_capacity ~causal spec in
  let wall = now_s () -. t0 in
  let ms v = 1e3 *. v in
  Printf.printf "%-16s | %12s\n" "metric" "value";
  Printf.printf "%-16s | %12d\n" "arrivals" r.Scenario.arrivals;
  Printf.printf "%-16s | %12d\n" "completed" r.Scenario.completed;
  Printf.printf "%-16s | %12d\n" "failed" r.Scenario.failed;
  Printf.printf "%-16s | %12d\n" "unserved" r.Scenario.unserved;
  Printf.printf "%-16s | %12.1f\n" "sustained req/s" r.Scenario.sustained_rps;
  Printf.printf "%-16s | %12.4f\n" "availability" r.Scenario.availability;
  Printf.printf "%-16s | %9.2f ms\n" "p50 latency" (ms r.Scenario.p50);
  Printf.printf "%-16s | %9.2f ms\n" "p99 latency" (ms r.Scenario.p99);
  Printf.printf "%-16s | %9.2f ms\n" "p999 latency" (ms r.Scenario.p999);
  Printf.printf "%-16s | %9.2f ms\n" "mean latency" (ms r.Scenario.mean_latency);
  Printf.printf "%-16s | %12d\n" "chaos steps" r.Scenario.chaos_steps;
  Printf.printf "%-16s | %12d\n" "sim events" r.Scenario.events_executed;
  Printf.printf "%-16s | %12d\n" "net datagrams" r.Scenario.net_sent;
  Printf.printf "%-16s | %12.2f\n" "wall (s)" wall;
  Printf.printf "%-16s | %12.0f\n" "sim events/s" (Float.of_int r.Scenario.events_executed /. wall);
  (match r.Scenario.causal with
  | None -> ()
  | Some a ->
    Printf.printf "\ncritical-path attribution (%d requests, %d incomplete chains, %d dropped events)\n"
      (List.length a.Causal.paths) a.Causal.incomplete r.Scenario.trace_dropped;
    Printf.printf "%-16s | %13s | %10s | %10s\n" "stage" "p50 comp (ms)" "p50 (ms)" "p99 (ms)";
    let comps = Causal.stage_components a 0.5 in
    Array.iteri
      (fun i st ->
        Printf.printf "%-16s | %13.3f | %10.3f | %10.3f\n" st (ms comps.(i))
          (ms (Causal.stage_quantile a ~stage:i 0.5))
          (ms (Causal.stage_quantile a ~stage:i 0.99)))
      Causal.stage_names;
    Printf.printf "%-16s | %13.3f | %10.3f | %10.3f   (component sum vs p50: %+.1f%%)\n"
      "end-to-end"
      (ms (Array.fold_left ( +. ) 0.0 comps))
      (ms (Causal.total_quantile a 0.5))
      (ms (Causal.total_quantile a 0.99))
      (let p50 = Causal.total_quantile a 0.5 in
       if p50 > 0.0 then 100.0 *. ((Array.fold_left ( +. ) 0.0 comps /. p50) -. 1.0) else 0.0);
    if explain > 0 then begin
      Printf.printf "\nslowest %d requests, stage waterfalls:\n" explain;
      print_string (Causal.waterfall ~top:explain a)
    end);
  (match trace_path with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc
      (Export.jsonl_events ~dropped:r.Scenario.trace_dropped r.Scenario.trace_events);
    close_out oc;
    Printf.printf "wrote %s (%d events, %d dropped)\n" path
      (List.length r.Scenario.trace_events)
      r.Scenario.trace_dropped);
  (match chrome_path with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc
      (Export.chrome_events ~dropped:r.Scenario.trace_dropped r.Scenario.trace_events);
    close_out oc;
    Printf.printf "wrote %s (Perfetto: ui.perfetto.dev)\n" path);
  (match flag_value "--report-json" Sys.argv with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (Scenario.report_json spec r);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" path);
  match flag_value "--summary" Sys.argv with
  | None -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Printf.fprintf oc
      "### Scenario (%s, %d clients / %d hosts, domains %d)\n\n\
       | req/s | p50 | p99 | p999 | availability | wall |\n\
       |---:|---:|---:|---:|---:|---:|\n\
       | %.1f | %.2f ms | %.2f ms | %.2f ms | %.4f | %.2f s |\n\n"
      kind spec.Scenario.clients spec.Scenario.hosts domains r.Scenario.sustained_rps
      (ms r.Scenario.p50) (ms r.Scenario.p99) (ms r.Scenario.p999) r.Scenario.availability
      wall;
    close_out oc

let main () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let json_path = flag_value "--json" Sys.argv in
  let baseline_path = flag_value "--baseline" Sys.argv in
  let max_regress =
    match flag_value "--max-regress" Sys.argv with
    | Some s -> (
      match float_of_string_opt s with
      | Some v -> v
      | None -> failwith "--max-regress expects a number (percent)")
    | None -> 30.0
  in
  (* Per-prefix gate overrides, e.g. --max-regress-for trace_overhead_:5
     pins the dimensionless overhead row to a tight gate while the
     wall-clock rows keep the loose runner-noise one. *)
  let per_prefix_gates =
    match flag_value "--max-regress-for" Sys.argv with
    | None -> []
    | Some s ->
      List.map
        (fun item ->
          match String.index_opt item ':' with
          | Some i -> (
            let prefix = String.sub item 0 i in
            match
              float_of_string_opt (String.sub item (i + 1) (String.length item - i - 1))
            with
            | Some pct -> (prefix, pct)
            | None -> failwith "--max-regress-for expects PREFIX:PCT[,PREFIX:PCT...]")
          | None -> failwith "--max-regress-for expects PREFIX:PCT[,PREFIX:PCT...]")
        (String.split_on_char ',' s)
  in
  let starts_with prefix name =
    String.length name >= String.length prefix
    && String.sub name 0 (String.length prefix) = prefix
  in
  let gate_for name =
    match List.find_opt (fun (p, _) -> starts_with p name) per_prefix_gates with
    | Some (_, pct) -> pct
    | None -> max_regress
  in
  let max_domains =
    match flag_value "--domains" Sys.argv with
    | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= 1 -> v
      | _ -> failwith "--domains expects a positive integer")
    | None -> 4
  in
  let scale n = if quick then max 1 (n / 10) else n in
  Printf.printf "circus wall-clock throughput benchmarks%s\n%!"
    (if quick then " (quick)" else "");
  let results =
    [ bench_engine_wakes ~events:(scale 1_000_000);
      bench_engine_timers ~events:(scale 1_000_000);
      bench_engine_cancels ~events:(scale 400_000);
      bench_fiber_spawn_wake ~fibers:(scale 40_000) ~yields:4;
      bench_mailbox ~messages:(scale 200_000);
      bench_mailbox_timeouts ~timeouts:(scale 100_000);
      bench_wire_encode ~encodes:(scale 1_000_000) ]
    @ List.filter_map
        (fun d ->
          if d <= max_domains then Some (bench_engine_parallel ~events:(scale 400_000) ~domains:d)
          else None)
        [ 1; 2; 4 ]
    @ List.map (fun n -> bench_rpc ~iterations:(scale 300) ~n) [ 1; 2; 3; 4; 5 ]
    @ List.map (fun n -> bench_rpc_burst ~iterations:(scale 150) ~n) [ 1; 3 ]
    (* More iterations than the rpc rows: the row is a ratio of two
       walls, and at 300 calls the ~3 ms sides leave the quotient too
       noisy for its tight CI gate. *)
    @ [ bench_trace_overhead ~iterations:(scale 3000) ~n:1 ]
    @ List.concat_map
        (fun d ->
          if d <= max_domains then
            [ bench_scenario ~arrival:Scenario.Poisson ~domains:d ~quick;
              bench_scenario ~arrival:Scenario.Burst ~domains:d ~quick ]
          else [])
        [ 1; 2; 4 ]
  in
  Printf.printf "%-20s | %12s | %10s | %14s\n" "bench" "ops" "wall (s)" "rate (ops/s)";
  List.iter
    (fun r ->
      Printf.printf "%-20s | %12d | %10.4f | %14.0f\n" r.name r.ops r.wall_s (rate r))
    results;
  (match json_path with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (json_of_results results);
    close_out oc;
    Printf.printf "\nwrote %s\n" path);
  match baseline_path with
  | None -> ()
  | Some path ->
    let base = parse_baseline (read_file path) in
    (* Rows matching --require (a name prefix, e.g. "rpc_calls_") must
       be present in the baseline: a rename or a dropped row would
       otherwise slip past the gate as "new". *)
    let required = flag_value "--require" Sys.argv in
    let summary_path = flag_value "--summary" Sys.argv in
    Printf.printf "\ncomparison vs %s (gate: -%.0f%%)\n" path max_regress;
    Printf.printf "%-20s | %14s | %14s | %9s\n" "bench" "baseline" "now" "change";
    let summary = Buffer.create 512 in
    Buffer.add_string summary
      (Printf.sprintf "### Throughput vs committed baseline (gate: -%.0f%%)\n\n" max_regress);
    Buffer.add_string summary
      "| bench | baseline (ops/s) | now (ops/s) | change |\n|---|---:|---:|---:|\n";
    let worst = ref 0.0 in
    let missing_required = ref [] in
    let violations = ref [] in
    List.iter
      (fun r ->
        let is_required =
          match required with
          | Some prefixes ->
            List.exists (fun prefix -> starts_with prefix r.name)
              (String.split_on_char ',' prefixes)
          | None -> false
        in
        match List.assoc_opt r.name base with
        | None ->
          if is_required then missing_required := r.name :: !missing_required;
          Printf.printf "%-20s | %14s | %14.0f | %9s\n" r.name "-" (rate r) "new";
          Buffer.add_string summary
            (Printf.sprintf "| %s | - | %.0f | new |\n" r.name (rate r))
        | Some b when b <= 0.0 -> ()
        | Some b ->
          let change = 100.0 *. ((rate r /. b) -. 1.0) in
          if -.change > !worst then worst := -.change;
          if -.change > gate_for r.name then
            violations := (r.name, -.change, gate_for r.name) :: !violations;
          Printf.printf "%-20s | %14.0f | %14.0f | %+8.1f%%\n" r.name b (rate r) change;
          Buffer.add_string summary
            (Printf.sprintf "| %s | %.0f | %.0f | %+.1f%% |\n" r.name b (rate r) change))
      results;
    let failed = !violations <> [] || !missing_required <> [] in
    let verdict =
      if !missing_required <> [] then
        Printf.sprintf "FAIL: required rows missing from baseline: %s"
          (String.concat ", " (List.rev !missing_required))
      else if failed then
        Printf.sprintf "FAIL: %s"
          (String.concat "; "
             (List.rev_map
                (fun (name, drop, gate) ->
                  Printf.sprintf "%s fell %.1f%% (gate %.1f%%)" name drop gate)
                !violations))
      else Printf.sprintf "OK: worst regression %.1f%% within the gates" !worst
    in
    Buffer.add_string summary (Printf.sprintf "\n**%s**\n" verdict);
    (match summary_path with
    | None -> ()
    | Some p ->
      (* Append: $GITHUB_STEP_SUMMARY accumulates across steps. *)
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 p in
      output_string oc (Buffer.contents summary);
      close_out oc);
    Printf.printf "\n%s\n" verdict;
    if failed then exit 1

let () =
  match flag_value "--scenario" Sys.argv with
  | Some kind ->
    check_flags ~values:scenario_values ~switches:scenario_switches Sys.argv;
    scenario_main kind
  | None ->
    check_flags ~values:suite_values ~switches:suite_switches Sys.argv;
    main ()
