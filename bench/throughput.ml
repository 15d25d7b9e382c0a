(* Wall-clock throughput benchmarks for the simulator's hot paths.

   Unlike bench/main.exe — which regenerates the paper's *simulated*
   numbers (virtual milliseconds per call, a model that must never
   move) — this harness measures how fast the simulator itself runs:
   real events per wall-clock second.  That figure bounds how far the
   experiments can scale (bigger troupes, longer horizons, qcheck
   sweeps), so it is tracked as a first-class artifact.

   Run with: dune exec bench/throughput.exe -- [--quick] [--json PATH]
   [--baseline PATH ...]; --help lists the options and the regression
   gate they drive.

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

let main quick json_path baseline_path max_regress per_prefix_gates max_domains required
    summary_path =
  let gate_for name =
    match List.find_opt (fun (prefix, _) -> String.starts_with ~prefix name) per_prefix_gates with
    | Some (_, pct) -> pct
    | None -> max_regress
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
        let is_required = List.exists (fun prefix -> String.starts_with ~prefix r.name) required in
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

(* ------------------------------------------------------------------ *)

open Cmdliner

let path_opt name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"About 10x smaller workloads (smoke checks).")
  in
  let max_regress =
    Arg.(
      value & opt float 30.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "With $(b,--baseline), exit 1 if any bench's rate fell more than $(docv) percent \
             (the CI regression gate).")
  in
  let per_prefix_gates =
    Arg.(
      value
      & opt (list (pair ~sep:':' string float)) []
      & info [ "max-regress-for" ] ~docv:"PREFIX:PCT,..."
          ~doc:
            "Per-prefix gate overrides: the dimensionless trace_overhead_* retention rows get a \
             tight gate while wall-clock rows keep the loose one.")
  in
  let max_domains =
    Arg.(
      value & opt positive_int 4
      & info [ "domains" ] ~docv:"N"
          ~doc:"Cap the engine_parallel_d* and scenario_*_d* rows at $(docv) domains.")
  in
  let required =
    Arg.(
      value
      & opt (list string) []
      & info [ "require" ] ~docv:"PREFIX,..."
          ~doc:
            "With $(b,--baseline), also fail if a row whose name starts with one of these \
             prefixes has no baseline entry, so a renamed or dropped row cannot pass as new.")
  in
  let doc = "wall-clock throughput of the simulator's hot paths" in
  Cmd.v (Cmd.info "throughput" ~doc)
    Term.(
      const main $ quick
      $ path_opt "json" "Write the results as BENCH_throughput-style JSON."
      $ path_opt "baseline" "Compare against a previous JSON file, row by row."
      $ max_regress $ per_prefix_gates $ max_domains $ required
      $ path_opt "summary" "With $(b,--baseline), append the comparison as a markdown table.")

let () = exit (Cmd.eval cmd)
