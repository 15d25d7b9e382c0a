(* Wall-clock throughput rows that the repository benchmark
   (perfbench/, BENCHMARK.json) has no counterpart for: the parallel
   engine at one and two domains, multi-segment troupe calls, and the
   cost of the quiet attribution sink.

   Unlike bench/main.exe — which regenerates the paper's *simulated*
   numbers (virtual milliseconds per call, a model that must never
   move) — this harness measures how fast the simulator itself runs.
   The rates are only comparable within one machine: bench/ab_gate.py
   runs this executable in the parent tree and in the change, in
   alternating pairs, and compares the two.

   Run with: dune exec bench/throughput.exe
   It prints a table, then the rows as one JSON line, last. *)

open Circus_sim
open Circus_workloads

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

type row = { name : string; value : float; unit : string }

(* A shared machine changes speed by up to 2x for seconds at a time,
   more than the gate's 30%, so every timed run follows a fixed
   calibration kernel and is reported in kernel runs, not seconds.
   The kernel, a hash table of short-lived byte strings like the
   simulator's inner loops, uses no code of this repository, so no
   change to it can move the scale. *)
let kernel () =
  let tbl = Hashtbl.create 4096 in
  for i = 1 to 200_000 do
    Hashtbl.replace tbl (i * 7919 land 4095) (Bytes.create 24)
  done

(* Run [f] three times and report [ops] per kernel run of the fastest. *)
let best ~name ~ops f =
  let runs = ref infinity in
  for _ = 1 to 3 do
    Gc.full_major ();
    let k = timed kernel in
    let t = timed f in
    runs := Float.min !runs (t /. k)
  done;
  { name; value = float_of_int ops /. !runs; unit = "1/kernel" }

(* Run [f] [runs] times, each after its own kernel run, and report
   [ops] per kernel run at the median of the per-run ratios.  [best]'s
   fastest ratio is at the mercy of a single slow kernel run, which
   shrinks its ratio and inflates the rate: for the parallel-engine
   rows, whose runs are short next to that noise, it spread as wide as
   the gate's bound between runs of one tree. *)
let median_ratio ~runs ~name ~ops f =
  let ratios =
    List.init runs (fun _ ->
        Gc.full_major ();
        let k = timed kernel in
        let t = timed f in
        t /. k)
  in
  let median = List.nth (List.sort Float.compare ratios) (runs / 2) in
  { name; value = float_of_int ops /. median; unit = "1/kernel" }

(* ------------------------------------------------------------------ *)
(* Parallel engine: 8 LPs of dense local churn plus a cross-LP message
   every 64 events, run at a given domain count.  The same workload at
   d = 1 and 2 gives the scaling curve; the barrier cadence (one per
   lookahead window, ~100 events per LP per window here) is the
   realistic cost being measured, not an idealized embarrassingly
   parallel loop. *)

let bench_engine_parallel ~events ~domains =
  let lps = 8 in
  median_ratio ~runs:9
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

(* Burst path: the same replicated call with an ~11.5 KB argument so
   every call/reply is an 8-segment message — each send is one
   [Syscall.sendmsg_vec] charge span rather than eight sleep/wake
   round-trips.  perfbench's 64-byte calls are dominated by fixed
   per-call machinery; these rows by the per-segment charge span. *)

let bench_rpc_burst ~iterations ~n =
  best
    ~name:(Printf.sprintf "rpc_burst_seg8_n%d" n)
    ~ops:iterations
    (fun () -> ignore (Workloads.circus_row ~iterations ~n ~payload:11_520 ()))

(* Causal-tracing overhead on the hot replicated-call path, as the
   ratio wall with causal on / wall with causal off: 1.0 means free.
   perfbench's trace.overhead_ratio is the firehose sink's; this is
   the quiet attribution sink the scenario runs.  Being a ratio taken
   within one run, it holds still enough for a tight gate. *)

module Trace = Circus_trace.Trace
module Causal = Circus_trace.Causal

let bench_trace_overhead ~iterations ~n =
  let wall ~causal =
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
    let t = timed (fun () -> ignore (Workloads.circus_row ~iterations ~n ())) in
    if causal then begin
      Causal.set_enabled false;
      Trace.stop ()
    end;
    t
  in
  (* The two walls of one back-to-back pair see the same machine
     phase (frequency, cache pressure, neighbours on a shared
     runner), so their quotient is far stabler than a quotient of
     independently-taken minima; the median over 11 pairs then
     discards the pairs a change of machine speed straddled.  One
     untimed warmup pair first. *)
  ignore (wall ~causal:false);
  ignore (wall ~causal:true);
  let ratios =
    List.init 11 (fun _ ->
        let off = wall ~causal:false in
        let on = wall ~causal:true in
        on /. off)
  in
  let sorted = List.sort Float.compare ratios in
  let median = List.nth sorted (List.length sorted / 2) in
  { name = Printf.sprintf "trace_overhead_n%d" n; value = median; unit = "ratio" }

(* ------------------------------------------------------------------ *)

let main () =
  print_endline "circus wall-clock throughput rows";
  let rows =
    (* 2M events, median of 9: at 400k events and best of 3 the d1
       row read 223k-494k across runs of one tree. *)
    List.map (fun d -> bench_engine_parallel ~events:2_000_000 ~domains:d) [ 1; 2 ]
    @ List.map (fun n -> bench_rpc_burst ~iterations:150 ~n) [ 1; 3 ]
    (* 3000 calls: the row is a ratio of two walls, and at 300 calls
       the ~3 ms sides leave the quotient too noisy for its tight gate. *)
    @ [ bench_trace_overhead ~iterations:3000 ~n:1 ]
  in
  List.iter (fun r -> Printf.printf "%-20s %14.6g %s\n" r.name r.value r.unit) rows;
  let fields =
    List.map
      (fun r -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" r.name r.value r.unit)
      rows
  in
  Printf.printf "{\"metrics\": {%s}}\n" (String.concat ", " fields)

let () =
  let open Cmdliner in
  let doc = "wall-clock rows the repository benchmark lacks" in
  exit (Cmd.eval (Cmd.v (Cmd.info "throughput" ~doc) Term.(const main $ const ())))
