(* The scenario engine's command line: build one sharded world, drive
   it with open-loop traffic of the chosen ARRIVAL kind, and report
   sustained req/s, latency quantiles and availability.  Every spec
   knob defaults to [Scenario.default] (100k clients over 1000 hosts);
   equal seeds give byte-identical traces and report JSON at any
   --domains. *)

open Cmdliner
module Scenario = Circus_scenario.Scenario
module Causal = Circus_trace.Causal
module Export = Circus_trace.Export

let write_file ?(mode = Open_trunc) path text =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary; mode ] 0o644 path in
  output_string oc text;
  close_out oc

let print_attribution ~explain ~dropped a =
  let ms v = 1e3 *. v in
  Printf.printf "\ncritical-path attribution (%d requests, %d incomplete chains, %d dropped events)\n"
    (List.length a.Causal.paths) a.Causal.incomplete dropped;
  Printf.printf "%-16s | %13s | %10s | %10s\n" "stage" "p50 comp (ms)" "p50 (ms)" "p99 (ms)";
  let comps = Causal.stage_components a 0.5 in
  Array.iteri
    (fun i st ->
      Printf.printf "%-16s | %13.3f | %10.3f | %10.3f\n" st (ms comps.(i))
        (ms (Causal.stage_quantile a ~stage:i 0.5))
        (ms (Causal.stage_quantile a ~stage:i 0.99)))
    Causal.stage_names;
  let sum = Array.fold_left ( +. ) 0.0 comps in
  let p50 = Causal.total_quantile a 0.5 in
  Printf.printf "%-16s | %13.3f | %10.3f | %10.3f   (component sum vs p50: %+.1f%%)\n"
    "end-to-end" (ms sum) (ms p50)
    (ms (Causal.total_quantile a 0.99))
    (if p50 > 0.0 then 100.0 *. ((sum /. p50) -. 1.0) else 0.0);
  if explain > 0 then begin
    Printf.printf "\nslowest %d requests, stage waterfalls:\n" explain;
    print_string (Causal.waterfall ~top:explain a)
  end

let run spec domains chaos trace_path chrome_path trace_capacity no_causal explain report_path
    summary_path =
  let kind = Scenario.arrival_name spec.Scenario.arrival in
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
  let tracing = Option.is_some trace_path || Option.is_some chrome_path in
  let t0 = Unix.gettimeofday () in
  let r = Scenario.run ~domains ?chaos ~tracing ~trace_capacity ~causal:(not no_causal) spec in
  let wall = Unix.gettimeofday () -. t0 in
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
  Option.iter (print_attribution ~explain ~dropped:r.Scenario.trace_dropped) r.Scenario.causal;
  let dropped = r.Scenario.trace_dropped and events = r.Scenario.trace_events in
  Option.iter
    (fun path ->
      write_file path (Export.jsonl_events ~dropped events);
      Printf.printf "wrote %s (%d events, %d dropped)\n" path (List.length events) dropped)
    trace_path;
  Option.iter
    (fun path ->
      write_file path (Export.chrome_events ~dropped events);
      Printf.printf "wrote %s (Perfetto: ui.perfetto.dev)\n" path)
    chrome_path;
  Option.iter
    (fun path ->
      write_file path (Scenario.report_json spec r ^ "\n");
      Printf.printf "wrote %s\n" path)
    report_path;
  Option.iter
    (fun path ->
      write_file ~mode:Open_append path
        (Printf.sprintf
           "### Scenario (%s, %d clients / %d hosts, domains %d)\n\n\
            | req/s | p50 | p99 | p999 | availability | wall |\n\
            |---:|---:|---:|---:|---:|---:|\n\
            | %.1f | %.2f ms | %.2f ms | %.2f ms | %.4f | %.2f s |\n\n"
           kind spec.Scenario.clients spec.Scenario.hosts domains r.Scenario.sustained_rps
           (ms r.Scenario.p50) (ms r.Scenario.p99) (ms r.Scenario.p999) r.Scenario.availability
           wall))
    summary_path

(* ------------------------------------------------------------------ *)
(* The world: ARRIVAL plus the fifteen knobs, each defaulting to
   [Scenario.default]'s value. *)

let knob typ docv name doc get =
  Arg.(value & opt typ (get Scenario.default) & info [ name ] ~docv ~doc)

let int_knob = knob Arg.int "N"
let float_knob = knob Arg.float "X"

let arrival =
  let kinds =
    List.map (fun a -> (Scenario.arrival_name a, a)) Scenario.[ Poisson; Burst; Diurnal ]
  in
  Arg.(
    required
    & pos 0 (some (enum kinds)) None
    & info [] ~docv:"ARRIVAL" ~doc:"Open-loop arrival process: poisson, burst or diurnal.")

let spec =
  let make arrival seed lps hosts troupes replicas rm_partitions rm_replicas clients think
      frontends pool locality payload warmup duration =
    let spec =
      { Scenario.seed; lps; hosts; troupes; replicas; rm_partitions; rm_replicas; clients; think;
        frontends; pool; locality; payload; warmup; duration; arrival }
    in
    match Scenario.validate spec with Ok () -> `Ok spec | Error msg -> `Error (false, msg)
  in
  let open Scenario in
  let knobs =
    Term.(
      const make $ arrival
      $ int_knob "seed" "World and traffic seed." (fun d -> d.seed)
      $ int_knob "lps" "Shards (logical processes)." (fun d -> d.lps)
      $ int_knob "hosts" "Total simulated hosts." (fun d -> d.hosts)
      $ int_knob "troupes" "Replicated services." (fun d -> d.troupes)
      $ int_knob "replicas" "Members per service troupe." (fun d -> d.replicas)
      $ int_knob "rm-partitions" "Ringmaster name-hash partitions." (fun d -> d.rm_partitions)
      $ int_knob "rm-replicas" "Members per Ringmaster partition." (fun d -> d.rm_replicas)
      $ int_knob "clients" "Simulated client population." (fun d -> d.clients)
      $ float_knob "think" "Mean seconds between one client's requests." (fun d -> d.think)
      $ int_knob "frontends" "Client hosts per shard." (fun d -> d.frontends)
      $ int_knob "pool" "Worker fibers per front-end host." (fun d -> d.pool)
      $ float_knob "locality" "Fraction of a shard's traffic kept to its affine services."
          (fun d -> d.locality)
      $ int_knob "payload" "Request bytes." (fun d -> d.payload)
      $ float_knob "warmup" "Seconds of registration and cache prewarm before measurement."
          (fun d -> d.warmup)
      $ float_knob "duration" "Seconds of measured open-loop traffic." (fun d -> d.duration))
  in
  Term.ret knobs

let path_opt name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let cmd =
  let domains =
    Arg.(
      value & opt positive_int 1
      & info [ "domains" ] ~docv:"N" ~doc:"OCaml domains to run the shards on.")
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED" ~doc:"Run a seeded random fault plan over the server hosts.")
  in
  let trace_cap =
    Arg.(
      value & opt positive_int 65_536
      & info [ "trace-cap" ] ~docv:"N" ~doc:"Trace ring capacity per shard.")
  in
  let no_causal =
    Arg.(value & flag & info [ "no-causal" ] ~doc:"Skip critical-path latency attribution.")
  in
  let explain =
    Arg.(
      value & opt int 0
      & info [ "explain" ] ~docv:"N" ~doc:"Print stage waterfalls for the N slowest requests.")
  in
  let doc = "run one million-client scenario and report req/s, latency and availability" in
  Cmd.v (Cmd.info "scenario" ~doc)
    Term.(
      const run $ spec $ domains $ chaos
      $ path_opt "trace-jsonl" "Write the merged trace as JSONL."
      $ path_opt "trace-chrome" "Write the merged trace in Chrome trace_event format."
      $ trace_cap $ no_causal $ explain
      $ path_opt "report-json" "Write the deterministic report JSON."
      $ path_opt "summary" "Append a markdown summary table.")

let () = exit (Cmd.eval cmd)
