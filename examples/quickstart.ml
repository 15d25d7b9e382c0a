(* Quickstart: a replicated key-value service.

   Three replicas (a troupe) serve the "kv" interface.  The client
   neither knows nor cares that the service is replicated — replication
   transparency — and keeps working when a member crashes mid-run.

   Run with: dune exec examples/quickstart.exe

   Pass [--trace FILE.json] to record a structured event trace of the
   whole run and export it in Chrome trace_event format: open the file
   at https://ui.perfetto.dev (or about://tracing) to see fibers,
   datagrams, RPC spans and the crash on a timeline.
   [--trace-jsonl FILE.jsonl] writes the line-oriented form instead.

   Pass [--chaos SEED] to replace the scripted crash with a seeded
   random fault schedule (crash/restart, partitions, loss, duplication,
   delay and corruption bursts) from {!Circus_fault}.  Equal seeds
   replay the identical chaos episode.

   Pass [--domains N] to run the parallel-simulation demo instead: an
   8-host gossip ring sharded over 4 logical processes, executed on N
   OCaml domains.  The domain count changes only wall-clock speed —
   stdout and the merged [--trace-jsonl] trace are byte-identical for
   every N, which CI enforces with a cmp of N = 1 against N = 4. *)

open Circus_sim
open Circus_net
open Circus
module Codec = Circus_wire.Codec

let put = Interface.proc ~proc_no:0 ~name:"put" (Codec.pair Codec.string Codec.string) Codec.unit
let get = Interface.proc ~proc_no:1 ~name:"get" Codec.string (Codec.option Codec.string)

let state_codec = Codec.list (Codec.pair Codec.string Codec.string)

(* One troupe member: a deterministic module with a private table. *)
let start_member sys index =
  let process = System.process sys ~name:(Printf.sprintf "kv%d" index) () in
  let table : (string, string) Hashtbl.t = Hashtbl.create 16 in
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
        List.iter (fun (k, v) -> Hashtbl.replace table k v) (Codec.decode state_codec bytes) )
  in
  ignore
    (System.spawn process (fun ctx ->
         let troupe = Service.serve process ctx ~name:"kv" ~state handlers in
         Printf.printf "[%6.3fs] kv%d joined; troupe now has %d member(s)\n"
           (System.now sys) index (Circus_rpc.Troupe.size troupe)));
  process

(* The original demo: one scripted crash at t = 2s. *)
let scripted_crash sys members =
  let victim = List.nth members 1 in
  ignore
    (Engine.schedule (System.engine sys) ~delay:2.0 (fun () ->
         Printf.printf "[%6.3fs] *** crashing %s ***\n" (System.now sys)
           (Host.name victim.System.host);
         Host.crash victim.System.host));
  let client = System.process sys ~name:"client" () in
  ignore
    (System.spawn client (fun ctx ->
         Fiber.sleep 1.0;
         Service.call client ctx ~service:"kv" put ("role", "quickstart");
         Printf.printf "[%6.3fs] client wrote role=quickstart\n" (System.now sys);
         Fiber.sleep 2.0;  (* the crash happens in here *)
         (match Service.call client ctx ~service:"kv" get "role" with
         | Some v -> Printf.printf "[%6.3fs] client read role=%s (after a member crash)\n" (System.now sys) v
         | None -> Printf.printf "[%6.3fs] lost the value!\n" (System.now sys));
         Service.call client ctx ~service:"kv" put ("status", "still-available");
         Printf.printf "[%6.3fs] client wrote status=still-available\n" (System.now sys)))

(* [--chaos SEED]: a seeded random fault schedule instead.  The client
   tolerates individual write failures — the point is that whatever the
   schedule does, equal seeds replay it exactly. *)
let chaos_run sys members seed =
  let horizon = 12.0 in
  let victims = List.map (fun (p : System.process) -> Host.id p.System.host) members in
  let ringmasters =
    List.map
      (fun (a : Addr.t) -> a.Addr.host)
      (Circus_rpc.Troupe.member_processes (System.ringmaster sys))
  in
  let client = System.process sys ~name:"client" () in
  let others = Host.id client.System.host :: ringmasters in
  let plan = Circus_fault.random_plan ~seed ~victims ~others ~horizon () in
  Format.printf "chaos plan (seed %d):@.%a@." seed Circus_fault.Plan.pp plan;
  Circus_fault.inject (System.net sys) plan;
  ignore
    (System.spawn client (fun ctx ->
         Fiber.sleep 0.5;
         let puts = 10 in
         let ok = ref 0 in
         for i = 1 to puts do
           let k = Printf.sprintf "key%d" (i mod 3) in
           let v = Printf.sprintf "w%02d" i in
           (match Service.call client ctx ~service:"kv" put (k, v) with
           | () ->
             incr ok;
             Printf.printf "[%6.3fs] put %s=%s ok\n" (System.now sys) k v
           | exception Fiber.Cancelled -> raise Fiber.Cancelled
           | exception e ->
             Printf.printf "[%6.3fs] put %s=%s FAILED (%s)\n" (System.now sys) k v
               (Printexc.to_string e));
           Fiber.sleep (horizon /. float_of_int puts)
         done;
         (match Service.call client ctx ~service:"kv" get "key1" with
         | Some v -> Printf.printf "[%6.3fs] final read key1=%s\n" (System.now sys) v
         | None -> Printf.printf "[%6.3fs] final read key1=<absent>\n" (System.now sys)
         | exception _ -> Printf.printf "[%6.3fs] final read failed\n" (System.now sys));
         Printf.printf "[%6.3fs] chaos run done: %d/%d writes landed\n" (System.now sys) !ok
           puts))

(* [--domains N]: the parallel cluster demo.  K = 4 logical processes
   is part of the workload; [N] only maps them onto domains, so every
   printed number and every trace byte below is independent of N. *)
let cluster_demo ~domains ~trace_chrome ~trace_jsonl =
  let module Export = Circus_trace.Export in
  let lps = 4 and n_hosts = 8 in
  let params = { Net.default_params with propagation = 2e-3 } in
  let c = Cluster.create ~seed:2026 ~params ~lps () in
  Cluster.enable_tracing c;
  let hosts =
    Array.init n_hosts (fun i -> Cluster.add_host c ~name:(Printf.sprintf "g%d" i) ())
  in
  let socks =
    Array.map (fun h -> Net.udp_bind (Cluster.net_of_host c (Host.id h)) h ~port:9 ()) hosts
  in
  (* Every host gossips to its +1 and +3 neighbours every 50 ms; with
     round-robin placement both datagrams cross shard boundaries. *)
  Array.iteri
    (fun i h ->
      let lp = Cluster.lp_of_host c (Host.id h) in
      let net = Cluster.net c lp in
      let engine = Cluster.engine c lp in
      let src = Net.socket_addr socks.(i) in
      Cluster.with_lp c lp (fun () ->
          let rec gossip round () =
            List.iter
              (fun step ->
                Net.send net ~src
                  ~dst:(Net.socket_addr socks.((i + step) mod n_hosts))
                  (Bytes.of_string (Printf.sprintf "g%d.%d" i round)))
              [ 1; 3 ];
            if round < 39 then ignore (Engine.schedule engine ~delay:0.05 (gossip (round + 1)))
          in
          ignore (Engine.schedule_abs engine ~at:(0.01 *. float_of_int (i + 1)) (gossip 0))))
    hosts;
  Cluster.run ~until:2.5 ~domains c;
  let stats = Cluster.stats c in
  Printf.printf
    "[%6.3fs] parallel gossip ring: lps=%d domains=%d events=%d sent=%d delivered=%d\n"
    (Cluster.now c) lps domains (Cluster.executed c) stats.Net.sent stats.Net.delivered;
  (match trace_chrome with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc
      (Export.chrome_events ~dropped:(Cluster.merged_dropped c) (Cluster.merged_events c));
    close_out oc;
    Printf.printf "wrote merged Chrome trace to %s (open at https://ui.perfetto.dev)\n" path
  | None -> ());
  (match trace_jsonl with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (Export.jsonl_events (Cluster.merged_events c));
    close_out oc;
    Printf.printf "wrote merged JSONL trace to %s\n" path
  | None -> ());
  print_endline "done."

let main trace_chrome trace_jsonl domains chaos_seed =
  match domains with
  | Some domains -> cluster_demo ~domains ~trace_chrome ~trace_jsonl
  | None ->
  let sys = System.create ~seed:2026 () in
  if trace_chrome <> None || trace_jsonl <> None then ignore (System.enable_tracing sys);
  let members = List.init 3 (start_member sys) in
  (match chaos_seed with
  | None -> scripted_crash sys members
  | Some seed -> chaos_run sys members seed);
  System.run sys;
  (match trace_chrome with
  | Some path ->
    System.export_trace sys `Chrome path;
    Printf.printf "wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n" path
  | None -> ());
  (match trace_jsonl with
  | Some path ->
    System.export_trace sys `Jsonl path;
    Printf.printf "wrote JSONL trace to %s\n" path
  | None -> ());
  print_endline "done."

let () =
  let open Cmdliner in
  let opt typ name docv doc = Arg.(value & opt (some typ) None & info [ name ] ~docv ~doc) in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "quickstart" ~doc:"a replicated key-value service surviving a member crash")
          Term.(
            const main
            $ opt Arg.string "trace" "FILE.json" "Write the trace in Chrome trace_event format."
            $ opt Arg.string "trace-jsonl" "FILE.jsonl" "Write the trace as JSONL."
            $ opt Arg.int "domains" "N" "Run the parallel gossip-ring demo on $(docv) domains."
            $ opt Arg.int "chaos" "SEED" "Replace the scripted crash with seeded random faults.")))
