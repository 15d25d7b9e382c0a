open Circus_sim
open Circus_net
open Circus_rpc
open Circus_binding
module Metrics = Circus_trace.Metrics
module Trace = Circus_trace.Trace
module Event = Circus_trace.Event
module Causal = Circus_trace.Causal
module Plan = Circus_fault.Plan
module Injector = Circus_fault.Injector

type arrival_kind = Poisson | Burst | Diurnal

type spec = {
  seed : int;
  lps : int;
  hosts : int;
  troupes : int;
  replicas : int;
  rm_partitions : int;
  rm_replicas : int;
  clients : int;
  think : float;
  frontends : int;
  pool : int;
  locality : float;
  payload : int;
  warmup : float;
  duration : float;
  arrival : arrival_kind;
}

let default =
  { seed = 2026;
    lps = 8;
    hosts = 1000;
    troupes = 100;
    replicas = 3;
    rm_partitions = 4;
    rm_replicas = 3;
    clients = 100_000;
    think = 500.0;
    frontends = 8;
    pool = 16;
    locality = 0.8;
    payload = 64;
    warmup = 8.0;
    duration = 10.0;
    arrival = Poisson }

type report = {
  arrivals : int;
  completed : int;
  failed : int;
  unserved : int;
  sustained_rps : float;
  availability : float;
  p50 : float;
  p99 : float;
  p999 : float;
  mean_latency : float;
  chaos_steps : int;
  servers : int;
  events_executed : int;
  net_sent : int;
  net_delivered : int;
  net_dropped : int;
  metrics : Metrics.t;
  trace_events : Event.t list;
  trace_dropped : int;
  causal : Causal.analysis option;
}

(* Aggregate arrivals/s implied by the client population. *)
let offered_rate spec = Float.of_int spec.clients /. spec.think

let process_of spec ~shard_rate =
  match spec.arrival with
  | Poisson -> Arrival.Poisson { rate = shard_rate }
  (* Same long-run rate, concentrated in on-phases ~5x hotter. *)
  | Burst ->
    Arrival.Onoff
      { rate_on = shard_rate *. 5.0; rate_off = shard_rate *. 0.2; mean_on = 0.3; mean_off = 1.2 }
  | Diurnal -> Arrival.Diurnal { base = 0.0; peak = shard_rate *. 2.0; period = spec.duration }

let svc_name i = Printf.sprintf "svc-%04d" i
let reg_start = 0.05
let reg_cost = 0.25
let drain = 2.0

(* Names per partition under the name hash — exact, since the service
   names are a pure function of the spec. *)
let max_owned spec =
  let owned = Array.make spec.rm_partitions 0 in
  for i = 0 to spec.troupes - 1 do
    let p = Ringmaster.partition_of_name ~partitions:spec.rm_partitions (svc_name i) in
    owned.(p) <- owned.(p) + 1
  done;
  Array.fold_left max 0 owned

let validate spec =
  let rm_hosts = spec.rm_partitions * spec.rm_replicas in
  let servers = spec.hosts - rm_hosts - (spec.lps * spec.frontends) in
  if spec.lps < 1 then Error "lps must be >= 1"
  else if spec.troupes < 1 then Error "troupes must be >= 1"
  else if spec.replicas < 1 then Error "replicas must be >= 1"
  else if spec.rm_partitions < 1 || spec.rm_replicas < 1 then
    Error "rm_partitions and rm_replicas must be >= 1"
  else if spec.clients < 1 || not (Float.is_finite spec.think && spec.think > 0.0) then
    Error "need clients >= 1 and a finite think > 0"
  else if spec.frontends < 1 then Error "frontends must be >= 1"
  else if spec.pool < 1 then Error "pool must be >= 1"
  else if not (spec.locality >= 0.0 && spec.locality <= 1.0) then
    Error "locality must be in [0, 1]"
  else if spec.payload < 0 then Error "payload must be >= 0"
  else if not (Float.is_finite spec.warmup) then Error "warmup must be finite"
  else if spec.warmup < reg_start +. (reg_cost *. Float.of_int (max_owned spec)) then
    Error
      (Printf.sprintf
         "warmup %.2f too short: the largest Ringmaster partition owns %d names and one \
          register costs ~%.2fs; traffic before registration completes overloads the binding \
          hosts"
         spec.warmup (max_owned spec) reg_cost)
  else if not (Float.is_finite spec.duration && spec.duration > 0.0) then
    Error "duration must be finite and > 0"
  else if servers < spec.replicas then
    Error
      "not enough hosts: need rm_partitions*rm_replicas + lps*frontends client hosts + >= \
       replicas servers"
  else Ok ()

(* Simulated-time milestones.  Registration admins start at
   [reg_start]; binding caches prewarm concurrently (paced retry loops
   that track registration progress); open-loop traffic runs
   [warmup, warmup + duration); the run drains in-flight calls for
   [drain] more seconds before the horizon stops the world.

   The warmup must actually cover registration: one register costs
   ~0.25 s of simulated time (the replicated call plus the sequential
   set_troupe_id pushes, at the syscall cost model's prices), and each
   partition's names register sequentially through one admin.  If
   traffic starts while names are still missing, every miss becomes a
   Ringmaster lookup and the binding hosts' CPU queues grow without
   bound — the overload then reads as crashed peers to pairmsg's
   watchdog. *)

let run ?(domains = 1) ?chaos ?(tracing = false) ?trace_capacity ?(causal = false) spec =
  (match validate spec with Ok () -> () | Error m -> invalid_arg ("Scenario.run: " ^ m));
  let lps = spec.lps in
  let traffic_end = spec.warmup +. spec.duration in
  let horizon = traffic_end +. drain in
  let params = { Net.default_params with propagation = 1e-3 } in
  let cluster = Cluster.create ~seed:spec.seed ~params ~lps () in
  let want_trace = tracing || causal in
  if want_trace then begin
    (* Attribution only needs the causal category, and a *quiet* sink
       makes it cheap: [Trace.on ()] reports false, so the firehose
       instrumentation sites throughout the stack never even build
       their argument lists, while the causal module's direct emits
       still record.  An explicit [tracing] keeps every category and a
       normal (loud) sink, as before. *)
    let causal_only = causal && not tracing in
    Cluster.enable_tracing ?capacity:trace_capacity
      ?cats:(if causal_only then Some [ Causal.cat ] else None)
      ?quiet:(if causal_only then Some true else None)
      cluster
  end;
  let prev_causal = Causal.on () in
  Causal.set_enabled causal;
  if causal then Causal.reset ();

  (* --- World layout (main domain; cheap bookkeeping only). --- *)
  let rm_hosts = Array.make_matrix spec.rm_partitions spec.rm_replicas (-1) in
  let rm_setup = Array.make lps [] in
  for p = 0 to spec.rm_partitions - 1 do
    for j = 0 to spec.rm_replicas - 1 do
      let lp = ((p * spec.rm_replicas) + j) mod lps in
      let host = Cluster.add_host cluster ~lp ~name:(Printf.sprintf "rm-%d-%d" p j) () in
      rm_hosts.(p).(j) <- Host.id host;
      rm_setup.(lp) <- (p, host) :: rm_setup.(lp)
    done
  done;
  let client_hosts =
    Array.init lps (fun s ->
        Array.init spec.frontends (fun f ->
            Cluster.add_host cluster ~lp:s ~name:(Printf.sprintf "client-%d-%d" s f) ()))
  in
  let placement = Placement.create ~lps () in
  let server_count =
    spec.hosts - (spec.rm_partitions * spec.rm_replicas) - (lps * spec.frontends)
  in
  let server_ids = ref [] in
  for k = 0 to server_count - 1 do
    let lp = k mod lps in
    let host =
      Cluster.add_host cluster ~lp ~name:(Printf.sprintf "srv-%d" k)
        ~attributes:(Placement.server_attributes ~lp) ()
    in
    server_ids := Host.id host :: !server_ids;
    Placement.add_server placement ~lp host
  done;
  let server_ids = List.rev !server_ids in

  (* Troupe placement: troupe [i]'s callers live on shard [i mod lps]. *)
  let next_port = Hashtbl.create 256 in
  let member_setup = Array.make lps [] in
  let member_addrs =
    Array.init spec.troupes (fun _ -> Array.make spec.replicas None)
  in
  for i = 0 to spec.troupes - 1 do
    let machines =
      match Placement.place placement ~caller_lp:(i mod lps) ~replicas:spec.replicas with
      | Ok ms -> ms
      | Error m -> invalid_arg ("Scenario.run: " ^ m)
    in
    List.iteri
      (fun j (m : Circus_config.Solver.machine) ->
        let hid = m.Circus_config.Solver.machine_id in
        let port =
          match Hashtbl.find_opt next_port hid with
          | Some r ->
            Stdlib.incr r;
            !r
          | None ->
            Hashtbl.replace next_port hid (ref 5000);
            5000
        in
        let lp = Cluster.lp_of_host cluster hid in
        member_setup.(lp) <- (i, j, hid, port) :: member_setup.(lp))
      machines
  done;
  Array.iteri (fun lp l -> member_setup.(lp) <- List.rev l) member_setup;
  Array.iteri (fun lp l -> rm_setup.(lp) <- List.rev l) rm_setup;

  let rms =
    Array.init spec.rm_partitions (fun p ->
        Ringmaster.bootstrap_troupe ~partition:p
          ~hosts:(Array.to_list rm_hosts.(p)) ())
  in
  let names = Array.init spec.troupes svc_name in
  let affine =
    Array.init lps (fun s ->
        Array.of_list
          (List.filter (fun i -> i mod lps = s) (List.init spec.troupes Fun.id)))
  in
  (* Partition admins: partition p's names are registered sequentially
     by one fiber (on client host p mod lps) — concurrent registers of
     different names would mint diverging name->id maps at the
     replicas.  Different partitions register in parallel. *)
  let admin_partitions =
    Array.init lps (fun s ->
        List.filter
          (fun p -> p mod lps = s)
          (List.init spec.rm_partitions Fun.id))
  in
  let owned_names p =
    List.filter
      (fun i -> Ringmaster.partition_of_name ~partitions:spec.rm_partitions names.(i) = p)
      (List.init spec.troupes Fun.id)
  in
  (* Estimated instant each partition's registration completes:
     partition admins register their names sequentially, ~[reg_cost]
     apiece.  Prewarmers pace themselves by this schedule instead of
     polling — a blind retry loop across every front end is itself a
     lookup storm the binding troupes cannot absorb. *)
  let est_part =
    Array.init spec.rm_partitions (fun p ->
        reg_start +. (reg_cost *. Float.of_int (List.length (owned_names p))))
  in

  (* Per-shard arrival streams: non-advancing stream family off one
     root, so shard s's sequence is independent of the domain count. *)
  let arrival_root = Prng.create ((spec.seed * 2) + 0x5eed) in
  let shard_rate = offered_rate spec /. Float.of_int lps in
  let payload = Bytes.make spec.payload 'x' in
  let metrics = Array.init lps (fun _ -> Metrics.create ()) in

  (* --- Per-shard setup, batched: one engine event per shard at t=0
     builds that shard's runtimes, so world construction parallelizes
     across domains. --- *)
  for s = 0 to lps - 1 do
    let engine = Cluster.engine cluster s in
    let net = Cluster.net cluster s in
    let ms = metrics.(s) in
    ignore
      (Engine.schedule_abs engine ~at:0.0 (fun () ->
           let env = Syscall.make net () in
           (* Receive-side batching: at scenario scale a loaded demux
              must retire its backlog in one CPU-queue pass, or the
              per-datagram select round-trips feed a retransmit spiral
              (see [Syscall.set_recv_drain]).  The measurement benches
              keep the flag off to preserve Table-4.1 charge
              sequences. *)
           Syscall.set_recv_drain env true;
           (* Retransmit backoff everywhere: at scenario scale a
              transient queue on any host turns the fixed 0.1 s
              retransmit interval into a self-feeding duplicate storm
              (each resend is another 8.1 ms sendmsg on an already
              saturated CPU).  Geometric backoff lets the queue drain;
              crash detection still rides the probe/crash-timeout
              machinery, which is untouched. *)
           let pairmsg_config =
             { Circus_pairmsg.Endpoint.default_config with retransmit_backoff = 2.0 }
           in
           (* Ringmaster members of this shard. *)
           List.iter
             (fun (p, host) ->
               ignore
                 (Ringmaster.start_member ~partition:p ~partitions:spec.rm_partitions
                    ~pairmsg_config env host))
             rm_setup.(s);
           (* Service members of this shard: echo modules.  Their
              troupe ids arrive later via the Ringmaster's
              set_troupe_id push at registration. *)
           List.iter
             (fun (i, j, hid, port) ->
               let rt = Runtime.create env (Cluster.host cluster hid) ~port ~pairmsg_config () in
               Runtime.set_resolver rt (Shard.member_resolver rms);
               let module_no = Runtime.export rt (fun _ctx ~proc_no:_ body -> body) in
               member_addrs.(i).(j) <- Some (Runtime.module_addr rt module_no))
             member_setup.(s);
           (* Client stack, [frontends] hosts wide: each front-end
              host gets its own partitioned binding client, request
              queue and pooled workers; simulated clients are pinned
              to a front end by id.  One host sustains ~16 replicated
              calls/s under the syscall cost model, so the front-end
              width — not the fiber pool — is the shard's capacity
              knob. *)
           let stacks =
             Array.map
               (fun host ->
                 let crt = Runtime.create env host ~pairmsg_config () in
                 let sc = Shard.create crt ~ringmasters:rms in
                 (crt, sc, Mailbox.create engine))
               client_hosts.(s)
           in
           Array.iter
             (fun (crt, sc, q) ->
               let whost = Host.id (Runtime.host crt) in
               for _w = 1 to spec.pool do
                 ignore
                   (Runtime.spawn_thread crt ~label:"scenario-worker" (fun ctx ->
                        Mailbox.serve ~idle:0.5 q (fun (t0, svc, cx) ->
                            if Causal.on () then begin
                              (* Adopt the request's context (clearing
                                 any leftover from the previous
                                 request); the pickup step closes the
                                 queueing interval. *)
                              Causal.set_current cx;
                              ignore (Causal.step ~host:whost "pickup")
                            end;
                            match
                              Shard.call sc ctx ~service:svc ~proc_no:0 ~multicast:true
                                ~collator:Collator.majority payload
                            with
                            | (_ : bytes) ->
                              if Causal.on () then ignore (Causal.step ~host:whost "done");
                              Metrics.observe ms "scenario.latency" (Engine.now engine -. t0);
                              Metrics.incr ms "scenario.ok"
                            | exception _ -> Metrics.incr ms "scenario.failed")))
               done)
             stacks;
           let crt0, sc0, _ = stacks.(0) in
           List.iter
             (fun p ->
               ignore
                 (Runtime.spawn_thread crt0 ~label:"scenario-admin" (fun ctx ->
                      Fiber.sleep reg_start;
                      List.iter
                        (fun i ->
                          let members =
                            Array.to_list (Array.map Option.get member_addrs.(i))
                          in
                          let troupe = Troupe.make ~id:Ids.Troupe_id.none ~members in
                          let register () =
                            ignore (Shard.register sc0 ctx ~name:names.(i) troupe)
                          in
                          (* A register can fail under chaos (a member
                             crashed mid-push); retry once, then give
                             up on the name — unregistered services
                             surface as failed calls, not a dead
                             admin. *)
                          try register ()
                          with _ -> (
                            Fiber.sleep 0.5;
                            try register ()
                            with _ -> Metrics.incr ms "scenario.reg_failed"))
                        (owned_names p))))
             admin_partitions.(s);
           (* Prewarm each front end's binding caches with one bulk
              [Client.warm] (enumerate) per Ringmaster partition —
              O(frontends * partitions) registry calls, not
              O(frontends * names).  Per-name prewarm was tried and
              collapses at fleet scale: every front end walking every
              name keeps the binding troupes saturated through traffic
              start, and the cold-start equilibrium (one gated lookup
              in flight per front end, each executed by every
              partition member) sits past the retransmit knee.  Each
              warm waits for its partition's estimated registration
              completion, staggered per front end across the whole
              fleet so one partition's members never absorb the
              fleet's enumerates as a wave; names that register after
              the snapshot warm lazily on first use. *)
           Array.iteri
             (fun f (crt, sc, _) ->
               ignore
                 (Runtime.spawn_thread crt ~label:"scenario-prewarm" (fun ctx ->
                      let stagger =
                        0.012 *. Float.of_int ((f * lps) + s)
                      in
                      let order =
                        List.sort
                          (fun p q -> Float.compare est_part.(p) est_part.(q))
                          (List.init spec.rm_partitions Fun.id)
                      in
                      List.iter
                        (fun p ->
                          let ready = est_part.(p) +. stagger in
                          let now = Engine.now engine in
                          if ready > now then Fiber.sleep (ready -. now);
                          let rec warm retries =
                            match Client.warm (Shard.client sc p) ctx with
                            | () -> ()
                            | exception _ ->
                              if retries > 0 then (
                                Fiber.sleep 0.5;
                                warm (retries - 1))
                          in
                          warm 2)
                        order)))
             stacks;
           (* Open-loop dispatcher: a self-rescheduling engine event
              chain drawing from this shard's dedicated stream. *)
           let sprng = Prng.stream arrival_root ~index:s in
           let arr =
             Arrival.create ~start:spec.warmup sprng (process_of spec ~shard_rate)
           in
           let pick_service () =
             if
               Array.length affine.(s) > 0
               && Prng.float sprng < spec.locality
             then names.(affine.(s).(Prng.int sprng (Array.length affine.(s))))
             else names.(Prng.int sprng spec.troupes)
           in
           let next_arrival () =
             let at = Arrival.next arr in
             if at < traffic_end then Some at else None
           in
           let rec fire at () =
             let svc = pick_service () in
             let cid = Prng.int sprng spec.clients in
             let fh = Host.id client_hosts.(s).(cid mod spec.frontends) in
             let _, _, q = stacks.(cid mod spec.frontends) in
             Metrics.incr ms "scenario.arrivals";
             if Trace.on () then
               Trace.emit ~cat:"scenario" ~host:fh
                 ~args:[ ("svc", Event.Str svc); ("client", Event.Int cid) ]
                 "arrival";
             let cx = if Causal.on () then Causal.root ~host:fh "arrive" else Causal.none in
             Mailbox.send q (at, svc, cx);
             match next_arrival () with
             | Some at' -> ignore (Engine.schedule_abs engine ~at:at' (fire at'))
             | None -> ()
           in
           (match next_arrival () with
           | Some at -> ignore (Engine.schedule_abs engine ~at (fire at))
           | None -> ())))
  done;

  (* Chaos: crash/restart/partition/burst schedule over the server
     hosts; binding partitions and client hosts stay up and in the
     majority so the measured degradation is the service's. *)
  let chaos_steps =
    match chaos with
    | None -> 0
    | Some seed ->
      let others =
        List.concat_map Array.to_list (Array.to_list rm_hosts)
        @ List.concat_map
            (fun per_shard -> Array.to_list (Array.map Host.id per_shard))
            (Array.to_list client_hosts)
      in
      let plan =
        Plan.random ~seed ~victims:server_ids ~others ~horizon:traffic_end ()
      in
      Injector.inject_cluster cluster plan;
      List.length plan
  in

  Cluster.run ~until:horizon ~domains cluster;
  Causal.set_enabled prev_causal;

  (* --- Deterministic aggregation: merge per-shard registries in shard
     order. --- *)
  let trace_events = if want_trace then Cluster.merged_events cluster else [] in
  let causal_analysis = if causal then Some (Causal.analyze trace_events) else None in
  let agg = Metrics.create () in
  Array.iter (fun m -> Metrics.merge ~into:agg m) metrics;
  (* Fold the attribution histograms in so [report_json]'s metrics
     block carries the per-stage quantiles; the merged event stream is
     byte-identical at any domain count, hence so is the analysis. *)
  (match causal_analysis with
  | Some a -> Metrics.merge ~into:agg (Causal.stage_metrics a)
  | None -> ());
  let arrivals = Metrics.counter agg "scenario.arrivals" in
  let completed = Metrics.counter agg "scenario.ok" in
  let failed = Metrics.counter agg "scenario.failed" in
  let q p = match Metrics.quantile agg "scenario.latency" p with Some v -> v | None -> 0.0 in
  let mean_latency =
    match Metrics.histogram agg "scenario.latency" with
    | Some h when h.Metrics.count > 0 -> h.Metrics.mean
    | _ -> 0.0
  in
  let stats = Cluster.stats cluster in
  { arrivals;
    completed;
    failed;
    unserved = arrivals - completed - failed;
    sustained_rps = Float.of_int completed /. spec.duration;
    availability =
      (if arrivals = 0 then 0.0 else Float.of_int completed /. Float.of_int arrivals);
    p50 = q 0.5;
    p99 = q 0.99;
    p999 = q 0.999;
    mean_latency;
    chaos_steps;
    servers = server_count;
    events_executed = Cluster.executed cluster;
    net_sent = stats.Net.sent;
    net_delivered = stats.Net.delivered;
    net_dropped = stats.Net.dropped;
    metrics = agg;
    trace_events;
    trace_dropped = (if want_trace then Cluster.merged_dropped cluster else 0);
    causal = causal_analysis }

let arrival_name = function Poisson -> "poisson" | Burst -> "burst" | Diurnal -> "diurnal"

(* One-line JSON; excludes the domain count and any wall-clock data on
   purpose, so equal seeds at different --domains compare byte-equal. *)
let report_json spec r =
  let f = Event.float_repr in
  Printf.sprintf
    "{\"schema\":\"circus-scenario/1\",\"arrival\":%S,\"seed\":%d,\"lps\":%d,\"hosts\":%d,\
     \"troupes\":%d,\"replicas\":%d,\"rm_partitions\":%d,\"rm_replicas\":%d,\"clients\":%d,\
     \"frontends\":%d,\"duration\":%s,\"arrivals\":%d,\"completed\":%d,\"failed\":%d,\"unserved\":%d,\
     \"sustained_rps\":%s,\"availability\":%s,\"p50\":%s,\"p99\":%s,\"p999\":%s,\"mean\":%s,\
     \"chaos_steps\":%d,\"events\":%d,\"net_sent\":%d,\"net_delivered\":%d,\"net_dropped\":%d,\
     \"trace_dropped\":%d,\"metrics\":%s%s}"
    (arrival_name spec.arrival) spec.seed spec.lps spec.hosts spec.troupes spec.replicas
    spec.rm_partitions spec.rm_replicas spec.clients spec.frontends (f spec.duration) r.arrivals
    r.completed
    r.failed r.unserved (f r.sustained_rps) (f r.availability) (f r.p50) (f r.p99) (f r.p999)
    (f r.mean_latency) r.chaos_steps r.events_executed r.net_sent r.net_delivered r.net_dropped
    r.trace_dropped
    (Metrics.to_json r.metrics)
    (match r.causal with
    | Some a -> Printf.sprintf ",\"attribution\":%s" (Causal.attribution_json a)
    | None -> "")
