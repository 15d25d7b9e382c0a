(* Scenario engine: arrival determinism, re-partition stability of
   full runs (the merged trace and report are byte-identical at any
   domain count, fault-free and under chaos), placement invariants,
   and the Ringmaster's name-hash partitioning. *)

open Circus_sim
open Circus_net
open Circus_binding
module Scenario = Circus_scenario.Scenario
module Arrival = Circus_scenario.Arrival
module Placement = Circus_scenario.Placement
module Export = Circus_trace.Export

(* ------------------------------------------------------------------ *)
(* Arrival processes *)

let processes =
  [ ("poisson", Arrival.Poisson { rate = 40.0 });
    ( "onoff",
      Arrival.Onoff { rate_on = 120.0; rate_off = 5.0; mean_on = 0.3; mean_off = 1.0 } );
    ("diurnal", Arrival.Diurnal { base = 2.0; peak = 80.0; period = 10.0 }) ]

let take_arrivals ~seed ~start process n =
  let gen = Arrival.create ~start (Prng.create seed) process in
  List.init n (fun _ -> Arrival.next gen)

let prop_arrival_deterministic =
  QCheck.Test.make ~name:"arrival sequence is a pure function of the seed" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 0 2))
    (fun (seed, k) ->
      let _, process = List.nth processes k in
      take_arrivals ~seed ~start:1.0 process 200
      = take_arrivals ~seed ~start:1.0 process 200)

let prop_arrival_increasing =
  QCheck.Test.make ~name:"arrivals strictly increase and respect start" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 0 2))
    (fun (seed, k) ->
      let _, process = List.nth processes k in
      let ts = take_arrivals ~seed ~start:2.5 process 200 in
      List.for_all (fun t -> t > 2.5) ts
      && fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t > prev, t))
              (true, Float.neg_infinity) ts))

let test_arrival_seeds_differ () =
  List.iter
    (fun (name, process) ->
      if take_arrivals ~seed:1 ~start:0.0 process 50 = take_arrivals ~seed:2 ~start:0.0 process 50
      then Alcotest.failf "%s: seeds 1 and 2 gave identical sequences" name)
    processes

let test_arrival_mean_rate () =
  (* Long-run empirical rate within 15% of the declared mean. *)
  List.iter
    (fun (name, process) ->
      let n = 4000 in
      let ts = take_arrivals ~seed:7 ~start:0.0 process n in
      let span = List.nth ts (n - 1) in
      let rate = Float.of_int n /. span in
      let expect =
        match process with
        | Arrival.Poisson { rate } -> rate
        | Arrival.Onoff { rate_on; rate_off; mean_on; mean_off } ->
          ((rate_on *. mean_on) +. (rate_off *. mean_off)) /. (mean_on +. mean_off)
        | Arrival.Diurnal _ -> assert false
      in
      let err = Float.abs (rate -. expect) /. expect in
      if err > 0.15 then Alcotest.failf "%s: empirical %.2f vs mean %.2f" name rate expect)
    [ List.nth processes 0; List.nth processes 1 ]

(* ------------------------------------------------------------------ *)
(* Re-partition stability: full runs across domain counts *)

let small_spec ?(arrival = Scenario.Poisson) seed =
  { Scenario.seed;
    lps = 4;
    hosts = 40;
    troupes = 8;
    replicas = 3;
    rm_partitions = 2;
    rm_replicas = 2;
    clients = 200;
    think = 8.0;
    frontends = 2;
    pool = 4;
    locality = 0.8;
    payload = 32;
    warmup = 1.5;
    duration = 1.0;
    arrival }

let run_bytes ?chaos spec ~domains =
  let r = Scenario.run ~domains ?chaos ~tracing:true ~trace_capacity:16_384 spec in
  (Scenario.report_json spec r, Export.jsonl_events r.Scenario.trace_events)

let prop_domains_identical =
  QCheck.Test.make ~name:"report and trace are byte-identical at domains 1/2/4" ~count:3
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let spec = small_spec ~arrival:Scenario.Burst seed in
      let report1, trace1 = run_bytes spec ~domains:1 in
      let report2, trace2 = run_bytes spec ~domains:2 in
      let report4, trace4 = run_bytes spec ~domains:4 in
      report1 = report2 && report1 = report4 && trace1 = trace2 && trace1 = trace4)

let prop_domains_identical_chaos =
  QCheck.Test.make ~name:"domains 1/2/4 identical under a chaos plan" ~count:2
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let spec = small_spec seed in
      let report1, trace1 = run_bytes ~chaos:(seed + 17) spec ~domains:1 in
      let report2, trace2 = run_bytes ~chaos:(seed + 17) spec ~domains:2 in
      let report4, trace4 = run_bytes ~chaos:(seed + 17) spec ~domains:4 in
      report1 = report2 && report1 = report4 && trace1 = trace2 && trace1 = trace4)

(* The repro that exposed the parallel engine's cross-domain races:
   one pinned burst world, run once serially and five times at four
   domains.  Every run must give the serial report and trace bytes.
   CI repeats this case to raise the repetition count. *)
let test_fixed_seed_repeated_d4 () =
  let spec = small_spec ~arrival:Scenario.Burst 3 in
  let reference = run_bytes spec ~domains:1 in
  if snd reference = "" then Alcotest.fail "empty trace: vacuous comparison";
  for i = 1 to 5 do
    let report, trace = run_bytes spec ~domains:4 in
    if report <> fst reference then Alcotest.failf "d4 run %d: report differs from d1" i;
    if trace <> snd reference then Alcotest.failf "d4 run %d: trace differs from d1" i
  done

let test_small_run_healthy () =
  let r = Scenario.run (small_spec 2026) in
  Alcotest.(check int) "all arrivals served" r.Scenario.arrivals r.Scenario.completed;
  Alcotest.(check int) "no failures" 0 r.Scenario.failed;
  if not (r.Scenario.availability >= 0.999) then
    Alcotest.failf "availability %.4f" r.Scenario.availability;
  if not (r.Scenario.p50 > 0.0 && r.Scenario.p50 <= r.Scenario.p99) then
    Alcotest.failf "quantiles out of order: p50 %.4f p99 %.4f" r.Scenario.p50 r.Scenario.p99

let test_different_seeds_differ () =
  let report_of seed =
    let r = Scenario.run (small_spec seed) in
    Scenario.report_json (small_spec seed) r
  in
  if report_of 1 = report_of 2 then Alcotest.fail "seeds 1 and 2 gave identical reports"

let test_validate_rejects () =
  let bad f =
    match Scenario.validate (f (small_spec 0)) with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "expected rejection"
  in
  bad (fun s -> { s with Scenario.lps = 0 });
  bad (fun s -> { s with Scenario.locality = 1.5 });
  bad (fun s -> { s with Scenario.hosts = 10 });
  (* Warmup shorter than the registration schedule is the classic
     foot-gun: traffic before binding completes melts the registry. *)
  bad (fun s -> { s with Scenario.warmup = 0.1 });
  (* Every comparison with NaN is false, so a bound alone lets it
     through; non-finite floats must be rejected before a world is
     built. *)
  bad (fun s -> { s with Scenario.think = nan });
  bad (fun s -> { s with Scenario.think = infinity });
  bad (fun s -> { s with Scenario.warmup = nan });
  bad (fun s -> { s with Scenario.warmup = infinity });
  bad (fun s -> { s with Scenario.duration = nan });
  bad (fun s -> { s with Scenario.duration = infinity })

(* Cross-commit golden: the MD5s of the report and of the merged trace
   of two short 200-host worlds at one domain, the idle-heavy poisson
   shape perfbench measures and a burst world under a chaos plan.  A
   change that claims a byte-identical simulated schedule (a faster
   park, a cheaper event) must leave both digests alone; any move is
   schedule drift, and only a deliberate model change may re-record
   them. *)
let golden_world ?chaos ~arrival ~seed ~expect_report ~expect_trace () =
  let spec =
    { Scenario.default with Scenario.seed; hosts = 200; duration = 1.0; arrival }
  in
  let r = Scenario.run ~domains:1 ?chaos ~tracing:true ~trace_capacity:1_000_000 spec in
  Alcotest.(check int) "no trace events dropped" 0 r.Scenario.trace_dropped;
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "report md5" expect_report (md5 (Scenario.report_json spec r));
  Alcotest.(check string) "trace md5" expect_trace
    (md5 (Export.jsonl_events r.Scenario.trace_events))

let test_golden_poisson () =
  golden_world ~arrival:Scenario.Poisson ~seed:1000
    ~expect_report:"ca6338d10ffceebf2c635aad63bf7475"
    ~expect_trace:"f38b8aa52ee1c96f36d2edb646179336" ()

let test_golden_burst_chaos () =
  golden_world ~chaos:5 ~arrival:Scenario.Burst ~seed:2000
    ~expect_report:"4e7395725a4d11acb0bc2127c7372561"
    ~expect_trace:"3ecb435b1d90e3f56b80886a6ba68987" ()

(* ------------------------------------------------------------------ *)
(* Placement *)

let mk_placement ~lps ~per_lp =
  let engine = Engine.create ~seed:3 () in
  let placement = Placement.create ~lps () in
  for lp = 0 to lps - 1 do
    for k = 0 to per_lp - 1 do
      let host =
        Host.create engine
          ~id:((100 * lp) + k)
          ~name:(Printf.sprintf "s-%d-%d" lp k)
          ~attributes:(Placement.server_attributes ~lp) ()
      in
      Placement.add_server placement ~lp host
    done
  done;
  placement

let machine_ids ms = List.map (fun m -> m.Circus_config.Solver.machine_id) ms

let test_placement_distinct_and_balanced () =
  let placement = mk_placement ~lps:4 ~per_lp:3 in
  let placed = ref [] in
  for i = 0 to 7 do
    match Placement.place placement ~caller_lp:(i mod 4) ~replicas:3 with
    | Error m -> Alcotest.fail m
    | Ok ms ->
      let ids = machine_ids ms in
      Alcotest.(check int) "replica count" 3 (List.length ids);
      Alcotest.(check int) "distinct hosts" 3 (List.length (List.sort_uniq compare ids));
      placed := ids @ !placed
  done;
  (* 8 troupes x 3 replicas over 12 hosts: balanced placement puts
     exactly 24/12 = 2 members on every host, hence 6 on every shard
     (host [100 * lp + k] serves shard [lp]). *)
  let load p = List.length (List.filter p !placed) in
  for lp = 0 to 3 do
    Alcotest.(check int) (Printf.sprintf "lp %d load" lp) 6 (load (fun id -> id / 100 = lp));
    for k = 0 to 2 do
      let id = (100 * lp) + k in
      Alcotest.(check int) (Printf.sprintf "host %d load" id) 2 (load (Int.equal id))
    done
  done

(* Scenario.default's server shape: the hosts left over after the
   Ringmaster and front-end hosts, dealt round-robin over the shards
   with ids numbered after those hosts, as [Scenario.run] lays them out.
   The digest of the 100 troupes' machine lists pins the placement
   order; it must only move with a deliberate placement change. *)
let test_placement_default_shape_golden () =
  let d = Scenario.default in
  let reserved = (d.rm_partitions * d.rm_replicas) + (d.lps * d.frontends) in
  let engine = Engine.create ~seed:3 () in
  let placement = Placement.create ~lps:d.lps () in
  for k = 0 to d.hosts - reserved - 1 do
    let lp = k mod d.lps in
    Placement.add_server placement ~lp
      (Host.create engine ~id:(reserved + k) ~name:(Printf.sprintf "srv-%d" k)
         ~attributes:(Placement.server_attributes ~lp) ())
  done;
  Alcotest.(check int) "servers" 924 (Placement.server_count placement);
  let placed = Buffer.create 2048 in
  for i = 0 to d.troupes - 1 do
    match Placement.place placement ~caller_lp:(i mod d.lps) ~replicas:d.replicas with
    | Error m -> Alcotest.fail m
    | Ok ms ->
      Buffer.add_string placed (String.concat "," (List.map string_of_int (machine_ids ms)));
      Buffer.add_char placed '\n'
  done;
  Alcotest.(check string) "placement digest" "359ac0933f7b71dae6924b40cbaae368"
    (Digest.to_hex (Digest.string (Buffer.contents placed)))

let test_placement_deterministic () =
  let run () =
    let placement = mk_placement ~lps:3 ~per_lp:4 in
    List.init 6 (fun i ->
        match Placement.place placement ~caller_lp:(i mod 3) ~replicas:3 with
        | Ok ms -> machine_ids ms
        | Error m -> Alcotest.fail m)
  in
  if run () <> run () then Alcotest.fail "equal call sequences placed differently"

(* ------------------------------------------------------------------ *)
(* Name-hash Ringmaster partitioning *)

let test_name_hash_fixed () =
  (* FNV-1a 64-bit known vectors: a name's partition must be a fixed
     function of its bytes, never Hashtbl.hash. *)
  List.iter
    (fun (name, hash) ->
      List.iter
        (fun partitions ->
          Alcotest.(check int)
            (Printf.sprintf "%S mod %d" name partitions)
            (Int64.to_int (Int64.unsigned_rem hash (Int64.of_int partitions)))
            (Ringmaster.partition_of_name ~partitions name))
        [ 2; 3; 7; 1_000_003 ])
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ]

let test_partition_of_name () =
  for partitions = 1 to 5 do
    for i = 0 to 49 do
      let name = Printf.sprintf "svc-%04d" i in
      let p = Ringmaster.partition_of_name ~partitions name in
      if p < 0 || p >= partitions then Alcotest.failf "%s -> %d of %d" name p partitions;
      Alcotest.(check int) "stable" p (Ringmaster.partition_of_name ~partitions name)
    done
  done

let test_partition_ids () =
  Alcotest.(check int64) "partition 0 is the legacy id" 1L (Ringmaster.partition_troupe_id 0);
  (* Minted ids carry their partition in the generator seed. *)
  for p = 0 to 3 do
    let fresh = Circus_rpc.Ids.Troupe_id.generator ~seed:(7 + p) in
    for _ = 1 to 3 do
      Alcotest.(check int) "partition_of_id" p (Ringmaster.partition_of_id (fresh ()))
    done
  done

(* ------------------------------------------------------------------ *)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_scenario"
    [ ( "arrival",
        [ Alcotest.test_case "seeds differ" `Quick test_arrival_seeds_differ;
          Alcotest.test_case "mean rate" `Quick test_arrival_mean_rate ]
        @ qcheck [ prop_arrival_deterministic; prop_arrival_increasing ] );
      ( "scenario",
        [ Alcotest.test_case "small run healthy" `Quick test_small_run_healthy;
          Alcotest.test_case "different seeds differ" `Quick test_different_seeds_differ;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects ]
        @ qcheck [ prop_domains_identical; prop_domains_identical_chaos ] );
      ( "determinism",
        [ Alcotest.test_case "burst seed 3: five d4 runs = d1" `Quick
            test_fixed_seed_repeated_d4 ] );
      ( "golden",
        [ Alcotest.test_case "poisson 200 hosts d1" `Quick test_golden_poisson;
          Alcotest.test_case "burst 200 hosts d1, chaos" `Quick test_golden_burst_chaos ] );
      ( "placement",
        [ Alcotest.test_case "distinct and balanced" `Quick test_placement_distinct_and_balanced;
          Alcotest.test_case "deterministic" `Quick test_placement_deterministic;
          Alcotest.test_case "default shape golden" `Quick test_placement_default_shape_golden ] );
      ( "partitioning",
        [ Alcotest.test_case "name hash fixed" `Quick test_name_hash_fixed;
          Alcotest.test_case "partition of name" `Quick test_partition_of_name;
          Alcotest.test_case "partition ids" `Quick test_partition_ids ] ) ]
