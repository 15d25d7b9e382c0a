(* Chaos experiments: seeded random fault plans — crashes, restarts,
   partition episodes, loss/duplication/delay/corruption bursts —
   injected into a replicated key-value troupe, then checked for the two
   properties Cooper's design promises to preserve: replica-state
   equivalence among undisturbed members and exactly-once execution per
   member incarnation.  Equal seeds must give byte-identical fault
   traces. *)

open Circus_sim
open Circus_net
open Circus
module Codec = Circus_wire.Codec
module Fault = Circus_fault
module Plan = Circus_fault.Plan
module Check = Circus_fault.Check
module Trace = Circus_trace.Trace
module Runtime = Circus_rpc.Runtime
module Ids = Circus_rpc.Ids
module Troupe = Circus_rpc.Troupe

(* ------------------------------------------------------------------ *)
(* The workload: a replicated kv troupe under a hostile network *)

let put = Interface.proc ~proc_no:0 ~name:"put" (Codec.pair Codec.string Codec.string) Codec.unit
let get = Interface.proc ~proc_no:1 ~name:"get" Codec.string (Codec.option Codec.string)
let state_codec = Codec.list (Codec.pair Codec.string Codec.string)

type member = {
  m_name : string;
  m_host : Host.t;
  m_table : (string, string) Hashtbl.t;
  (* "(incarnation, thread, call tag)" -> execution count; the
     exactly-once subject. *)
  m_execs : (string, int) Hashtbl.t;
  (* "key=value" of every applied write, for the witness filter: a
     member that (legitimately, e.g. falsely presumed crashed under a
     loss burst) missed a client-successful write is disturbed and
     drops out of the equivalence check. *)
  m_writes : (string, unit) Hashtbl.t;
}

let table_state table =
  ( (fun () ->
      Codec.encode state_codec
        (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []))),
    fun bytes ->
      Hashtbl.reset table;
      List.iter (fun (k, v) -> Hashtbl.replace table k v) (Codec.decode state_codec bytes) )

let exec_subject host ctx =
  let tid = Runtime.thread_id ctx in
  Printf.sprintf "inc%d/%d.%d:%Ld" (Host.incarnation host) tid.Ids.Thread_id.origin
    tid.Ids.Thread_id.pid (Runtime.call_tag ctx)

let kv_handlers m =
  [ Interface.handle put (fun ctx (k, v) ->
        let subject = exec_subject m.m_host ctx in
        Hashtbl.replace m.m_execs subject
          (1 + Option.value ~default:0 (Hashtbl.find_opt m.m_execs subject));
        Hashtbl.replace m.m_writes (k ^ "=" ^ v) ();
        Hashtbl.replace m.m_table k v);
    Interface.handle get (fun _ctx k -> Hashtbl.find_opt m.m_table k) ]

let start_member sys index =
  let name = Printf.sprintf "kv%d" index in
  let p = System.process sys ~name () in
  let m =
    { m_name = name;
      m_host = p.System.host;
      m_table = Hashtbl.create 16;
      m_execs = Hashtbl.create 64;
      m_writes = Hashtbl.create 64 }
  in
  ignore
    (System.spawn p (fun ctx ->
         (* Joining races with the other members' concurrent joins, and
            the plan's faults may already be active: a transient
            ringmaster disagreement or an exhausted retry budget must
            not kill the run.  A real member would back off and rejoin;
            one that never manages to join simply sits out the episode
            (the checker only scores members that witnessed every
            successful write). *)
         let rec serve attempts =
           match
             Service.serve p ctx ~name:"kv" ~state:(table_state m.m_table) (kv_handlers m)
           with
           | (_ : Troupe.t) -> ()
           | exception Fiber.Cancelled -> raise Fiber.Cancelled
           | exception _ when attempts > 0 ->
             Fiber.sleep 0.5;
             serve (attempts - 1)
           | exception _ -> ()
         in
         serve 3));
  m

let ringmaster_hosts sys =
  List.map (fun (a : Addr.t) -> a.Addr.host) (Troupe.member_processes (System.ringmaster sys))

type episode = {
  ep_plan : Plan.t;
  ep_members : member list;
  ep_crashed : (int, unit) Hashtbl.t;  (* host ids that crashed at least once *)
  (* client-side outcome log, oldest first: (key, value, succeeded) *)
  ep_writes : (string * string * bool) list;
  ep_fault_lines : string list;  (* rendered fault trace (when traced) *)
}

(* A fixed small key space with many overwrites per key: final values
   depend on write order, so a member that applied writes out of order
   or missed one genuinely diverges — the check has teeth. *)
let chaos_keys = 5

let run_chaos ?(traced = false) ?(puts = 18) ?(horizon = 30.0) ~seed () =
  let sys = System.create ~seed () in
  if traced then ignore (System.enable_tracing ~capacity:1_000_000 sys);
  Fun.protect ~finally:(fun () -> if traced then Trace.stop ()) (fun () ->
      let members = List.init 3 (start_member sys) in
      let client = System.process sys ~name:"client" () in
      let victims = List.map (fun m -> Host.id m.m_host) members in
      let others = Host.id client.System.host :: ringmaster_hosts sys in
      let plan = Fault.random_plan ~seed ~victims ~others ~horizon () in
      Fault.inject (System.net sys) plan;
      let log = ref [] in
      ignore
        (System.spawn client (fun ctx ->
             Fiber.sleep 0.4;
             let spacing = (horizon -. 0.4) /. float_of_int puts in
             for i = 0 to puts - 1 do
               let k = Printf.sprintf "k%d" (i mod chaos_keys) in
               let v = Printf.sprintf "w%03d" i in
               (match Service.call client ctx ~service:"kv" put (k, v) with
               | () -> log := (k, v, true) :: !log
               | exception Fiber.Cancelled -> raise Fiber.Cancelled
               | exception _ -> log := (k, v, false) :: !log);
               Fiber.sleep spacing
             done));
      System.run sys;
      let crashed = Hashtbl.create 4 in
      List.iter
        (fun { Plan.action; _ } ->
          match action with Plan.Crash h -> Hashtbl.replace crashed h () | _ -> ())
        plan;
      { ep_plan = plan;
        ep_members = members;
        ep_crashed = crashed;
        ep_writes = List.rev !log;
        ep_fault_lines = (if traced then Fault.fault_trace_lines () else []) })

(* ------------------------------------------------------------------ *)
(* Episode -> checker inputs *)

let successful_writes ep = List.filter_map (fun (k, v, ok) -> if ok then Some (k, v) else None) ep.ep_writes

(* Expected view: last successful write per key, oldest first fold. *)
let expected_view ep =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (successful_writes ep);
  tbl

(* Surviving, never-disturbed members: never crashed and witnessed
   every client-successful write. *)
let consistent_members ep =
  List.filter
    (fun m ->
      (not (Hashtbl.mem ep.ep_crashed (Host.id m.m_host)))
      && List.for_all (fun (k, v) -> Hashtbl.mem m.m_writes (k ^ "=" ^ v)) (successful_writes ep))
    ep.ep_members

let episode_violations ep =
  let expected = expected_view ep in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) expected [] |> List.sort compare in
  let agree =
    Check.agree_on ~keys ~show:Fun.id
      ~members:
        (("expected", Hashtbl.find_opt expected)
        :: List.map
             (fun m -> (m.m_name, Hashtbl.find_opt m.m_table))
             (consistent_members ep))
  in
  let counts =
    List.concat_map
      (fun m ->
        Hashtbl.fold
          (fun subject count acc -> (m.m_name ^ "/" ^ subject, count) :: acc)
          m.m_execs [])
      ep.ep_members
  in
  agree @ Check.exactly_once counts

(* ------------------------------------------------------------------ *)
(* Plan DSL and generator *)

(* A hand-written plan step. *)
let step at action = { Plan.at; action }

let test_validate_rejects () =
  let bad msg plan =
    match Plan.validate plan with
    | Ok () -> Alcotest.failf "validate accepted %s" msg
    | Error _ -> ()
  in
  bad "negative time" [ step (-1.0) (Plan.Crash 0) ];
  bad "unsorted" [ step 2.0 (Plan.Crash 0); step 1.0 (Plan.Restart 0) ];
  bad "crash of a down host" [ step 1.0 (Plan.Crash 0); step 2.0 (Plan.Crash 0) ];
  bad "restart of an up host" [ step 1.0 (Plan.Restart 0) ];
  bad "zero-duration burst" [ step 1.0 (Plan.Loss_burst { rate = 0.5; duration = 0.0 }) ];
  bad "rate above 1" [ step 1.0 (Plan.Loss_burst { rate = 1.5; duration = 1.0 }) ];
  bad "more groups than a partition holds"
    [ step 1.0
        (Plan.Partition
           { groups = List.init (Net.max_partition_groups + 1) (fun i -> [ i ]);
             duration = 1.0 }) ];
  Alcotest.(check bool) "well-formed plan accepted" true
    (Plan.validate
       [ step 1.0 (Plan.Crash 0);
         step 1.5 (Plan.Loss_burst { rate = 0.3; duration = 1.0 });
         step 2.0 (Plan.Restart 0) ]
    = Ok ())

let prop_random_plans_valid =
  QCheck.Test.make ~name:"random plans validate and respect the horizon" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let horizon = 30.0 in
      let plan =
        Fault.random_plan ~seed ~victims:[ 1; 2; 3 ] ~others:[ 0; 9 ] ~horizon ()
      in
      (match Plan.validate plan with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "invalid plan: %s@.%a" msg Plan.pp plan);
      List.for_all
        (fun { Plan.at; action } ->
          at >= 0.0
          && at < horizon
          &&
          match action with
          | Plan.Partition { groups; duration } ->
            at +. duration < horizon
            (* others always together in the majority group *)
            && (match groups with
               | [ majority; minority ] ->
                 List.for_all (fun h -> List.mem h majority) [ 0; 9 ]
                 && minority <> []
                 && List.for_all (fun h -> List.mem h [ 1; 2; 3 ]) minority
               | _ -> false)
          | Plan.Loss_burst { duration; _ }
          | Plan.Dup_burst { duration; _ }
          | Plan.Delay_burst { duration; _ }
          | Plan.Corrupt_burst { duration; _ } -> at +. duration < horizon
          | Plan.Crash _ | Plan.Restart _ | Plan.Heal -> true)
        plan)

let test_equal_seeds_equal_plans () =
  let gen () = Fault.random_plan ~seed:4242 ~victims:[ 1; 2; 3 ] ~others:[ 0 ] () in
  Alcotest.(check string) "identical rendering"
    (Format.asprintf "%a" Plan.pp (gen ()))
    (Format.asprintf "%a" Plan.pp (gen ()))

(* ------------------------------------------------------------------ *)
(* Checker unit tests *)

let test_checker_exactly_once () =
  Alcotest.(check int) "clean counts pass" 0
    (List.length (Check.exactly_once [ ("a", 1); ("b", 1) ]));
  Alcotest.(check int) "a duplicate is flagged" 1
    (List.length (Check.exactly_once [ ("a", 1); ("b", 2) ]))

let test_checker_agreement () =
  Alcotest.(check int) "equal states pass" 0
    (List.length (Check.all_equal ~label:"kv" [ ("m0", "s"); ("m1", "s") ]));
  Alcotest.(check int) "divergence is flagged" 1
    (List.length (Check.all_equal ~label:"kv" [ ("m0", "s"); ("m1", "t") ]));
  let m0 k = if k = "x" then Some "1" else None in
  let m1 _ = None in
  Alcotest.(check int) "missing key is flagged" 1
    (List.length
       (Check.agree_on ~keys:[ "x"; "y" ] ~show:Fun.id ~members:[ ("m0", m0); ("m1", m1) ]))

(* ------------------------------------------------------------------ *)
(* Injector semantics *)

let test_burst_epoch_guard () =
  (* A newer burst of the same kind must not be clobbered by the stale
     expiry of an earlier, shorter one. *)
  let engine = Engine.create () in
  let net = Net.create engine () in
  Fault.inject net
    [ step 1.0 (Plan.Loss_burst { rate = 0.5; duration = 1.0 });
      step 1.5 (Plan.Loss_burst { rate = 0.9; duration = 2.0 }) ];
  let probe at f = ignore (Engine.schedule_abs engine ~at (fun () -> f ())) in
  let at_1_2 = ref nan and at_2_2 = ref nan and at_4_0 = ref nan in
  probe 1.2 (fun () -> at_1_2 := Net.extra_loss net);
  probe 2.2 (fun () -> at_2_2 := Net.extra_loss net);
  (* first burst's expiry fired at 2.0 — must be a no-op *)
  probe 4.0 (fun () -> at_4_0 := Net.extra_loss net);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "first burst live" 0.5 !at_1_2;
  Alcotest.(check (float 1e-9)) "stale expiry kept the newer burst" 0.9 !at_2_2;
  Alcotest.(check (float 1e-9)) "newer burst expired on schedule" 0.0 !at_4_0

let test_inject_rejects_invalid () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  Alcotest.(check bool) "invalid plan rejected" true
    (try Fault.inject net [ step 1.0 (Plan.Restart 0) ]; false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fail-stop CPU accounting: a crashed machine burns no CPU.  A stale
   reference to a plan-crashed host must have its charges rejected
   ([Host.use_cpu] raises) with the CPU total frozen, and charge again
   normally after the plan restarts the host. *)

let test_crashed_host_rejects_charges () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let victim = Net.add_host net ~name:"victim" () in
  let other = Net.add_host net ~name:"other" () in
  Fault.inject net
    [ step 1.0 (Plan.Crash (Host.id victim)); step 2.0 (Plan.Restart (Host.id victim)) ];
  let meter = Meter.create () in
  let rejected = ref false in
  let frozen_total = ref nan and frozen_meter = ref nan in
  let after_restart = ref false in
  ignore
    (Host.spawn other (fun () ->
         Host.use_cpu victim ~meter ~kind:`User 0.01;
         let live_total = Host.cpu_time victim in
         Fiber.sleep 1.1;  (* victim is down (crashed at 1.0, restarts at 2.0) *)
         (match Host.use_cpu victim ~meter ~kind:`User 0.01 with
         | () -> ()
         | exception Invalid_argument _ -> rejected := true);
         frozen_total := Host.cpu_time victim -. live_total;
         frozen_meter := Meter.total meter;
         Fiber.sleep 1.5;  (* victim has been restarted *)
         Host.use_cpu victim ~meter ~kind:`User 0.01;
         after_restart := true));
  Engine.run engine;
  Alcotest.(check bool) "charge on a crashed host rejected" true !rejected;
  Alcotest.(check (float 1e-9)) "cpu total frozen across the rejection" 0.0 !frozen_total;
  Alcotest.(check (float 1e-9)) "meter frozen across the rejection" 0.01 !frozen_meter;
  Alcotest.(check bool) "restarted host charges again" true !after_restart;
  Alcotest.(check (float 1e-9)) "post-restart charge metered" 0.02 (Meter.total meter)

(* ------------------------------------------------------------------ *)
(* Directed episode: crash + restart + rejoin with state transfer *)

let test_crash_restart_rejoin () =
  let sys = System.create ~seed:11 () in
  let members = List.init 2 (start_member sys) in
  (* The victim rejoins on every host restart: a fresh process (fresh
     runtime, fresh port) on the same machine re-serves "kv", pulling
     the current state from the survivors — the "boot script" the host
     restart hooks exist for. *)
  let victim = System.process sys ~name:"kv2" () in
  let v =
    { m_name = "kv2";
      m_host = victim.System.host;
      m_table = Hashtbl.create 16;
      m_execs = Hashtbl.create 64;
      m_writes = Hashtbl.create 64 }
  in
  ignore
    (System.spawn victim (fun ctx ->
         ignore (Service.serve victim ctx ~name:"kv" ~state:(table_state v.m_table) (kv_handlers v))));
  let rejoin_table = Hashtbl.create 16 in
  let rejoined = ref false in
  Host.on_restart v.m_host (fun () ->
      rejoined := true;
      let p = System.process sys ~host:v.m_host ~name:"kv2'" () in
      let m' = { v with m_table = rejoin_table; m_writes = Hashtbl.create 64 } in
      ignore
        (System.spawn p (fun ctx ->
             ignore
               (Service.serve p ctx ~name:"kv" ~state:(table_state rejoin_table)
                  (kv_handlers m')))));
  let incarnation0 = Host.incarnation v.m_host in
  Fault.inject (System.net sys)
    [ step 1.5 (Plan.Crash (Host.id v.m_host)); step 3.0 (Plan.Restart (Host.id v.m_host)) ];
  let client = System.process sys ~name:"client" () in
  ignore
    (System.spawn client (fun ctx ->
         Fiber.sleep 1.0;
         Service.call client ctx ~service:"kv" put ("before", "crash");
         Fiber.sleep 1.5;  (* victim is down *)
         Service.call client ctx ~service:"kv" put ("while", "down");
         Fiber.sleep 2.5;  (* victim has rejoined *)
         Service.call client ctx ~service:"kv" put ("after", "rejoin")));
  System.run sys;
  Alcotest.(check bool) "restart hook ran" true !rejoined;
  Alcotest.(check int) "incarnation bumped" (incarnation0 + 1) (Host.incarnation v.m_host);
  (* The rejoined incarnation caught up via state transfer and then
     tracked the survivors. *)
  let render table =
    String.concat ";"
      (List.map
         (fun (k, w) -> k ^ "=" ^ w)
         (List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) table [])))
  in
  let states =
    ("kv2'", render rejoin_table)
    :: List.map (fun m -> (m.m_name, render m.m_table)) members
  in
  List.iter
    (fun (name, s) ->
      Alcotest.(check string) (name ^ " has the full history")
        "after=rejoin;before=crash;while=down" s)
    states;
  Check.report (Check.all_equal ~label:"kv" states);
  Alcotest.(check int) "replicas equivalent" 0 (List.length (Check.all_equal ~label:"kv" states))

(* ------------------------------------------------------------------ *)
(* The qcheck chaos property (>= 50 random plans) *)

let pp_violations ppf vs =
  List.iter (fun v -> Format.fprintf ppf "%a@." Check.pp_violation v) vs

let prop_chaos_consistency =
  QCheck.Test.make ~name:"chaos preserves consistency and exactly-once" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let ep = run_chaos ~seed () in
      let violations = episode_violations ep in
      if violations <> [] then
        QCheck.Test.fail_reportf "seed %d: %d violation(s)@.%a@.plan:@.%a" seed
          (List.length violations) pp_violations violations Plan.pp ep.ep_plan;
      (* Liveness guard against vacuity only: a plan is free to be harsh
         (long partitions or loss bursts can exhaust the client's retry
         budget), but at least one write must land or the consistency
         check would be trivially true. *)
      let ok = List.length (successful_writes ep) in
      if ok = 0 then
        QCheck.Test.fail_reportf "seed %d: no write succeeded (vacuous run)" seed;
      true)

let test_equal_seed_chaos_traces_identical () =
  let run () =
    let ep = run_chaos ~traced:true ~seed:20260806 () in
    (String.concat "\n" ep.ep_fault_lines, successful_writes ep)
  in
  let lines1, ok1 = run () in
  let lines2, ok2 = run () in
  Alcotest.(check bool) "fault trace non-trivial" true (String.length lines1 > 100);
  Alcotest.(check string) "fault traces byte-identical" lines1 lines2;
  Alcotest.(check int) "same outcomes" (List.length ok1) (List.length ok2)

(* ------------------------------------------------------------------ *)
(* Golden fault traces: three pinned seeds whose rendered fault logs
   are committed as fixtures.  They pin down the injector's event
   timing, the trace rendering, and the simulation's random streams all
   at once — any unintended drift in determinism shows up as a byte
   diff.  After an *intentional* change (injector semantics, float
   formatting, net timing), regenerate with:

     CHAOS_GOLDEN_WRITE=test/fixtures dune exec test/test_fault.exe *)

let golden_seeds = [ 101; 202; 303 ]

(* Resolve the fixture whether we run under `dune runtest` (cwd = the
   test directory) or `dune exec test/test_fault.exe` (cwd = the
   project root). *)
let golden_path seed =
  let rel = Printf.sprintf "fixtures/chaos_%d.fault.jsonl" seed in
  if Sys.file_exists rel then rel else Filename.concat "test" rel

let golden_text seed =
  let ep = run_chaos ~traced:true ~seed () in
  String.concat "" (List.map (fun l -> l ^ "\n") ep.ep_fault_lines)

let test_chaos_goldens () =
  List.iter
    (fun seed ->
      let path = golden_path seed in
      let expected =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let actual = golden_text seed in
      if not (String.equal expected actual) then
        Alcotest.failf
          "fault trace for seed %d diverges from %s (fixture %d bytes, got %d).\n\
           If the injector or timing model changed on purpose, regenerate with:\n\
           CHAOS_GOLDEN_WRITE=test/fixtures dune exec test/test_fault.exe"
          seed path (String.length expected) (String.length actual))
    golden_seeds

let test_different_seed_chaos_traces_differ () =
  let run seed =
    let ep = run_chaos ~traced:true ~seed () in
    String.concat "\n" ep.ep_fault_lines
  in
  Alcotest.(check bool) "traces differ" false (String.equal (run 1) (run 2))

(* ------------------------------------------------------------------ *)

let () =
  (match Sys.getenv_opt "CHAOS_GOLDEN_WRITE" with
  | Some dir ->
    List.iter
      (fun seed ->
        let path = Filename.concat dir (Filename.basename (golden_path seed)) in
        let oc = open_out_bin path in
        output_string oc (golden_text seed);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      golden_seeds;
    exit 0
  | None -> ());
  (match Sys.getenv_opt "CHAOS_DEBUG_SEED" with
  | Some s ->
    let seed = int_of_string s in
    let ep = run_chaos ~seed () in
    Format.printf "plan:@.%a@." Plan.pp ep.ep_plan;
    List.iter
      (fun (k, v, ok) -> Printf.printf "  write %s=%s -> %s\n" k v (if ok then "ok" else "FAIL"))
      ep.ep_writes;
    List.iter
      (fun m -> Printf.printf "  %s: table %d entries, %d witnessed\n" m.m_name
          (Hashtbl.length m.m_table) (Hashtbl.length m.m_writes))
      ep.ep_members;
    List.iter (fun v -> Format.printf "%a@." Check.pp_violation v) (episode_violations ep);
    exit 0
  | None -> ());
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_fault"
    [ ( "plan",
        [ Alcotest.test_case "validate rejects malformed" `Quick test_validate_rejects;
          Alcotest.test_case "equal seeds equal plans" `Quick test_equal_seeds_equal_plans ]
        @ qcheck [ prop_random_plans_valid ] );
      ( "checker",
        [ Alcotest.test_case "exactly-once" `Quick test_checker_exactly_once;
          Alcotest.test_case "agreement" `Quick test_checker_agreement ] );
      ( "injector",
        [ Alcotest.test_case "burst epoch guard" `Quick test_burst_epoch_guard;
          Alcotest.test_case "rejects invalid plan" `Quick test_inject_rejects_invalid ] );
      ( "episodes",
        [ Alcotest.test_case "crashed host rejects charges" `Quick
            test_crashed_host_rejects_charges;
          Alcotest.test_case "crash+restart+rejoin" `Quick test_crash_restart_rejoin;
          Alcotest.test_case "equal-seed traces identical" `Quick
            test_equal_seed_chaos_traces_identical;
          Alcotest.test_case "golden fault traces" `Quick test_chaos_goldens;
          Alcotest.test_case "different seeds differ" `Quick
            test_different_seed_chaos_traces_differ ]
        @ qcheck [ prop_chaos_consistency ] ) ]
