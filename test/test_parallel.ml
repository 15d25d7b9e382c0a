(* Tests for the parallel engine: pinned per-LP PRNG streams, the SPSC
   channel, cross-LP post validation and error propagation, K = 1
   degradation to the sequential engine, cross-shard datagram delivery,
   the central oracle — equal seeds give byte-identical merged traces
   for any domain count, plain and under a chaos plan — and the windowed
   engine against a sequential reference of its stated rule. *)

open Circus_sim
open Circus_net
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event
module Export = Circus_trace.Export
module Plan = Circus_fault.Plan
module Injector = Circus_fault.Injector

(* [Fiber.sleep_busy] of a duration, as [Host.use_cpu] makes it. *)
let busy_sleep d =
  let fiber = Fiber.self () in
  (Fiber.nap fiber).Fiber.nap_s <- d;
  Fiber.sleep_busy fiber

(* ------------------------------------------------------------------ *)
(* Prng.stream: pinned sequences, stability under re-partitioning. *)

(* Golden values for seed 42.  If these move, every recorded parallel
   trace in the repo silently changes meaning — treat a failure here as
   an incompatible change, not a test to update casually. *)
let test_stream_pinned () =
  let draws index =
    let root = Prng.create 42 in
    let s = Prng.stream root ~index in
    let d1 = Prng.int64 s in
    let d2 = Prng.int64 s in
    (d1, d2)
  in
  let check name expected got = Alcotest.(check (pair int64 int64)) name expected got in
  check "stream 0" (3505631722651584648L, 4880698606694517094L) (draws 0);
  check "stream 1" (-681878674267957505L, -7414694342264450337L) (draws 1);
  check "stream 2" (1106807201132000495L, -841772654700418151L) (draws 2)

let test_stream_stable () =
  (* Deriving other streams (or none) must not perturb stream [i]:
     re-partitioning a simulation into a different LP count leaves each
     LP's randomness untouched. *)
  let many =
    let root = Prng.create 9 in
    let streams = List.init 8 (fun i -> Prng.stream root ~index:i) in
    Prng.int64 (List.nth streams 5)
  in
  let alone =
    let root = Prng.create 9 in
    Prng.int64 (Prng.stream root ~index:5)
  in
  Alcotest.(check int64) "stream 5 independent of siblings" alone many;
  (* ...and must not advance the root. *)
  let advanced =
    let root = Prng.create 9 in
    ignore (Prng.stream root ~index:3);
    Prng.int64 root
  in
  let fresh = Prng.int64 (Prng.create 9) in
  Alcotest.(check int64) "stream leaves the root unadvanced" fresh advanced;
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Prng.stream: negative index") (fun () ->
      ignore (Prng.stream (Prng.create 0) ~index:(-1)))

(* ------------------------------------------------------------------ *)
(* The SPSC channel: a growable FIFO.  Order and arrivals survive each
   doubling, and a drained slot keeps no thunk alive. *)

let test_channel_fifo_growth () =
  let ch = Lp.Channel.create () in
  Alcotest.(check bool) "fresh channel empty" true (Lp.Channel.is_empty ch);
  let n = 100 in
  let got = ref [] in
  for i = 0 to n - 1 do
    Lp.Channel.push ch ~arrival:(1000.0 -. float_of_int i) (fun () -> got := i :: !got)
  done;
  let arrivals = ref [] in
  Lp.Channel.drain ch ~f:(fun ~arrival thunk ->
      arrivals := arrival :: !arrivals;
      thunk ());
  Alcotest.(check (list (float 0.0))) "arrivals travel with their thunks"
    (List.init n (fun i -> 1000.0 -. float_of_int i))
    (List.rev !arrivals);
  Alcotest.(check (list int)) "push order across three doublings" (List.init n Fun.id)
    (List.rev !got);
  Alcotest.(check bool) "drained channel empty" true (Lp.Channel.is_empty ch)

(* Model: a list of (arrival, id) in push order.  Each op pushes a
   fresh thunk (a closure over a cell holding its id, the cell
   reachable otherwise only through a weak pointer) or drains.  A
   drain must yield the model's list exactly, and after a full major
   collection every drained thunk must be gone. *)
type chan_op =
  | Push of int
  | Drain

let run_chan_ops ops =
  let ch = Lp.Channel.create () in
  let pushed = List.length (List.filter (function Push _ -> true | Drain -> false) ops) in
  let weak = Weak.create (max 1 pushed) in
  let model = ref [] and next = ref 0 and ok = ref true and drained = ref [] and last = ref (-1) in
  let drain () =
    let seen = ref [] in
    Lp.Channel.drain ch ~f:(fun ~arrival thunk ->
        thunk ();
        seen := (arrival, !last) :: !seen);
    if !seen <> !model then ok := false;
    drained := List.map snd !model @ !drained;
    model := [];
    if not (Lp.Channel.is_empty ch) then ok := false
  in
  List.iter
    (function
      | Push a ->
        let id = !next in
        incr next;
        let cell = ref id in
        let thunk () = last := !cell in
        Weak.set weak id (Some cell);
        Lp.Channel.push ch ~arrival:(float_of_int a) thunk;
        model := (float_of_int a, id) :: !model
      | Drain -> drain ())
    ops;
  drain ();
  Gc.full_major ();
  List.iter (fun id -> if Weak.check weak id then ok := false) !drained;
  ignore (Sys.opaque_identity ch);
  !ok

let prop_channel_matches_list =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 400)
        (frequency [ (60, map (fun a -> Push a) (int_bound 1000)); (1, return Drain) ]))
  in
  let arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat "; "
          (List.map (function Push a -> Printf.sprintf "push %d" a | Drain -> "drain") ops))
      gen
  in
  QCheck.Test.make ~name:"channel matches a list model across growth" ~count:200 arb run_chan_ops

(* ------------------------------------------------------------------ *)
(* post validation and worker-error propagation. *)

let test_post_validation () =
  let t = Parallel.create ~lps:2 ~lookahead:1.0 () in
  (try
     Parallel.post t ~src:0 ~dst:0 ~at:5.0 (fun () -> ());
     Alcotest.fail "src = dst accepted"
   with Invalid_argument _ -> ());
  (* NaN passes the lookahead check, and an infinite arrival would
     never be drained: both are rejected, naming the two LPs. *)
  List.iter
    (fun at ->
      Alcotest.check_raises
        (Printf.sprintf "arrival %g rejected" at)
        (Invalid_argument
           (Printf.sprintf "Parallel.post: non-finite arrival time (lp 0 -> lp 1 arriving at %g)"
              at))
        (fun () -> Parallel.post t ~src:0 ~dst:1 ~at (fun () -> ())))
    [ Float.nan; infinity; neg_infinity ];
  (* A lookahead violation raised inside a round must surface from
     [run], whichever domain ran the offending LP. *)
  let violated = ref false in
  ignore
    (Engine.schedule_abs (Parallel.engine t 0) ~at:1.0 (fun () ->
         Parallel.post t ~src:0 ~dst:1 ~at:0.5 (fun () -> ())));
  (try Parallel.run ~until:3.0 ~domains:2 t with Invalid_argument _ -> violated := true);
  Alcotest.(check bool) "lookahead violation re-raised by run" true !violated

(* The runaway guard, as [Engine.run]'s, checked at each barrier:
   [run] raises only when an event is still due after [max_events] have
   run.  Two LPs with a 0.5 s lookahead and one event a second on LP 0
   run one event a window, so the check sits exactly on the line.  A
   window that runs past [max_events] and leaves nothing due does not
   raise. *)
let test_max_events () =
  let world ~per_window n =
    let t = Parallel.create ~lps:2 ~lookahead:0.5 () in
    for i = 1 to n do
      for j = 0 to per_window - 1 do
        ignore
          (Engine.schedule_abs (Parallel.engine t 0)
             ~at:(float_of_int i +. (0.1 *. float_of_int j))
             ignore)
      done
    done;
    t
  in
  let raises what f =
    Alcotest.check_raises what
      (Invalid_argument (what ^ ": max_events exceeded (runaway simulation?)"))
      f
  in
  List.iter
    (fun domains ->
      let t = world ~per_window:1 4 in
      Parallel.run ~max_events:4 ~domains t;
      Alcotest.(check int) "exactly max_events" 4 (Parallel.executed t);
      raises "Parallel.run" (fun () -> Parallel.run ~max_events:3 ~domains (world ~per_window:1 4));
      let t = world ~per_window:1 5 in
      Parallel.run ~until:4.0 ~max_events:4 ~domains t;
      Alcotest.(check int) "an event past until is not due" 4 (Parallel.executed t);
      raises "Parallel.run" (fun () ->
          Parallel.run ~until:5.0 ~max_events:4 ~domains (world ~per_window:1 5));
      let t = world ~per_window:3 1 in
      Parallel.run ~max_events:2 ~domains t;
      Alcotest.(check int) "nothing left due" 3 (Parallel.executed t))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* K = 1 degrades byte-identically to the plain sequential engine. *)

let schedule_ticks engine =
  for i = 1 to 5 do
    ignore
      (Engine.schedule_abs engine
         ~at:(0.01 *. float_of_int i)
         (fun () -> Trace.emit ~cat:"test" ~host:i ~args:[ ("i", Tev.Int i) ] "tick"))
  done

let test_k1_matches_sequential () =
  let par_trace =
    let t = Parallel.create ~seed:7 ~lps:1 ~lookahead:1.0 () in
    Parallel.enable_tracing t;
    Parallel.with_lp t 0 (fun () -> schedule_ticks (Parallel.engine t 0));
    Parallel.run t;
    Export.jsonl_events (Parallel.merged_events t)
  in
  let seq_trace =
    (* LP 0's engine seed is the first draw of stream 0 — reproduce it
       and the trace must match byte for byte. *)
    let seed = Int64.to_int (Prng.int64 (Prng.stream (Prng.create 7) ~index:0)) land max_int in
    let engine = Engine.create ~seed () in
    let sink = Trace.make_sink ~clock:(fun () -> Engine.now engine) () in
    Trace.use (Some sink);
    Fun.protect ~finally:(fun () -> Trace.use None) @@ fun () ->
    schedule_ticks engine;
    Engine.run engine;
    Export.jsonl_events (Trace.sink_events sink)
  in
  Alcotest.(check string) "k=1 trace equals sequential engine" seq_trace par_trace

(* ------------------------------------------------------------------ *)
(* Sinks across runs: a traced run leaves no sink behind, and an
   untraced multi-LP run records nothing into the caller's sink, which
   is restored when it returns. *)

let test_sinks_across_runs () =
  let ticking ~traced =
    let t = Parallel.create ~lps:2 ~lookahead:1.0 () in
    if traced then Parallel.enable_tracing t;
    for i = 0 to 1 do
      Parallel.with_lp t i (fun () -> schedule_ticks (Parallel.engine t i))
    done;
    t
  in
  Trace.stop ();
  let traced = ticking ~traced:true in
  Parallel.run ~domains:2 traced;
  Alcotest.(check int) "traced run recorded" 10 (List.length (Parallel.merged_events traced));
  Alcotest.(check bool) "no sink left on after a traced run" false (Trace.on ());
  let untraced = ticking ~traced:false in
  let sink = Trace.start ~clock:(fun () -> 0.0) () in
  Fun.protect ~finally:Trace.stop @@ fun () ->
  Parallel.run ~domains:2 untraced;
  Alcotest.(check int) "untraced run ticked" 10 (Parallel.executed untraced);
  Alcotest.(check int) "caller's sink recorded nothing" 0 (List.length (Trace.sink_events sink));
  Alcotest.(check bool) "caller's sink restored" true
    (match Trace.active () with Some s -> s == sink | None -> false);
  Alcotest.(check bool) "caller's sink still on" true (Trace.on ())

(* ------------------------------------------------------------------ *)
(* Cluster: cross-shard datagrams arrive through the channels. *)

let test_cluster_cross_shard_delivery () =
  let c = Cluster.create ~lps:2 () in
  let h0 = Cluster.add_host c () in
  let h1 = Cluster.add_host c () in
  Alcotest.(check int) "round-robin placement" 1 (Cluster.lp_of_host c (Host.id h1));
  let s0 = Net.udp_bind (Cluster.net_of_host c (Host.id h0)) h0 ~port:9 () in
  let s1 = Net.udp_bind (Cluster.net_of_host c (Host.id h1)) h1 ~port:9 () in
  ignore
    (Engine.schedule_abs (Cluster.engine c 0) ~at:0.0 (fun () ->
         Net.send
           (Cluster.net_of_host c (Host.id h0))
           ~src:(Net.socket_addr s0) ~dst:(Net.socket_addr s1) (Bytes.of_string "hi")));
  Cluster.run ~until:1.0 c;
  (match Mailbox.try_recv (Net.mailbox s1) with
  | Some d -> Alcotest.(check string) "payload crossed shards" "hi" (Bytes.to_string d.Net.payload)
  | None -> Alcotest.fail "cross-shard datagram not delivered");
  let stats = Cluster.stats c in
  Alcotest.(check int) "delivered once" 1 stats.Net.delivered;
  Alcotest.(check int) "nothing dropped" 0 stats.Net.dropped

(* ------------------------------------------------------------------ *)
(* The determinism oracle: equal seeds, byte-identical merged traces at
   any domain count — the property CI's cmp gate enforces end to end. *)

(* An 8-host ring over 4 LPs: every host periodically fires a datagram
   at its clockwise neighbours (+1 local-ish, +3 always remote), so
   every barrier carries cross-shard traffic in both directions.  The
   chaos variant stretches the run to a 5 s fault horizon — the plan
   generator emits nothing for sub-second horizons — so crashes,
   partitions and bursts actually land mid-traffic. *)
let cluster_trace ~seed ~domains ~chaos =
  let params = { Net.default_params with propagation = 2e-3; jitter_mean = 5e-4 } in
  let c = Cluster.create ~seed ~params ~lps:4 () in
  Cluster.enable_tracing c;
  let hosts = Array.init 8 (fun i -> Cluster.add_host c ~name:(Printf.sprintf "h%d" i) ()) in
  let socks =
    Array.map (fun h -> Net.udp_bind (Cluster.net_of_host c (Host.id h)) h ~port:9 ()) hosts
  in
  let rounds, interval, until = if chaos then (54, 0.1, 6.0) else (24, 0.015, 0.5) in
  Array.iteri
    (fun i h ->
      let id = Host.id h in
      let lp = Cluster.lp_of_host c id in
      let net = Cluster.net c lp in
      let engine = Cluster.engine c lp in
      let src = Net.socket_addr socks.(i) in
      Cluster.with_lp c lp (fun () ->
          let rec tick k () =
            List.iter
              (fun step ->
                Net.send net ~src
                  ~dst:(Net.socket_addr socks.((i + step) mod 8))
                  (Bytes.of_string (Printf.sprintf "m%d.%d" i k)))
              [ 1; 3 ];
            if k < rounds then ignore (Engine.schedule engine ~delay:interval (tick (k + 1)))
          in
          ignore (Engine.schedule_abs engine ~at:(0.01 *. float_of_int (i + 1)) (tick 0))))
    hosts;
  let plan_steps =
    if chaos then begin
      let plan =
        Plan.random ~seed:(seed lxor 0x5A5A) ~victims:[ 2; 3; 5 ] ~others:[ 0; 1 ] ~horizon:5.0
          ()
      in
      Injector.inject_cluster c plan;
      List.length plan
    end
    else 0
  in
  Cluster.run ~until ~domains c;
  let trace = Export.jsonl_events (Cluster.merged_events c) in
  let stats = Cluster.stats c in
  (trace, stats.Net.sent, stats.Net.delivered, plan_steps)

let check_domain_invariance ~seed ~chaos =
  let t1, sent1, del1, steps1 = cluster_trace ~seed ~domains:1 ~chaos in
  let t2, sent2, del2, _ = cluster_trace ~seed ~domains:2 ~chaos in
  let t4, sent4, del4, _ = cluster_trace ~seed ~domains:4 ~chaos in
  if sent1 = 0 then Alcotest.fail "workload sent nothing — vacuous trace comparison";
  if chaos && steps1 = 0 then Alcotest.fail "empty chaos plan — vacuous chaos comparison";
  if t1 <> t2 || t1 <> t4 then false
  else begin
    assert (sent1 = sent2 && sent1 = sent4);
    assert (del1 = del2 && del1 = del4);
    true
  end

let test_domains_invariant_fixed_seed () =
  Alcotest.(check bool) "domains 1 = 2 = 4 (seed 11)" true
    (check_domain_invariance ~seed:11 ~chaos:false)

let test_domains_invariant_chaos_fixed_seed () =
  Alcotest.(check bool) "domains 1 = 2 = 4 under chaos (seed 11)" true
    (check_domain_invariance ~seed:11 ~chaos:true)

let prop_domains_invariant =
  QCheck.Test.make ~count:4 ~name:"equal seed => byte-identical trace for domains {1,2,4}"
    QCheck.(0 -- 10_000)
    (fun seed -> check_domain_invariance ~seed ~chaos:false)

let prop_domains_invariant_chaos =
  QCheck.Test.make ~count:4
    ~name:"equal seed + chaos plan => byte-identical trace for domains {1,2,4}"
    QCheck.(0 -- 10_000)
    (fun seed -> check_domain_invariance ~seed ~chaos:true)

(* ------------------------------------------------------------------ *)
(* Seeded barrier programs, pinned by MD5. *)

(* Six LPs with a 0.25 s lookahead, every instant on a 0.125 s grid so
   windows, barriers and arrivals coincide exactly.  LP 5 never has an
   event; LP 4 has none of its own and only receives; LP 3 starts late.
   The others run chains of events that log, schedule local follow-ups
   (some due at once), arm far-off events and cancel them, and now and
   then move on to another LP by a post a multiple of the lookahead
   ahead — one
   lookahead ahead from a window's first instant is an arrival exactly
   at the barrier.  A sleeping fiber per active LP crosses windows, and
   a posted message may cancel it.  The program runs [run ~until:2.0]
   (an inclusive horizon on the grid), then to completion.  Returns the
   MD5 of each LP's log, its executed count and final clock, with the
   executed total after the bounded run. *)
let barrier_program seed ~domains =
  let k = 6 and lookahead = 0.25 and grid = 0.125 in
  let t = Parallel.create ~seed ~lps:k ~lookahead () in
  let logs = Array.init k (fun _ -> Buffer.create 1024) in
  let note i what = Printf.bprintf logs.(i) "%.4f %s\n" (Engine.now (Parallel.engine t i)) what in
  let doomed = Array.make k [] in
  let sleepers = Array.make k None in
  let rec act i budget () =
    let p = Parallel.prng t i in
    let engine = Parallel.engine t i in
    note i (Printf.sprintf "act %d" budget);
    let next () =
      ignore
        (Engine.schedule engine ~delay:(grid *. float_of_int (Prng.int p 5)) (act i (budget - 1)))
    in
    if budget > 0 then
      match Prng.int p 5 with
      | 0 | 1 ->
        (* The chain moves on; never to the idle LP 5. *)
        let dst = (i + 1 + Prng.int p (k - 2)) mod (k - 1) in
        let dst = if dst = i then (dst + 1) mod (k - 1) else dst in
        let m = 1 + Prng.int p 3 in
        let kill = Prng.bool p ~p:0.2 in
        Parallel.post t ~src:i ~dst
          ~at:(Engine.now engine +. (lookahead *. float_of_int m))
          (fun () ->
            note dst (Printf.sprintf "from %d%s" i (if kill then " kill" else ""));
            if kill then Option.iter Fiber.cancel sleepers.(dst);
            act dst (budget - 1) ())
      | 2 ->
        let far = grid *. float_of_int (4 + Prng.int p 8) in
        doomed.(i) <-
          Engine.schedule engine ~delay:far (fun () -> note i "doomed ran") :: doomed.(i);
        next ()
      | 3 ->
        (match doomed.(i) with
        | h :: rest ->
          Engine.cancel h;
          doomed.(i) <- rest;
          note i "cancel"
        | [] -> ());
        next ()
      | _ -> next ()
  in
  for i = 0 to 3 do
    let engine = Parallel.engine t i in
    let start = if i = 3 then 2.5 else grid *. float_of_int i in
    ignore (Engine.schedule_abs engine ~at:start (act i (20 + (seed mod 7))));
    let naps = 3 + ((seed + i) mod 4) in
    sleepers.(i) <-
      Some
        (Fiber.spawn engine (fun () ->
             try
               for n = 1 to naps do
                 if n land 1 = 0 then
                   busy_sleep (grid *. float_of_int (1 + ((seed + n) mod 5)))
                 else Fiber.sleep (grid *. float_of_int (2 + ((seed * n) mod 7)));
                 note i (Printf.sprintf "nap %d" n)
               done
             with Fiber.Cancelled -> note i "nap cancelled"))
  done;
  Parallel.run ~until:2.0 ~domains t;
  let bounded = Parallel.executed t in
  Parallel.run ~domains t;
  let out = Buffer.create 4096 in
  Printf.bprintf out "bounded %d\n" bounded;
  Array.iteri
    (fun i log ->
      Printf.bprintf out "lp %d executed %d now %.4f\n%s" i (Parallel.lp t i).Lp.executed
        (Engine.now (Parallel.engine t i)) (Buffer.contents log))
    logs;
  Digest.to_hex (Digest.string (Buffer.contents out))

(* Recorded before the barrier learned to skip idle LPs and clean
   channels: the bookkeeping must leave every LP's events, counts and
   clock as they were, at any domain count. *)
let barrier_goldens =
  [ (1, "73beebfd02b2038063c5e4cf771b7424");
    (2, "34b07512ab1507c61572f67a5cc5d204");
    (3, "d977eb3263a04bcbcd225557d6e9fe6e");
    (4, "a4cba44bac0d05efe0ad8b8157b72947");
    (5, "6e1e513a31f2d50420bc696e4bc21881") ]

let test_barrier_goldens () =
  List.iter
    (fun (seed, golden) ->
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d, domains %d" seed domains)
            golden (barrier_program seed ~domains))
        [ 1; 2; 4 ])
    barrier_goldens

(* A sleep whose target is a window's limit may wake inside the window,
   before the barrier injects the arrivals due at that instant.  Two LPs
   with a 1 s lookahead: LP 1's fiber sleeps 1 s, then schedules a
   delay-0 event, and LP 0 posts an arrival at 1 s.  A suspending
   sleep's wake is due at the limit and waits for the barrier, so the
   arrival runs before the fiber's next event; a sleep that jumps the
   clock to the limit wakes first and its next event then precedes the
   arrival.  A no-op queued at 1 s first forces a plain sleep to
   suspend; a busy sleep drains it, at the limit, inside the window.
   Pinned as it stands: a sleep bounded exclusively by the window would
   give the suspending order everywhere, but moves schedules. *)
let window_edge_order ~sleep ~noop =
  let t = Parallel.create ~lps:2 ~lookahead:1.0 () in
  let e1 = Parallel.engine t 1 in
  let log = ref [] in
  let note what = log := what :: !log in
  if noop then ignore (Engine.schedule_abs e1 ~at:1.0 (fun () -> note "noop"));
  ignore
    (Fiber.spawn e1 (fun () ->
         sleep 1.0;
         note "wake";
         ignore (Engine.schedule e1 ~delay:0.0 (fun () -> note "fiber-next"))));
  ignore
    (Engine.schedule_abs (Parallel.engine t 0) ~at:0.0 (fun () ->
         Parallel.post t ~src:0 ~dst:1 ~at:1.0 (fun () -> note "arrival")));
  Parallel.run t;
  String.concat " " (List.rev !log)

let test_window_edge_order () =
  List.iter
    (fun (name, sleep, noop, expected) ->
      Alcotest.(check string) name expected (window_edge_order ~sleep ~noop))
    [ ("sleep", Fiber.sleep, false, "wake fiber-next arrival");
      ("sleep, no-op at the limit", Fiber.sleep, true, "noop wake arrival fiber-next");
      ("busy sleep", busy_sleep, false, "wake fiber-next arrival");
      ("busy sleep, no-op at the limit", busy_sleep, true, "noop wake fiber-next arrival") ]

(* ------------------------------------------------------------------ *)
(* A sequential reference for the windowed engine.  The barrier goldens
   and the domain-count cmps show that [Parallel.run] is deterministic,
   not that it is right: a barrier bug every domain count shares passes
   both.  The reference below implements the rule stated in
   [parallel.ml]'s header on plain sorted lists, with no event heap,
   channels, dirty flags or skipped windows:
   - K = 1 is one sequential run, [~until] inclusive;
   - otherwise windows are [W, W + L): each LP runs its events in
     (time, seq) order up to the exclusive bound, and its clock ends
     the window at the bound;
   - a cross-LP post waits for the barrier, where posts are injected by
     destination ascending, then source ascending, then FIFO, each
     taking its receiver-side seq there;
   - the next W is the minimum of the LPs' next live events and the
     arrivals not yet injected;
   - with [~until], once W + L passes it, one inclusive pass to [until]
     ends the run; an LP with a live event left beyond it ends at
     [until], one with none keeps its clock.
   Random programs run through both, and every LP's log (time, label),
   clocks and executed counts must agree. *)

(* An event's work: log its label, then in order schedule local
   children ([Local], a delay in grid steps), post to another LP
   ([Post]: an LP offset, then grid steps past the lookahead; an offset
   that wraps to the LP itself schedules locally at the same instant),
   and cancel one of the LP's earlier local schedules ([Cancel]). *)
type ref_node = { label : int; kids : ref_kid list }

and ref_kid =
  | Local of int * ref_node
  | Post of int * int * ref_node
  | Cancel of int

type ref_program = {
  k : int;
  lookahead : float;
  roots : (int * int * ref_node) list;  (* LP, grid step, event *)
  until : float;
}

let ref_grid = 0.125

(* What a program needs of an engine: an LP's clock, an absolute
   schedule on an LP (returning what cancels it) and a cross-LP post. *)
type ref_backend = {
  now : int -> float;
  schedule : int -> at:float -> (unit -> unit) -> unit -> unit;
  post : src:int -> dst:int -> at:float -> (unit -> unit) -> unit;
}

(* Per LP, what the program logged and the cancellers of its local
   schedules, newest first.  Only the LP's own events touch its slots,
   so each is written by one domain. *)
let run_node b p logs handles =
  let rec node lp n () =
    let now = b.now lp in
    Printf.bprintf logs.(lp) "%h %d\n" now n.label;
    let keep lp h = handles.(lp) <- h :: handles.(lp) in
    List.iter
      (function
        | Local (d, c) ->
          keep lp (b.schedule lp ~at:(now +. (float_of_int d *. ref_grid)) (node lp c))
        | Post (o, e, c) ->
          let at = now +. p.lookahead +. (float_of_int e *. ref_grid) in
          let dst = (lp + o) mod p.k in
          if dst = lp then keep lp (b.schedule lp ~at (node lp c))
          else b.post ~src:lp ~dst ~at (node dst c)
        | Cancel i -> (
          match handles.(lp) with
          | [] -> ()
          | hs -> (List.nth hs (i mod List.length hs)) ()))
      n.kids
  in
  node

(* Runs [p] with [~until], then to completion, through [run] on
   [backend]; logs each LP's clock and the executed total after each. *)
let drive p backend ~run ~clocks ~executed =
  let logs = Array.init p.k (fun _ -> Buffer.create 256) in
  let handles = Array.make p.k [] in
  let node = run_node backend p logs handles in
  List.iter
    (fun (lp, step, n) ->
      handles.(lp) <-
        backend.schedule lp ~at:(float_of_int step *. ref_grid) (node lp n) :: handles.(lp))
    p.roots;
  let out = Buffer.create 1024 in
  let record what =
    Printf.bprintf out "%s: executed %d, clocks %s\n" what (executed ())
      (String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list (clocks ()))))
  in
  run (Some p.until);
  record "until";
  run None;
  record "done";
  Array.iteri (fun lp log -> Printf.bprintf out "lp %d\n%s" lp (Buffer.contents log)) logs;
  Buffer.contents out

(* The reference engine: per LP a clock, a seq counter and a queue
   sorted by (time, seq) whose entries carry a live flag; per
   (destination, source) the posts not yet injected, newest first. *)
type ref_state = {
  clock : float array;
  seq : int array;
  queue : (float * int * bool ref * (unit -> unit)) list array;
  posted : (float * (unit -> unit)) list array array;
  mutable ran : int;
}

let reference p =
  let k = p.k in
  let st =
    { clock = Array.make k 0.0;
      seq = Array.make k 0;
      queue = Array.make k [];
      posted = Array.init k (fun _ -> Array.make k []);
      ran = 0 }
  in
  let schedule lp ~at f =
    let at = if at <= st.clock.(lp) then st.clock.(lp) else at in
    let live = ref true in
    let s = st.seq.(lp) in
    st.seq.(lp) <- s + 1;
    let rec insert = function
      | ((t, s', _, _) as e) :: rest when t < at || (t = at && s' < s) -> e :: insert rest
      | rest -> (at, s, live, f) :: rest
    in
    st.queue.(lp) <- insert st.queue.(lp);
    fun () -> live := false
  in
  let post ~src ~dst ~at f = st.posted.(dst).(src) <- (at, f) :: st.posted.(dst).(src) in
  let next lp =
    match List.find_opt (fun (_, _, live, _) -> !live) st.queue.(lp) with
    | Some (t, _, _, _) -> t
    | None -> infinity
  in
  (* Run [lp]'s events before [bound] ([incl]: up to and at it). *)
  let rec run_lp lp ~bound ~incl =
    match st.queue.(lp) with
    | (t, _, live, f) :: rest when (not !live) || t < bound || (incl && t = bound) ->
      st.queue.(lp) <- rest;
      if !live then begin
        live := false;
        st.clock.(lp) <- t;
        st.ran <- st.ran + 1;
        f ()
      end;
      run_lp lp ~bound ~incl
    | _ -> ()
  in
  let inject () =
    for dst = 0 to k - 1 do
      for src = 0 to k - 1 do
        List.iter
          (fun (at, f) -> (schedule dst ~at f : unit -> unit) |> ignore)
          (List.rev st.posted.(dst).(src));
        st.posted.(dst).(src) <- []
      done
    done
  in
  let until_pass u =
    inject ();
    for lp = 0 to k - 1 do
      run_lp lp ~bound:u ~incl:true;
      if next lp < infinity && u > st.clock.(lp) then st.clock.(lp) <- u
    done
  in
  let window limit =
    inject ();
    for lp = 0 to k - 1 do
      run_lp lp ~bound:limit ~incl:false;
      if limit > st.clock.(lp) then st.clock.(lp) <- limit
    done
  in
  let rec windows until =
    let start = ref infinity in
    for lp = 0 to k - 1 do
      start := Float.min !start (next lp);
      Array.iter (List.iter (fun (at, _) -> start := Float.min !start at)) st.posted.(lp)
    done;
    match until with
    | None -> if !start < infinity then (window (!start +. p.lookahead); windows until)
    | Some u ->
      if !start = infinity || !start +. p.lookahead > u then until_pass u
      else (window (!start +. p.lookahead); windows until)
  in
  let run until =
    if k = 1 then until_pass (Option.value until ~default:infinity) else windows until
  in
  drive p
    { now = (fun lp -> st.clock.(lp)); schedule; post }
    ~run ~clocks:(fun () -> Array.copy st.clock) ~executed:(fun () -> st.ran)

let through_parallel p ~domains =
  let t = Parallel.create ~lps:p.k ~lookahead:p.lookahead () in
  let engine = Parallel.engine t in
  drive p
    { now = (fun lp -> Engine.now (engine lp));
      schedule =
        (fun lp ~at f ->
          let h = Engine.schedule_abs (engine lp) ~at f in
          fun () -> Engine.cancel h);
      post = (fun ~src ~dst ~at f -> Parallel.post t ~src ~dst ~at f) }
    ~run:(fun until -> Parallel.run ?until ~domains t)
    ~clocks:(fun () -> Array.init p.k (fun lp -> Engine.now (engine lp)))
    ~executed:(fun () -> Parallel.executed t)

let gen_ref_program =
  let open QCheck.Gen in
  let rec node depth =
    let* n = if depth = 0 then return 0 else int_bound 3 in
    let* kids = list_repeat n (kid (depth - 1)) in
    return { label = 0; kids }
  and kid depth =
    frequency
      [ (4, map2 (fun d c -> Local (d, c)) (int_bound 4) (node depth));
        (3, map3 (fun o e c -> Post (o, e, c)) (int_range 1 7) (int_bound 2) (node depth));
        (2, map (fun i -> Cancel i) (int_bound 9)) ]
  in
  let* k = int_range 1 8 in
  let* lookahead = oneofl [ 0.125; 0.25; 0.375; 0.5; 1.0 ] in
  let* roots = list_size (int_range 1 12) (triple (int_bound 7) (int_bound 16) (node 3)) in
  let* until_step = int_bound 24 in
  let* off_grid = bool in
  (* Number the events in preorder, so every label is distinct. *)
  let next = ref 0 in
  let rec number n =
    incr next;
    let label = !next in
    { label;
      kids =
        List.map
          (function
            | Local (d, c) -> Local (d, number c)
            | Post (o, e, c) -> Post (o, e, number c)
            | Cancel i -> Cancel i)
          n.kids }
  in
  return
    { k;
      lookahead;
      roots = List.map (fun (lp, step, n) -> (lp mod k, step, number n)) roots;
      until = (float_of_int until_step *. ref_grid) +. if off_grid then ref_grid /. 2.0 else 0.0 }

let print_ref_program p =
  let rec show n =
    Printf.sprintf "%d[%s]" n.label
      (String.concat " "
         (List.map
            (function
              | Local (d, c) -> Printf.sprintf "+%d:%s" d (show c)
              | Post (o, e, c) -> Printf.sprintf ">%d+%d:%s" o e (show c)
              | Cancel i -> Printf.sprintf "x%d" i)
            n.kids))
  in
  Printf.sprintf "k %d, lookahead %g, until %g, roots %s" p.k p.lookahead p.until
    (String.concat "; "
       (List.map (fun (lp, step, n) -> Printf.sprintf "lp %d @%d %s" lp step (show n)) p.roots))

let prop_matches_reference =
  QCheck.Test.make ~name:"windowed engine matches the sequential reference, domains 1/2/4"
    ~count:200
    (QCheck.make ~print:print_ref_program gen_ref_program)
    (fun p ->
      let expected = reference p in
      List.iter
        (fun domains ->
          let got = through_parallel p ~domains in
          if got <> expected then
            QCheck.Test.fail_reportf "domains %d:\n%s\nreference:\n%s" domains got expected)
        [ 1; 2; 4 ];
      true)

(* ------------------------------------------------------------------ *)
(* The running slot.  A fiber switch, a CPU charge and an inline drain
   read the running fiber through the slot its engine keeps
   ([Engine.slot]), refreshed on every run's entry; [Fiber.self] reads
   the domain's slot.  Under [Parallel.run] every LP's fibers must see
   themselves through both, on whichever domain runs them, across
   sleeps, busy sleeps (which drain other fibers' wakes inline),
   mailbox waits and a nested run of a private engine.  An event that
   runs on no fiber's stack must see none: one ahead of every fiber,
   and the posts to an LP that runs no fiber (an event that a busy
   sleep drains runs on the sleeper's stack, and sees the sleeper). *)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

(* Returns per LP the number of checks made and the number that
   failed, after a run at [domains]. *)
let running_program ~domains =
  let k = 5 and lookahead = 0.25 in
  let idle = k - 1 in
  let t = Parallel.create ~seed:5 ~lps:k ~lookahead () in
  let checks = Array.make k 0 and wrong = Array.make k 0 in
  let check i ok =
    checks.(i) <- checks.(i) + 1;
    if not ok then wrong.(i) <- wrong.(i) + 1
  in
  let sees i engine me = check i (Fiber.self () == me && Fiber.running engine == me) in
  let mailboxes = Array.init k (fun i -> Mailbox.create (Parallel.engine t i)) in
  let spawn_checked i body =
    let engine = Parallel.engine t i in
    let me = ref None in
    let f = Fiber.spawn engine (fun () -> body engine (Option.get !me)) in
    me := Some f
  in
  let worker i n engine me =
    for step = 1 to n do
      sees i engine me;
      (match step mod 4 with
      | 0 -> Fiber.sleep (0.01 *. float_of_int (1 + (step mod 3)))
      | 1 -> busy_sleep 0.02
      | 2 -> (
        match Mailbox.recv ~timeout:0.05 mailboxes.(i) with Some _ | None -> ())
      | _ ->
        Mailbox.send mailboxes.(i) step;
        if step mod 8 = 3 then
          let dst = (i + 1) mod idle and at = Engine.now engine +. lookahead in
          Parallel.post t ~src:i ~dst ~at (fun () ->
              spawn_checked dst (fun engine me ->
                  sees dst engine me;
                  busy_sleep 0.01;
                  sees dst engine me));
          Parallel.post t ~src:i ~dst:idle ~at (fun () -> check idle (raises_invalid Fiber.self)));
      sees i engine me
    done
  in
  let nested i engine me =
    Fiber.sleep 0.03;
    let inner = Engine.create () in
    let g = ref None in
    g :=
      Some
        (Fiber.spawn inner (fun () ->
             let g = Option.get !g in
             for _ = 1 to 3 do
               check i (Fiber.self () == g && Fiber.running inner == g);
               busy_sleep 0.01;
               Fiber.sleep 0.01
             done));
    Engine.run inner;
    sees i engine me;
    busy_sleep 0.01;
    sees i engine me
  in
  for i = 0 to idle - 1 do
    ignore
      (Engine.schedule (Parallel.engine t i) ~delay:0.0 (fun () ->
           check i (raises_invalid Fiber.self)));
    for f = 0 to 2 do
      spawn_checked i (worker i (12 + (4 * f) + i))
    done;
    spawn_checked i (nested i)
  done;
  Parallel.run ~domains t;
  (checks, wrong, t)

let test_running_agree () =
  let expected = ref None in
  List.iter
    (fun domains ->
      let checks, wrong, t = running_program ~domains in
      Array.iteri
        (fun i w ->
          if w > 0 then
            Alcotest.failf "domains %d, lp %d: %d of %d checks saw another fiber" domains i w
              checks.(i))
        wrong;
      (match !expected with
      | None -> expected := Some checks
      | Some c ->
        Alcotest.(check (array int)) (Printf.sprintf "domains %d checks" domains) c checks);
      Alcotest.(check bool) "self after the run" true (raises_invalid Fiber.self);
      for i = 0 to 4 do
        Alcotest.(check bool)
          (Printf.sprintf "domains %d: running lp %d after the run" domains i)
          true
          (raises_invalid (fun () -> Fiber.running (Parallel.engine t i)))
      done)
    [ 1; 2; 4 ];
  match !expected with
  | Some c ->
    Alcotest.(check bool) "checks made on every LP" true (Array.for_all (fun n -> n > 0) c)
  | None -> ()

(* Both engines' fibers really suspend (each engine runs two sleepers
   half a second apart), so the inner run switches fibers on the outer
   fiber's stack. *)
let test_running_nested () =
  let a = Engine.create () in
  let sleeper engine offset =
    Fiber.spawn engine (fun () ->
        Fiber.sleep offset;
        for _ = 1 to 3 do
          Fiber.sleep 1.0
        done)
  in
  let outer = ref None and inner_ok = ref [] and after = ref [] in
  let f =
    Fiber.spawn a (fun () ->
        let f = Option.get !outer in
        let b = Engine.create () in
        let checked offset =
          let g = ref None in
          g :=
            Some
              (Fiber.spawn b (fun () ->
                   let g = Option.get !g in
                   for _ = 1 to 3 do
                     inner_ok := (Fiber.self () == g && Fiber.running b == g) :: !inner_ok;
                     Fiber.sleep 1.0;
                     busy_sleep offset
                   done))
        in
        checked 0.5;
        checked 0.25;
        Engine.run b;
        after := [ Fiber.self () == f; Fiber.running a == f ];
        Fiber.sleep 1.0;
        busy_sleep 1.0;
        after := !after @ [ Fiber.self () == f; Fiber.running a == f ])
  in
  outer := Some f;
  ignore (sleeper a 0.5);
  Engine.run a;
  Alcotest.(check (list bool)) "inner fibers" (List.init 6 (fun _ -> true)) !inner_ok;
  Alcotest.(check (list bool)) "outer fiber after the inner run" [ true; true; true; true ] !after

let test_running_outside () =
  let e = Engine.create () in
  Alcotest.(check bool) "self before any run" true (raises_invalid Fiber.self);
  Alcotest.(check bool) "running before any run" true
    (raises_invalid (fun () -> Fiber.running e));
  ignore (Fiber.spawn e (fun () -> Fiber.sleep 1.0));
  Engine.run e;
  Alcotest.(check bool) "self after a run" true (raises_invalid Fiber.self);
  Alcotest.(check bool) "running after a run" true (raises_invalid (fun () -> Fiber.running e))

(* A plain engine event that a busy sleep drains runs on the sleeper's
   stack with the sleeper still in the running slot, so it sees the
   sleeper in [Fiber.self ()]; under a suspending sleep the same event
   sees no fiber.  This pins the behaviour as it stands: CHANGES.md
   names it as a FOUND against [Engine.sleep_drain] (a callback that
   reads or advances the ambient causal context would act on the
   sleeper's), and a fix, which adds stores to every drain, would
   flip the first assertion. *)
let test_running_drained_event () =
  let event_sees sleep =
    let e = Engine.create () in
    let f = ref None and seen = ref None in
    f := Some (Fiber.spawn e (fun () -> sleep 0.02));
    ignore
      (Engine.schedule e ~delay:0.015 (fun () ->
           seen :=
             Some
               (match Fiber.self () with
               | g -> if g == Option.get !f then `Sleeper else `Other
               | exception Invalid_argument _ -> `None)));
    Engine.run e;
    !seen
  in
  let show = function
    | Some `Sleeper -> "the sleeper"
    | Some `Other -> "another fiber"
    | Some `None -> "no fiber"
    | None -> "did not run"
  in
  Alcotest.(check string) "event drained by a busy sleep" "the sleeper"
    (show (event_sees busy_sleep));
  Alcotest.(check string) "event under a suspending sleep" "no fiber"
    (show (event_sees Fiber.sleep))

(* ------------------------------------------------------------------ *)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_parallel"
    [ ( "prng",
        [ Alcotest.test_case "pinned stream sequences" `Quick test_stream_pinned;
          Alcotest.test_case "stream stability" `Quick test_stream_stable ] );
      ( "channel",
        Alcotest.test_case "fifo across growth" `Quick test_channel_fifo_growth
        :: qcheck [ prop_channel_matches_list ] );
      ( "post",
        [ Alcotest.test_case "validation and propagation" `Quick test_post_validation;
          Alcotest.test_case "runaway guard" `Quick test_max_events ] );
      ("sinks", [ Alcotest.test_case "across runs" `Quick test_sinks_across_runs ]);
      ( "degradation",
        [ Alcotest.test_case "k=1 equals sequential" `Quick test_k1_matches_sequential ] );
      ( "cluster",
        [ Alcotest.test_case "cross-shard delivery" `Quick test_cluster_cross_shard_delivery ]
      );
      ( "determinism",
        Alcotest.test_case "fixed seed, domains 1/2/4" `Quick test_domains_invariant_fixed_seed
        :: Alcotest.test_case "fixed seed + chaos, domains 1/2/4" `Quick
             test_domains_invariant_chaos_fixed_seed
        :: qcheck [ prop_domains_invariant; prop_domains_invariant_chaos ] );
      ( "barrier",
        [ Alcotest.test_case "seeded programs match goldens" `Quick test_barrier_goldens;
          Alcotest.test_case "a sleep to the window's limit" `Quick test_window_edge_order ] );
      ("reference", qcheck [ prop_matches_reference ]);
      ( "running",
        [ Alcotest.test_case "self and running agree, domains 1/2/4" `Quick test_running_agree;
          Alcotest.test_case "a nested run restores the outer fiber" `Quick test_running_nested;
          Alcotest.test_case "no fiber outside a run" `Quick test_running_outside;
          Alcotest.test_case "a drained event sees the busy sleeper" `Quick
            test_running_drained_event ] ) ]
