(* Tests for the discrete-event engine and fiber layer. *)

open Circus_sim

(* [Fiber.sleep_busy] of a duration, as [Host.use_cpu] makes it. *)
let busy_sleep d =
  let fiber = Fiber.self () in
  (Fiber.nap fiber).Fiber.nap_s <- d;
  Fiber.sleep_busy fiber

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Event heap (monomorphic; replaces the old generic Heap) *)

(* Build a detached event (tests drive the heap directly, no engine). *)
let mk_event ?(live = true) ~seq () =
  { Event_heap.seq; run = ignore; live; cell = { Event_heap.cancelled_pending = 0 } }

(* Pop the minimum as its (time, seq) key. *)
let pop_key h =
  let time = Event_heap.top_time h in
  let ev = Event_heap.pop_exn h in
  (time, ev.Event_heap.seq)

let test_event_heap_ordering () =
  let h = Event_heap.create () in
  (* duplicate times force the seq tie-break *)
  List.iteri
    (fun seq time -> Event_heap.push h ~time (mk_event ~seq ()))
    [ 5.0; 3.0; 3.0; 1.0; 9.0; 1.0; 7.0 ];
  let rec drain acc = if Event_heap.is_empty h then List.rev acc else drain (pop_key h :: acc) in
  Alcotest.(check (list (pair (float 0.0) int)))
    "sorted by (time, seq)"
    [ (1.0, 3); (1.0, 5); (3.0, 1); (3.0, 2); (5.0, 0); (7.0, 6); (9.0, 4) ]
    (drain [])

let test_event_heap_empty () =
  let h = Event_heap.create () in
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h);
  Alcotest.(check (float 0.0)) "top_time" infinity (Event_heap.top_time h);
  Alcotest.(check int) "top_seq" max_int (Event_heap.top_seq h);
  Alcotest.check_raises "pop_exn raises" (Invalid_argument "Event_heap.pop_exn: empty")
    (fun () -> ignore (Event_heap.pop_exn h));
  Alcotest.check_raises "top_exn raises" (Invalid_argument "Event_heap.top_exn: empty")
    (fun () -> ignore (Event_heap.top_exn h))

(* Random push/cancel/compact interleavings drain in exact (time, seq)
   order, matching a sorted-list reference model. *)
let prop_event_heap_sorts =
  QCheck.Test.make ~name:"event heap drains in (time, seq) order" ~count:300
    QCheck.(list (pair (int_bound 10) bool))
    (fun spec ->
      let h = Event_heap.create () in
      let events =
        List.mapi (fun seq (t, cancelled) -> (float_of_int t /. 4.0, seq, not cancelled)) spec
      in
      List.iter
        (fun (time, seq, live) -> Event_heap.push h ~time (mk_event ~live ~seq ()))
        events;
      (* compacting mid-stream must not change the drain order *)
      ignore (Event_heap.compact h);
      let rec drain acc =
        if Event_heap.is_empty h then List.rev acc else drain (pop_key h :: acc)
      in
      let expected =
        events
        |> List.filter (fun (_, _, live) -> live)
        |> List.map (fun (time, seq, _) -> (time, seq))
        |> List.sort compare
      in
      drain [] = expected)

(* The heap against a sorted-list model under arbitrary interleavings
   of push, pop, compact and clear.  Runs are long enough to grow the
   arrays past their initial 16 slots several times, and pops between
   pushes make pool cells cycle through reuse; every pop must hand back
   the very event record pushed under that key, and [length],
   [top_time] and [top_seq] must agree with the model after every op. *)
type heap_op = Push of int * bool | Pop | Compact | Clear

let prop_event_heap_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [ ( 60,
            map2
              (fun t live -> Push (t, live))
              (int_bound 12)
              (frequencyl [ (3, true); (1, false) ]) );
          (30, return Pop);
          (8, return Compact);
          (1, return Clear) ])
  in
  let print_op = function
    | Push (t, live) -> Printf.sprintf "push %d%s" t (if live then "" else "!")
    | Pop -> "pop"
    | Compact -> "compact"
    | Clear -> "clear"
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map print_op ops))
      QCheck.Gen.(list_size (int_range 0 300) gen_op)
  in
  QCheck.Test.make ~name:"event heap matches sorted-list model" ~count:200 arb (fun ops ->
      let h = Event_heap.create () in
      (* model: (time, seq, event) sorted by (time, seq) *)
      let model = ref [] in
      let next_seq = ref 0 in
      let key_order (t1, s1, _) (t2, s2, _) = compare (t1, s1) (t2, s2) in
      let agrees () =
        Event_heap.length h = List.length !model
        &&
        match !model with
        | [] -> Event_heap.top_time h = infinity && Event_heap.top_seq h = max_int
        | (t, s, ev) :: _ ->
          Event_heap.top_time h = t && Event_heap.top_seq h = s && Event_heap.top_exn h == ev
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Push (t, live) ->
              let seq = !next_seq in
              incr next_seq;
              let time = float_of_int t /. 4.0 in
              let ev = mk_event ~live ~seq () in
              Event_heap.push h ~time ev;
              model := List.merge key_order [ (time, seq, ev) ] !model;
              true
            | Pop -> (
              match !model with
              | [] -> Event_heap.is_empty h
              | (_, _, ev) :: rest ->
                model := rest;
                Event_heap.pop_exn h == ev)
            | Compact ->
              let live, dead = List.partition (fun (_, _, e) -> e.Event_heap.live) !model in
              model := live;
              Event_heap.compact h = List.length dead
            | Clear ->
              model := [];
              Event_heap.clear h;
              true
          in
          step_ok && agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_split_independent () =
  let root = Prng.create 1 in
  let a = Prng.split root in
  let first_of_b_before = Prng.create 1 in
  ignore (Prng.split first_of_b_before);
  let b = Prng.split first_of_b_before in
  ignore a;
  ignore b;
  (* Splitting must advance the parent: two successive splits differ. *)
  let root2 = Prng.create 2 in
  let s1 = Prng.int64 (Prng.split root2) in
  let s2 = Prng.int64 (Prng.split root2) in
  Alcotest.(check bool) "distinct splits" true (not (Int64.equal s1 s2))

let prop_prng_float_range =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let x = Prng.float g in
      x >= 0.0 && x < 1.0)

let prop_prng_int_range =
  QCheck.Test.make ~name:"int in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

let test_prng_exponential_mean () =
  let g = Prng.create 99 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential g ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.1)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_event_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule engine ~delay:2.0 (record "c"));
  ignore (Engine.schedule engine ~delay:1.0 (record "a"));
  ignore (Engine.schedule engine ~delay:1.0 (record "b"));
  Engine.run engine;
  Alcotest.(check (list string)) "fifo at same time" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock" 2.0 (Engine.now engine)

(* A NaN time has no place in the (time, seq) order.  Queued, it made
   later events run out of time order and left the clock at NaN; now
   scheduling it raises and queues nothing. *)
let test_engine_nan_time_rejected () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := (tag, Engine.now engine) :: !log in
  let nan_rejected = Invalid_argument "Engine.schedule: event time is NaN" in
  ignore (Engine.schedule engine ~delay:1.0 (record "a"));
  Alcotest.check_raises "nan delay" nan_rejected (fun () ->
      ignore (Engine.schedule engine ~delay:Float.nan (record "nan")));
  Alcotest.check_raises "nan at" nan_rejected (fun () ->
      ignore (Engine.schedule_abs engine ~at:Float.nan (record "nan")));
  ignore (Engine.schedule engine ~delay:2.0 (record "b"));
  ignore (Engine.schedule engine ~delay:0.5 (record "c"));
  Alcotest.(check int) "nothing queued for nan" 3 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list (pair string (float 0.0))))
    "time order" [ ("c", 0.5); ("a", 1.0); ("b", 2.0) ] (List.rev !log);
  check_float "clock" 2.0 (Engine.now engine)

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule engine ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run engine;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule engine ~delay:(float_of_int i) (fun () -> incr fired))
  done;
  Engine.run ~until:5.5 engine;
  Alcotest.(check int) "five fired" 5 !fired;
  check_float "clock at horizon" 5.5 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "rest fired" 10 !fired

let test_engine_nested_schedule () =
  let engine = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         times := Engine.now engine :: !times;
         ignore
           (Engine.schedule engine ~delay:0.5 (fun () -> times := Engine.now engine :: !times))));
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "nested" [ 1.0; 1.5 ] (List.rev !times)

(* The ready-queue/heap merge must preserve (time, seq) order: a
   zero-delay event scheduled *during* an event at time T (ready ring,
   larger seq) fires after a pre-existing heap event also due at T
   (smaller seq). *)
let test_engine_ready_queue_vs_heap_ties () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         record "a" ();
         (* due now -> ready ring, seq 2 *)
         ignore (Engine.schedule engine ~delay:0.0 (record "c"))));
  (* heap, due at the same instant, seq 1 *)
  ignore (Engine.schedule engine ~delay:1.0 (record "b"));
  Engine.run engine;
  Alcotest.(check (list string)) "heap seq beats later ready seq" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_engine_zero_delay_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule engine ~delay:0.0 (fun () -> log := i :: !log))
  done;
  ignore (Engine.schedule engine ~delay:0.0 (fun () -> log := 6 :: !log));
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6 ] (List.rev !log)

let test_engine_cancel_ready_event () =
  let engine = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule engine ~delay:0.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run engine;
  Alcotest.(check bool) "cancelled zero-delay event" false !fired

(* Mass cancellation must not bloat the pending queue: once cancelled
   events dominate, the next schedule sweeps them out. *)
let test_engine_mass_cancel_compacts () =
  let engine = Engine.create () in
  let handles =
    List.init 1000 (fun _ -> Engine.schedule engine ~delay:1000.0 (fun () -> ()))
  in
  Alcotest.(check int) "all queued" 1000 (Engine.pending engine);
  List.iter Engine.cancel handles;
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> ()));
  Alcotest.(check bool) "dead events swept" true (Engine.pending engine <= 2);
  Engine.run engine;
  check_float "clock stops at live event" 0.5 (Engine.now engine)

(* A cancel after the event fired is a no-op: it must not count a
   cancelled-pending event, or a run of timed-out selects (whose cleanup
   cancels the timer that just fired) would inflate the count until
   every schedule triggered an O(n) compaction. *)
let test_engine_late_cancel_not_counted () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let handles =
    List.init 200 (fun i ->
        Engine.schedule engine ~delay:(float_of_int (i + 1)) (fun () -> incr fired))
  in
  Engine.run engine;
  Alcotest.(check int) "all fired" 200 !fired;
  List.iter Engine.cancel handles;
  Alcotest.(check int) "late cancels not counted" 0 (Engine.cancelled_pending engine);
  let h = Engine.schedule engine ~delay:1.0 ignore in
  let r = Engine.schedule engine ~delay:0.0 ignore in
  Engine.cancel h;
  Engine.cancel h;
  Engine.cancel r;
  Alcotest.(check int) "pending cancels counted once" 2 (Engine.cancelled_pending engine);
  Engine.run engine;
  Alcotest.(check int) "swept on pop" 0 (Engine.cancelled_pending engine);
  Alcotest.(check int) "queue empty" 0 (Engine.pending engine)

(* A horizon behind the clock must not move it backwards. *)
let test_engine_until_never_rewinds () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~delay:5.0 ignore);
  ignore (Engine.schedule engine ~delay:9.0 ignore);
  Engine.run ~until:5.0 engine;
  check_float "at the first horizon" 5.0 (Engine.now engine);
  Engine.run ~until:1.0 engine;
  check_float "an earlier horizon leaves the clock" 5.0 (Engine.now engine);
  Engine.run engine;
  check_float "then runs on" 9.0 (Engine.now engine)

(* The runaway guard raises only when a live event is still due after
   [max_events] have run: a run that executes exactly [max_events] and
   has nothing left due returns, and one with one more due event
   raises.  Cancelled leftovers and events past the bound are not
   due. *)
let test_engine_max_events () =
  let ticks n =
    let engine = Engine.create () in
    for i = 1 to n do
      ignore (Engine.schedule engine ~delay:(float_of_int i) ignore)
    done;
    engine
  in
  let raises what f =
    Alcotest.check_raises what
      (Invalid_argument (what ^ ": max_events exceeded (runaway simulation?)"))
      f
  in
  Alcotest.(check int) "exactly max_events" 5 (Engine.run_counted ~max_events:5 (ticks 5));
  raises "Engine.run" (fun () -> ignore (Engine.run_counted ~max_events:5 (ticks 6)));
  let e = ticks 5 in
  Engine.cancel (Engine.schedule e ~delay:10.0 ignore);
  Alcotest.(check int) "a cancelled leftover is not due" 5 (Engine.run_counted ~max_events:5 e);
  let e = ticks 6 in
  Alcotest.(check int) "an event past until is not due" 5
    (Engine.run_counted ~until:5.5 ~max_events:5 e);
  check_float "the clock stops at until" 5.5 (Engine.now e);
  raises "Engine.run" (fun () -> ignore (Engine.run_counted ~until:6.0 ~max_events:5 (ticks 6)));
  Alcotest.(check int) "an event at the window's limit is not due" 5
    (Engine.run_window ~max_events:5 (ticks 6) ~limit:6.0);
  raises "Engine.run_window" (fun () ->
      ignore (Engine.run_window ~max_events:5 (ticks 6) ~limit:6.5));
  (* A delay-0 chain that never ends. *)
  let e = Engine.create () in
  let rec again () = ignore (Engine.schedule e ~delay:0.0 again) in
  again ();
  raises "Engine.run" (fun () -> Engine.run ~max_events:1000 e)

(* One program of schedules at delays 1, 0 (the ready ring) and -1
   (clamped to 0), run twice: once with a reusable timer that is
   re-armed after each firing, once with a fresh [schedule] in its
   place.  Both must fire everything in the same (time, seq) order. *)
let timer_program ~reuse =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := (tag, Engine.now engine) :: !log in
  let timer = Engine.timer engine (record "timer") in
  let arm delay =
    if reuse then Engine.rearm engine timer ~delay
    else ignore (Engine.schedule engine ~delay (record "timer"))
  in
  List.iter
    (fun delay ->
      ignore (Engine.schedule engine ~delay (record "before"));
      arm delay;
      ignore (Engine.schedule engine ~delay (record "after"));
      Engine.run engine)
    [ 1.0; 0.0; -1.0; 1.0 ];
  List.rev !log

let test_engine_timer_rearm () =
  Alcotest.(check (list (pair string (float 0.0))))
    "re-armed timer fires where a fresh schedule would" (timer_program ~reuse:false)
    (timer_program ~reuse:true);
  let engine = Engine.create () in
  let fired = ref 0 in
  let timer = Engine.timer engine (fun () -> incr fired) in
  Engine.rearm engine timer ~delay:1.0;
  Alcotest.check_raises "re-arming a queued timer"
    (Invalid_argument "Engine.rearm: timer still queued") (fun () ->
      Engine.rearm engine timer ~delay:2.0);
  Alcotest.(check int) "queued once" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "fired once" 1 !fired;
  Engine.rearm engine timer ~delay:1.0;
  Engine.cancel timer;
  Engine.run engine;
  Alcotest.(check int) "cancelled, not fired" 1 !fired;
  Alcotest.check_raises "re-arming a cancelled timer"
    (Invalid_argument "Engine.rearm: timer cancelled") (fun () ->
      Engine.rearm engine timer ~delay:1.0);
  Alcotest.check_raises "re-arming on another engine"
    (Invalid_argument "Engine.rearm: timer of another engine") (fun () ->
      Engine.rearm (Engine.create ()) (Engine.timer engine ignore) ~delay:1.0)

(* A cancelled event waits in the heap until its time, but what its
   closure captured must not: [payload] is reachable only from the
   closure of an event cancelled 10 s before it falls due. *)
let[@inline never] schedule_holding engine weak =
  let payload = Bytes.make 4096 'x' in
  Weak.set weak 0 (Some payload);
  Engine.schedule engine ~delay:10.0 (fun () -> ignore (Bytes.length payload))

let test_engine_cancel_releases_closure () =
  let engine = Engine.create () in
  let weak = Weak.create 1 in
  let h = schedule_holding engine weak in
  ignore (Engine.schedule engine ~delay:1.0 ignore);
  Engine.cancel h;
  Gc.full_major ();
  Alcotest.(check int) "the cancelled event is still queued" 1 (Engine.cancelled_pending engine);
  Alcotest.(check bool) "its closure's capture is collected" false (Weak.check weak 0);
  Engine.run engine;
  check_float "and it never fires" 1.0 (Engine.now engine)

(* Random schedule/cancel interleavings against a sorted-list reference
   model: the engine (ready ring + heap + compaction) must execute in
   exactly the model's (time, seq) order.  Specs drive both sides:
   top-level events may, on firing, schedule a child (possibly with
   delay 0 -> the ready ring) and/or cancel the previous top-level
   event (exercising cancellation of both pending and fired events). *)
let prop_engine_matches_reference_model =
  let delays = [| 0.0; 0.0; 0.25; 0.5; 1.0 |] in
  let spec =
    QCheck.Gen.(
      map3
        (fun d child cancel_prev -> (d, child, cancel_prev))
        (int_bound (Array.length delays - 1))
        (opt (int_bound (Array.length delays - 1)))
        bool)
  in
  let arb = QCheck.make ~print:(fun l -> string_of_int (List.length l))
      QCheck.Gen.(list_size (int_range 0 40) spec)
  in
  QCheck.Test.make ~name:"engine matches sorted-list reference model" ~count:300 arb
    (fun specs ->
      let n = List.length specs in
      (* --- engine side --- *)
      let engine = Engine.create () in
      let fired = ref [] in
      let fresh = ref n in
      let handles = Array.make (max n 1) None in
      List.iteri
        (fun i (d, child, cancel_prev) ->
          let run () =
            fired := i :: !fired;
            (match child with
            | Some cd ->
              let cid = !fresh in
              incr fresh;
              ignore
                (Engine.schedule engine ~delay:delays.(cd) (fun () ->
                     fired := cid :: !fired))
            | None -> ());
            if cancel_prev && i > 0 then
              match handles.(i - 1) with Some h -> Engine.cancel h | None -> ()
          in
          handles.(i) <- Some (Engine.schedule engine ~delay:delays.(d) run))
        specs;
      Engine.run engine;
      let engine_order = List.rev !fired in
      (* --- reference model: plain sorted-list event queue --- *)
      let model_fired = ref [] in
      let model_fresh = ref n in
      let model_seq = ref n in
      let cancelled = Array.make (max !fresh 1) false in
      (* pending: (time, seq, id, action); top-level i has seq i *)
      let pending =
        ref
          (List.mapi (fun i (d, child, cancel_prev) ->
               (delays.(d), i, i, Some (child, cancel_prev)))
             specs)
      in
      let rec drain now =
        match
          List.fold_left
            (fun best ((t, s, _, _) as e) ->
              match best with
              | Some (bt, bs, _, _) when bt < t || (bt = t && bs < s) -> best
              | _ -> Some e)
            None !pending
        with
        | None -> ()
        | Some ((_, _, id, action) as e) ->
          pending := List.filter (fun e' -> e' != e) !pending;
          if cancelled.(id) then drain now
          else begin
            let t, _, _, _ = e in
            model_fired := id :: !model_fired;
            (match action with
            | Some (child, cancel_prev) ->
              let i = id in
              (match child with
              | Some cd ->
                let cid = !model_fresh in
                incr model_fresh;
                let seq = !model_seq in
                incr model_seq;
                pending := (t +. delays.(cd), seq, cid, None) :: !pending
              | None -> ());
              if cancel_prev && i > 0 && i - 1 < n then cancelled.(i - 1) <- true
            | None -> ());
            drain t
          end
      in
      drain 0.0;
      engine_order = List.rev !model_fired)

(* ------------------------------------------------------------------ *)
(* Fiber *)

let test_fiber_sleep () =
  let engine = Engine.create () in
  let wake_time = ref 0.0 in
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.sleep 3.0;
         wake_time := Engine.now engine));
  Engine.run engine;
  check_float "slept" 3.0 !wake_time

let test_fiber_interleave () =
  let engine = Engine.create () in
  let log = ref [] in
  let worker name pause =
    Fiber.spawn engine (fun () ->
        for i = 1 to 3 do
          Fiber.sleep pause;
          log := Printf.sprintf "%s%d" name i :: !log
        done)
  in
  ignore (worker "a" 1.0);
  ignore (worker "b" 1.5);
  Engine.run engine;
  Alcotest.(check (list string))
    (* a wakes at 1,2,3; b at 1.5,3,4.5.  At t=3 b's timer was scheduled
       earlier (t=1.5) than a's (t=2), so b2 precedes a3. *)
    "interleaving" [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ] (List.rev !log)

(* [on_terminate] runs its callback at once on a terminated fiber. *)
let terminated f =
  let t = ref false in
  Fiber.on_terminate f (fun () -> t := true);
  !t

let test_fiber_cancel_sleeping () =
  let engine = Engine.create () in
  let reached = ref false in
  let cleaned = ref false in
  let f =
    Fiber.spawn engine (fun () ->
        (try Fiber.sleep 100.0 with Fiber.Cancelled as e -> cleaned := true; raise e);
        reached := true)
  in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> Fiber.cancel f));
  Engine.run engine;
  Alcotest.(check bool) "not reached" false !reached;
  Alcotest.(check bool) "cleanup ran" true !cleaned;
  Alcotest.(check bool) "terminated" true (terminated f);
  check_float "stopped early" 1.0 (Engine.now engine)

let test_fiber_cancel_before_start () =
  let engine = Engine.create () in
  let ran = ref false in
  let f = Fiber.spawn engine (fun () -> ran := true) in
  Fiber.cancel f;
  Engine.run engine;
  Alcotest.(check bool) "never ran" false !ran;
  Alcotest.(check bool) "terminated" true (terminated f)

(* Cancelling a sleeper twice in one event wakes it once. *)
let test_fiber_cancel_twice () =
  let engine = Engine.create () in
  let raised = ref 0 in
  let f =
    Fiber.spawn engine (fun () -> try Fiber.sleep 10.0 with Fiber.Cancelled -> incr raised)
  in
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         Fiber.cancel f;
         Fiber.cancel f;
         Alcotest.(check int) "one resume queued" 1
           (Engine.pending engine - Engine.cancelled_pending engine)));
  Engine.run engine;
  Alcotest.(check int) "raised once" 1 !raised;
  Alcotest.(check bool) "terminated" true (terminated f);
  check_float "woken at the cancel" 1.0 (Engine.now engine)

(* A cancel due in the very instant a sleep's timer fires: one queued
   before the timer was armed wins and the sleep raises; one queued
   after it finds the fiber awake, and its next sleep raises. *)
let test_fiber_cancel_at_wake () =
  let run ~cancel_first =
    let engine = Engine.create () in
    let log = ref [] in
    let note what = log := (what, Engine.now engine) :: !log in
    let fiber = ref None in
    let cancel () = Option.iter Fiber.cancel !fiber in
    if cancel_first then ignore (Engine.schedule engine ~delay:1.0 cancel)
    else
      (* Keeps the sleep off the clock-jump path, then queues the
         cancel for 1.0 behind the armed timer. *)
      ignore
        (Engine.schedule engine ~delay:0.5 (fun () ->
             ignore (Engine.schedule engine ~delay:0.5 cancel)));
    fiber :=
      Some
        (Fiber.spawn engine (fun () ->
             (try
                Fiber.sleep 1.0;
                note "woke"
              with Fiber.Cancelled -> note "cancelled");
             try
               Fiber.sleep 1.0;
               note "woke again"
             with Fiber.Cancelled -> note "cancelled again"));
    Engine.run engine;
    List.rev !log
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "cancel first" [ ("cancelled", 1.0); ("cancelled again", 1.0) ] (run ~cancel_first:true);
  Alcotest.(check (list (pair string (float 0.0))))
    "timer first" [ ("woke", 1.0); ("cancelled again", 1.0) ] (run ~cancel_first:false)

(* A sleep after a cancelled sleep raises at once, whether the fiber
   swallowed the first [Cancelled] or not, and queues no timer. *)
(* [self] reads the fiber that the engine transferred control to; in
   code no fiber runs (before the run, or in a bare engine callback)
   there is none, and it says so instead of falling back to an effect
   no handler catches. *)
let test_fiber_self_outside () =
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument msg -> msg = "Fiber.self: not in a fiber"
  in
  Alcotest.(check bool) "before the run" true (raises Fiber.self);
  let engine = Engine.create () in
  let in_callback = ref false and in_fiber = ref false in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> in_callback := raises Fiber.self));
  let f = Fiber.spawn engine (fun () -> in_fiber := Fiber.id (Fiber.self ()) > 0) in
  Engine.run engine;
  Alcotest.(check bool) "in an engine callback" true !in_callback;
  Alcotest.(check bool) "in a fiber" true (!in_fiber && Fiber.id f > 0);
  Alcotest.(check bool) "after the run" true (raises Fiber.self)

let test_fiber_sleep_after_cancel () =
  let engine = Engine.create () in
  let raised = ref [] in
  let f =
    Fiber.spawn engine (fun () ->
        for _ = 1 to 3 do
          try Fiber.sleep 5.0 with Fiber.Cancelled -> raised := Engine.now engine :: !raised
        done)
  in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> Fiber.cancel f));
  Engine.run engine;
  Alcotest.(check (list (float 0.0))) "each sleep raised at the cancel" [ 1.0; 1.0; 1.0 ] !raised;
  Alcotest.(check int) "nothing left queued" 0 (Engine.pending engine);
  check_float "no sleep ran" 1.0 (Engine.now engine)

let test_mailbox_fifo () =
  let engine = Engine.create () in
  let mb = Mailbox.create engine in
  let got = ref [] in
  ignore
    (Fiber.spawn engine (fun () ->
         for _ = 1 to 3 do
           match Mailbox.recv mb with
           | Some v -> got := v :: !got
           | None -> Alcotest.fail "unexpected timeout"
         done));
  ignore
    (Fiber.spawn engine (fun () ->
         Mailbox.send mb "x";
         Fiber.sleep 1.0;
         Mailbox.send mb "y";
         Mailbox.send mb "z"));
  Engine.run engine;
  Alcotest.(check (list string)) "fifo" [ "x"; "y"; "z" ] (List.rev !got)

let test_mailbox_timeout () =
  let engine = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create engine in
  let result = ref (Some 0) in
  ignore (Fiber.spawn engine (fun () -> result := Mailbox.recv ~timeout:2.0 mb));
  Engine.run engine;
  Alcotest.(check (option int)) "timed out" None !result;
  check_float "after timeout" 2.0 (Engine.now engine)

let test_mailbox_timeout_then_message_not_lost () =
  let engine = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create engine in
  let first = ref None and second = ref None in
  ignore
    (Fiber.spawn engine (fun () ->
         first := Mailbox.recv ~timeout:1.0 mb;
         (* message arrives at t=2, after our timeout; a later recv must get it *)
         Fiber.sleep 2.0;
         second := Mailbox.recv ~timeout:1.0 mb));
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.sleep 2.0;
         Mailbox.send mb 7));
  Engine.run engine;
  Alcotest.(check (option int)) "first timed out" None !first;
  Alcotest.(check (option int)) "second got message" (Some 7) !second

(* Timed-out waiters must be reclaimed eagerly, not parked until the
   next send. *)
let test_mailbox_timeout_reclaims_waiters () =
  let engine = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create engine in
  ignore
    (Fiber.spawn engine (fun () ->
         for _ = 1 to 100 do
           ignore (Mailbox.recv ~timeout:0.001 mb)
         done));
  Engine.run engine;
  Alcotest.(check int) "no waiters parked" 0 (Mailbox.waiting mb);
  (* a send after the churn must queue, not vanish into a dead waiter *)
  Mailbox.send mb 9;
  Alcotest.(check int) "message queued" 1 (Mailbox.length mb)

(* A cancelled receiver must not swallow a later message. *)
let test_mailbox_cancelled_recv_not_lost () =
  let engine = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create engine in
  let got = ref None in
  let victim = Fiber.spawn engine (fun () -> ignore (Mailbox.recv mb)) in
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.sleep 1.0;
         Fiber.cancel victim;
         (* the cancellation lands via a zero-delay event; check after *)
         Fiber.sleep 0.2;
         Alcotest.(check int) "victim's waiter retired" 0 (Mailbox.waiting mb);
         Fiber.sleep 0.8;
         Mailbox.send mb 42));
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.sleep 1.5;
         got := Mailbox.recv mb));
  Engine.run engine;
  Alcotest.(check (option int)) "message reached the live receiver" (Some 42) !got

(* A fiber whose cancellation was requested before it parked raises at
   the park without ever entering the waiter queue, so nothing may be
   subtracted from [waiting] on its way out. *)
let test_mailbox_cancelled_before_park () =
  let engine = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create engine in
  let raised = ref false in
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.cancel (Fiber.self ());
         match Mailbox.recv mb with
         | _ -> ()
         | exception Fiber.Cancelled -> raised := true));
  Engine.run engine;
  Alcotest.(check bool) "recv raised Cancelled" true !raised;
  Alcotest.(check int) "no waiter counted" 0 (Mailbox.waiting mb);
  ignore (Fiber.spawn engine (fun () -> ignore (Mailbox.recv mb)));
  Engine.run engine;
  Alcotest.(check int) "a later receiver counts" 1 (Mailbox.waiting mb)

(* Popped waiters must not hold each other: a receiver served while
   an older one's cancelled timeout is still queued is collectable once
   its fiber ends. *)
let test_mailbox_popped_waiters_collectable () =
  let engine = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create engine in
  (* A live event before the timeout keeps the cancelled timer queued. *)
  ignore (Engine.schedule engine ~delay:100.0 ignore);
  ignore (Fiber.spawn engine (fun () -> ignore (Mailbox.recv ~timeout:1000.0 mb)));
  let receivers = Weak.create 10 in
  for i = 0 to 9 do
    Weak.set receivers i (Some (Fiber.spawn engine (fun () -> ignore (Mailbox.recv mb))))
  done;
  ignore
    (Fiber.spawn engine (fun () ->
         for i = 0 to 10 do
           Fiber.sleep 1.0;
           Mailbox.send mb i
         done));
  Engine.run ~until:50.0 engine;
  Gc.full_major ();
  Alcotest.(check int) "cancelled timeout still queued" 1 (Engine.cancelled_pending engine);
  for i = 0 to 9 do
    if Weak.check receivers i then Alcotest.failf "receiver %d still reachable" i
  done

(* [Mailbox.serve ~idle] against the literal [recv ~timeout:idle] loop
   it replaces.  A schedule puts [workers] servers on one mailbox and
   drives it with sends and at most one cancellation, all on a 0.25 s
   grid, so idle expiries (every 0.5 s) and sends can share an instant.
   An [Early] action is scheduled before any fiber runs, so it precedes
   every expiry due at its instant; a [Late] one is scheduled 0.25 s
   ahead, after the expiry due at its instant was armed, so it lands
   between that expiry and its resume slot. *)
type timing = Early | Late

type idle_schedule = {
  workers : int;
  sends : (int * timing * int) list;  (* grid instant, timing, handling steps *)
  cancel : (int * int * timing) option;  (* worker, grid instant, timing *)
}

let grid = 0.25
let idle = 0.5
let horizon = 5.0

let at_grid engine step timing f =
  let at = Float.of_int step *. grid in
  match timing with
  | Late when step > 0 ->
    ignore
      (Engine.schedule_abs engine ~at:(at -. grid) (fun () ->
           ignore (Engine.schedule engine ~delay:grid f)))
  | Early | Late -> ignore (Engine.schedule_abs engine ~at f)

(* Run one schedule; [serve] picks the loop.  Returns the handled
   (time, worker, item) sequence, the events executed and the trace. *)
let run_idle_schedule ~serve sched =
  let engine = Engine.create () in
  let sink = Engine.enable_tracing ~capacity:100_000 engine in
  let mb = Mailbox.create engine in
  let handled = ref [] in
  let handle wid (item, steps) =
    handled := (Engine.now engine, wid, item) :: !handled;
    (* Odd items swallow a cancellation raised while they are handled,
       so the loop itself must then notice it at the next park. *)
    try if steps > 0 then Fiber.sleep (Float.of_int steps *. grid)
    with Fiber.Cancelled when item land 1 = 1 -> ()
  in
  let fibers =
    Array.init sched.workers (fun wid ->
        Fiber.spawn engine (fun () ->
            if serve then Mailbox.serve ~idle mb (handle wid)
            else
              while true do
                Option.iter (handle wid) (Mailbox.recv ~timeout:idle mb)
              done))
  in
  List.iteri
    (fun item (step, timing, steps) ->
      at_grid engine step timing (fun () -> Mailbox.send mb (item, steps)))
    sched.sends;
  Option.iter
    (fun (wid, step, timing) ->
      at_grid engine step timing (fun () -> Fiber.cancel fibers.(wid mod sched.workers)))
    sched.cancel;
  let events = Engine.run_counted ~until:horizon engine in
  Circus_trace.Trace.stop ();
  ( List.rev !handled,
    events,
    Mailbox.waiting mb,
    Circus_trace.Export.jsonl_events (Circus_trace.Trace.sink_events sink) )

let check_idle_equivalent sched =
  let handled, events, waiting, trace = run_idle_schedule ~serve:true sched in
  let handled', events', waiting', trace' = run_idle_schedule ~serve:false sched in
  Alcotest.(check (list (triple (float 0.0) int int))) "handled" handled' handled;
  Alcotest.(check int) "events executed" events' events;
  Alcotest.(check int) "waiting" waiting' waiting;
  Alcotest.(check string) "trace" trace' trace

(* The three cancellation points, with a send between an expiry and
   its slot in each: worker 0 parks at 0 and its first expiry is due
   at 0.5. *)
let test_serve_cancel_parked () =
  check_idle_equivalent
    { workers = 2; sends = [ (2, Late, 0); (6, Early, 1) ]; cancel = Some (0, 1, Early) }

let test_serve_cancel_between_expiry_and_slot () =
  List.iter
    (fun sends -> check_idle_equivalent { workers = 1; sends; cancel = Some (0, 4, Late) })
    [ [ (2, Late, 0) ]; [ (2, Late, 0); (4, Late, 0) ] ]

let test_serve_cancel_handling () =
  List.iter
    (fun (sends, cancel) -> check_idle_equivalent { workers = 2; sends; cancel = Some cancel })
    [ (* Item 0 lets Cancelled end worker 0's loop. *)
      ([ (1, Early, 3); (2, Late, 0) ], (0, 2, Early));
      (* Worker 1 swallows it in item 1, takes item 2 from the queue
         before worker 0's resume slot runs, and raises at its next
         park. *)
      ([ (0, Early, 0); (1, Early, 3); (2, Late, 0) ], (1, 2, Early)) ]

let prop_serve_matches_recv_loop =
  let timing = QCheck.Gen.map (fun b -> if b then Early else Late) QCheck.Gen.bool in
  let gen =
    QCheck.Gen.(
      map3
        (fun workers sends cancel -> { workers; sends; cancel })
        (int_range 1 3)
        (list_size (int_range 0 12) (triple (int_bound 16) timing (int_bound 3)))
        (opt (triple (int_bound 2) (int_bound 16) timing)))
  in
  let print s =
    Printf.sprintf "workers %d, %d sends, cancel %s" s.workers (List.length s.sends)
      (match s.cancel with
      | None -> "none"
      | Some (w, step, t) ->
        Printf.sprintf "worker %d at step %d (%s)" w step (if t = Early then "early" else "late"))
  in
  QCheck.Test.make ~name:"serve ~idle matches the recv ~timeout loop" ~count:300
    (QCheck.make ~print gen)
    (fun sched ->
      check_idle_equivalent sched;
      true)

(* ------------------------------------------------------------------ *)
(* Seeded sleep/cancel programs, pinned by MD5 *)

(* Five fibers run random plans of [sleep], [sleep_busy] and
   [recv ~timeout] on a 0.25 s grid, one more serves the mailbox with
   an idle timeout, and cancellations (some doubled within one event)
   land on the same grid, [Early] or [Late], so a cancel can fall in
   the very instant a timer fires, before or after it.  Half the plan
   fibers swallow [Cancelled] and sleep on, which must raise again.
   Returns the MD5 of the fiber trace and the MD5 of what the program
   saw (its log, the event counts of two bounded [run_counted]s, the
   final clock).  The server never ends unless cancelled, so both runs
   are bounded. *)
let sleep_cancel_program seed =
  let engine = Engine.create ~seed () in
  let sink = Engine.enable_tracing ~capacity:100_000 engine in
  let g = Prng.create seed in
  let log = Buffer.create 4096 in
  let note who what = Printf.bprintf log "%.4f %d %s\n" (Engine.now engine) who what in
  let mb = Mailbox.create engine in
  let durations = [| 0.0; 0.25; 0.25; 0.5; 0.75; 1.0 |] in
  let plan_fiber fid =
    let plan =
      Array.init (6 + Prng.int g 6) (fun _ ->
          (Prng.int g 3, durations.(Prng.int g (Array.length durations))))
    in
    let stubborn = Prng.bool g ~p:0.5 in
    Fiber.spawn engine (fun () ->
        Array.iter
          (fun (kind, d) ->
            try
              match kind with
              | 0 ->
                Fiber.sleep d;
                note fid "slept"
              | 1 ->
                busy_sleep d;
                note fid "busy"
              | _ -> (
                match Mailbox.recv ~timeout:d mb with
                | Some i -> note fid (string_of_int i)
                | None -> note fid "idle")
            with Fiber.Cancelled when stubborn -> note fid "cancelled")
          plan;
        note fid "done")
  in
  let fibers = Array.init 5 plan_fiber in
  let server =
    Fiber.spawn engine (fun () ->
        Mailbox.serve ~idle:0.5 mb (fun i ->
            note 5 (Printf.sprintf "serve %d" i);
            Fiber.sleep 0.25))
  in
  let timing () = if Prng.bool g ~p:0.5 then Early else Late in
  for i = 0 to 5 do
    at_grid engine (Prng.int g 24) (timing ()) (fun () -> Mailbox.send mb i)
  done;
  for _ = 1 to 6 do
    let victim = Prng.int g 6 in
    let twice = Prng.bool g ~p:0.3 in
    at_grid engine (Prng.int g 16) (timing ()) (fun () ->
        note victim "cancel";
        let f = if victim = 5 then server else fibers.(victim) in
        Fiber.cancel f;
        if twice then Fiber.cancel f)
  done;
  let bounded = Engine.run_counted ~until:3.0 engine in
  let rest = Engine.run_counted ~until:8.0 engine in
  Circus_trace.Trace.stop ();
  Printf.bprintf log "events %d + %d, now %.4f\n" bounded rest (Engine.now engine);
  let md5 s = Digest.to_hex (Digest.string s) in
  ( md5 (Circus_trace.Export.jsonl_events (Circus_trace.Trace.sink_events sink)),
    md5 (Buffer.contents log) )

(* Recorded before the engine's timers became reusable: the timers'
   reuse must leave every trace event and every count of these
   programs as it was. *)
let sleep_cancel_goldens =
  [ (1, ("80060b92f3769ba703f75846c0679018", "dd676b8787f862b93d0ad798420c688e"));
    (2, ("0dabcc52c58986d1fcff02f0d24b81c9", "91b7e4dbe4ede5e7abd674a0981fbd28"));
    (3, ("1577f540cdbdd08b6d7b7f0aebf1cf4f", "9accacd00aa8b5b2b3c1be22471dafe6"));
    (4, ("753579a4179c42b53c3ecaa1a5166281", "2b83e274dbeb253619559c1dd9e59e94"));
    (5, ("80b92af3bd7fe632bcd0daef710ff8a5", "f2cd918cfc2f07931b26097f39e56c5c"));
    (6, ("cad16bdeaed3eb606793eddb90b9e296", "5591d941e8caa4cdc08810edc89dcb48")) ]

let test_sleep_cancel_goldens () =
  List.iter
    (fun (seed, (trace, seen)) ->
      let trace', seen' = sleep_cancel_program seed in
      Alcotest.(check string) (Printf.sprintf "seed %d trace" seed) trace trace';
      Alcotest.(check string) (Printf.sprintf "seed %d run" seed) seen seen')
    sleep_cancel_goldens

(* What a suspending sleep allocates.  Two fibers sleep 1 s at a time,
   half a second apart, so each sleep finds the other's wake due first
   and suspends.  A reusable timer re-armed from its own expiry runs the
   same engine loop and re-arm path without a fiber; its words are the
   floor the sleeps are measured against (none with cross-module
   inlining, a few boxed floats per event in a build without it, such as
   dune's default dev profile).  What is left is the sleep's own: its
   continuation, 6 words on OCaml 5.1, and no payload, closure, option
   or event. *)
let test_sleep_words () =
  let n = 10_000 in
  let words_per_wake run =
    Gc.minor ();
    let before = Gc.minor_words () in
    let events = run () in
    Gc.minor ();
    Alcotest.(check bool) "every wake is an event" true (events >= 2 * n);
    (Gc.minor_words () -. before) /. float_of_int (2 * n)
  in
  let engine = Engine.create () in
  let sleeper offset =
    ignore
      (Fiber.spawn engine (fun () ->
           Fiber.sleep offset;
           for _ = 1 to n do
             Fiber.sleep 1.0
           done))
  in
  sleeper 0.0;
  sleeper 0.5;
  let sleeps = words_per_wake (fun () -> Engine.run_counted engine) in
  let engine = Engine.create () in
  let fired = ref 0 in
  let rec timer =
    lazy
      (Engine.timer engine (fun () ->
           incr fired;
           if !fired < 2 * n then Engine.rearm engine (Lazy.force timer) ~delay:1.0))
  in
  Engine.rearm engine (Lazy.force timer) ~delay:1.0;
  let floor = words_per_wake (fun () -> Engine.run_counted engine) in
  if sleeps -. floor > 8.0 then
    Alcotest.failf "a suspending sleep allocates %.1f words beyond a timer's %.1f (budget 8)"
      (sleeps -. floor) floor

(* The one order in which a busy sleep differs from a suspending one.
   An event due at exactly the sleeper's target schedules a delay-0
   event.  A suspending sleep's wake, scheduled after the due event,
   runs before that delay-0 event; a busy sleep drains the ring, which
   holds it, before it wakes (see [Engine.sleep_drain]).  Both orders
   are pinned as they stand: a drain that stops at the wake's (time,
   seq) would agree with [Fiber.sleep], but moves schedules. *)
let sleep_order sleep =
  let engine = Engine.create () in
  let log = ref [] in
  let note what = log := what :: !log in
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         ignore (Engine.schedule engine ~delay:0.0 (fun () -> note "delay-0 event"))));
  ignore
    (Fiber.spawn engine (fun () ->
         sleep 1.0;
         log := Printf.sprintf "sleeper wakes at %.1f" (Engine.now engine) :: !log));
  Engine.run engine;
  String.concat ", " (List.rev !log)

let test_busy_sleep_order () =
  Alcotest.(check string) "sleep" "sleeper wakes at 1.0, delay-0 event" (sleep_order Fiber.sleep);
  Alcotest.(check string)
    "sleep_busy" "delay-0 event, sleeper wakes at 1.0" (sleep_order busy_sleep)

(* The second order in which a busy sleep differs.  Fiber A sleeps 1 s
   while fiber B's wake at 0.5 s is queued; B then sleeps to exactly
   A's target.  Under a busy sleep A drains B's wake, and B's sleep may
   jump the clock to a target equal to A's, so B wakes on A's stack
   before A: "B@1 A@1".  Suspending, A's wake was scheduled first and B
   wakes after it.  Pinned as it stands: a sleep that stopped short of
   a bound it only reaches would agree with a suspending one, but moves
   schedules. *)
let nested_sleep_order ~outer ~inner =
  let engine = Engine.create () in
  let log = ref [] in
  let note who = log := Printf.sprintf "%s@%g" who (Engine.now engine) :: !log in
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.sleep 0.5;
         inner 0.5;
         note "B"));
  ignore
    (Fiber.spawn engine (fun () ->
         outer 1.0;
         note "A"));
  Engine.run engine;
  String.concat " " (List.rev !log)

let test_nested_sleep_order () =
  List.iter
    (fun (name, outer, inner, expected) ->
      Alcotest.(check string) name expected (nested_sleep_order ~outer ~inner))
    [ ("both suspend", Fiber.sleep, Fiber.sleep, "A@1 B@1");
      ("outer busy", busy_sleep, Fiber.sleep, "B@1 A@1");
      ("both busy", busy_sleep, busy_sleep, "B@1 A@1");
      ("inner busy", Fiber.sleep, busy_sleep, "A@1 B@1") ]

let test_condition_signal_broadcast () =
  let engine = Engine.create () in
  let cond = Condition.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Fiber.spawn engine (fun () ->
           Condition.await cond;
           incr woken))
  done;
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.sleep 1.0;
         Condition.signal cond;
         Fiber.sleep 1.0;
         Condition.broadcast cond));
  Engine.run engine;
  Alcotest.(check int) "all woken" 3 !woken

let test_condition_cancelled_waiter_dropped () =
  (* Regression: a waiter whose fiber is cancelled while parked must be
     retired from the queue, so a later [signal] reaches a live waiter
     instead of being consumed by the corpse. *)
  let engine = Engine.create () in
  let cond = Condition.create () in
  let got = ref [] in
  let doomed =
    Fiber.spawn engine (fun () ->
        Condition.await cond;
        got := 1 :: !got)
  in
  ignore
    (Fiber.spawn engine (fun () ->
         Condition.await cond;
         got := 2 :: !got));
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.sleep 1.0;
         Fiber.cancel doomed;
         Condition.signal cond));
  Engine.run engine;
  Alcotest.(check (list int)) "signal reached the live waiter" [ 2 ] !got

let test_condition_timeout () =
  let engine = Engine.create () in
  let cond = Condition.create () in
  let outcome = ref `Signalled in
  ignore (Fiber.spawn engine (fun () -> outcome := Condition.await_timeout engine cond 3.0));
  Engine.run engine;
  Alcotest.(check bool) "timed out" true (!outcome = `Timeout)

(* Every wait that ends without a signal leaves the queue: its timeout,
   a cancellation while parked, and a cancellation already pending when
   it parks.  A condition that is only ever waited on this way stays as
   small as a fresh one. *)
let test_condition_waiters_leave () =
  let engine = Engine.create () in
  let cond = Condition.create () in
  let fresh = Obj.reachable_words (Obj.repr (Condition.create ())) in
  ignore
    (Fiber.spawn engine (fun () ->
         for _ = 1 to 100 do
           ignore (Condition.await_timeout engine cond 0.5)
         done));
  let doomed = Fiber.spawn engine (fun () -> Condition.await cond) in
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.sleep 1.0;
         Fiber.cancel doomed));
  ignore
    (Fiber.spawn engine (fun () ->
         Fiber.cancel (Fiber.self ());
         for _ = 1 to 100 do
           try Condition.await cond with Fiber.Cancelled -> ()
         done));
  Engine.run engine;
  Alcotest.(check int) "queue emptied" fresh (Obj.reachable_words (Obj.repr cond))

let prop_fiber_sleep_monotone =
  QCheck.Test.make ~name:"many sleepers wake in delay order" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.0 100.0))
    (fun delays ->
      let engine = Engine.create () in
      let wakes = ref [] in
      List.iter
        (fun d -> ignore (Fiber.spawn engine (fun () -> Fiber.sleep d; wakes := d :: !wakes)))
        delays;
      Engine.run engine;
      let order = List.rev !wakes in
      order = List.stable_sort Float.compare delays)

(* ------------------------------------------------------------------ *)
(* Seeded wait programs, pinned by MD5 *)

(* Each program races one kind of blocking wait against its wake
   sources on the 0.25 s grid ([at_grid]): sends or signals against
   timeout expiries in the same instant, cancellations against wakes,
   and cancellations requested before the wait parks (a fiber that
   swallows [Cancelled] aborts every later wait at once).  [run_waits] gives
   a program its engine, a PRNG and a log, runs it to [until] and
   returns the MD5 of the JSONL trace, the MD5 of the log, the events
   executed and the final clock.  A probe at every grid instant, due
   before anything else then, logs what the engine's queues hold: a
   timeout armed by a wait that never blocked, or cancelled early or
   late, shows there. *)
let run_waits seed ~until program =
  let engine = Engine.create ~seed () in
  let sink = Engine.enable_tracing ~capacity:500_000 engine in
  let g = Prng.create seed in
  let log = Buffer.create 4096 in
  let note who what = Printf.bprintf log "%.4f %d %s\n" (Engine.now engine) who what in
  for step = 0 to int_of_float (until /. grid) do
    ignore
      (Engine.schedule_abs engine ~at:(Float.of_int step *. grid) (fun () ->
           Printf.bprintf log "%.4f queued %d cancelled %d\n" (Engine.now engine)
             (Engine.pending engine) (Engine.cancelled_pending engine)))
  done;
  program engine g note;
  let events = Engine.run_counted ~until engine in
  Circus_trace.Trace.stop ();
  let md5 s = Digest.to_hex (Digest.string s) in
  ( md5 (Circus_trace.Export.jsonl_events (Circus_trace.Trace.sink_events sink)),
    md5 (Buffer.contents log),
    events,
    Printf.sprintf "%.4f" (Engine.now engine) )

let timing g = if Prng.bool g ~p:0.5 then Early else Late
let wait_durations = [| 0.25; 0.5; 0.75; 1.0 |]

(* [n] fibers run random plans of [wait], half of them stubborn (they
   swallow [Cancelled] and wait on); a plan step may first cancel its
   own fiber, so the wait after it is cancelled before it parks.
   [cancels] cancellations land on the grid, some doubled. *)
let wait_plans engine g note ~n ~cancels wait =
  let fibers =
    Array.init n (fun fid ->
        let plan =
          Array.init (5 + Prng.int g 5) (fun _ ->
              (Prng.int g 4, wait_durations.(Prng.int g (Array.length wait_durations))))
        in
        let stubborn = Prng.bool g ~p:0.5 in
        Fiber.spawn engine (fun () ->
            Array.iter
              (fun (kind, d) ->
                try
                  if kind = 0 && Prng.bool g ~p:0.3 then Fiber.cancel (Fiber.self ());
                  note fid (wait kind d)
                with Fiber.Cancelled when stubborn -> note fid "cancelled")
              plan;
            note fid "done"))
  in
  for _ = 1 to cancels do
    let victim = Prng.int g n in
    let twice = Prng.bool g ~p:0.3 in
    at_grid engine (Prng.int g 16) (timing g) (fun () ->
        note victim "cancel";
        Fiber.cancel fibers.(victim);
        if twice then Fiber.cancel fibers.(victim))
  done

let recv_races engine g note =
  let mb = Mailbox.create engine in
  wait_plans engine g note ~n:5 ~cancels:8 (fun _ d ->
      match Mailbox.recv ~timeout:d mb with Some i -> string_of_int i | None -> "idle");
  for i = 0 to 11 do
    at_grid engine (Prng.int g 24) (timing g) (fun () -> Mailbox.send mb i)
  done

let condition_races engine g note =
  let c = Condition.create () in
  wait_plans engine g note ~n:5 ~cancels:8 (fun kind d ->
      if kind = 3 then begin
        Condition.await c;
        "woken"
      end
      else
        match Condition.await_timeout engine c d with
        | `Signalled -> "signalled"
        | `Timeout -> "timeout");
  for _ = 0 to 11 do
    let broadcast = Prng.bool g ~p:0.2 in
    at_grid engine (Prng.int g 24) (timing g) (fun () ->
        if broadcast then Condition.broadcast c else Condition.signal c)
  done

(* Selects over two sockets of one host, with and without a timeout.
   The select costs nothing, so its expiry lands on the grid with the
   sends.  A ready select takes what both sockets hold. *)
let select_races engine g note =
  let net = Circus_net.Net.create engine () in
  let env =
    Circus_net.Syscall.make net
      ~costs:{ Circus_net.Syscall.default_costs with select = 0.0 }
      ()
  in
  let host = Circus_net.Net.add_host net () in
  let socks = [ Circus_net.Net.udp_bind net host (); Circus_net.Net.udp_bind net host () ] in
  let take () =
    String.concat " "
      (List.concat_map
         (fun s ->
           let mb = Circus_net.Net.mailbox s in
           let rec drain acc =
             match Mailbox.try_recv mb with
             | Some (d : Circus_net.Net.datagram) -> drain (Bytes.to_string d.payload :: acc)
             | None -> List.rev acc
           in
           drain [])
         socks)
  in
  wait_plans engine g note ~n:4 ~cancels:8 (fun kind d ->
      let timeout = if kind = 3 then None else Some d in
      if Circus_net.Syscall.select env ?timeout socks then "ready " ^ take () else "idle");
  for i = 0 to 11 do
    let s = List.nth socks (Prng.int g 2) in
    at_grid engine (Prng.int g 24) (timing g) (fun () ->
        Mailbox.send (Circus_net.Net.mailbox s)
          { Circus_net.Net.src = Circus_net.Net.socket_addr s;
            dst = Circus_net.Net.socket_addr s;
            payload = Bytes.of_string (string_of_int i);
            ctx = 0 })
  done

(* A binding client with one lookup permit.  Four leaders ask distinct
   names at once: the first holds the permit, the rest queue at the
   gate, and a fifth, cancelled before it asks, aborts in the queue.
   Followers then ask the same names and wait on the leaders' flights.
   The first leader and the followers are cancelled on a 5 ms grid,
   and some followers when their leader ends, in the instant their
   flight wakes them; the followers of a cancelled first leader ask
   again themselves.  No name is registered, so every answer is
   unknown. *)
let binding_races engine g note =
  let open Circus_net in
  let net = Net.create engine () in
  let env = Syscall.make net () in
  let rm = Net.add_host net ~name:"rm" () in
  ignore (Circus_binding.Ringmaster.start_member env rm);
  let ringmaster = Circus_binding.Ringmaster.bootstrap_troupe ~hosts:[ Host.id rm ] () in
  let rt = Circus_rpc.Runtime.create env (Net.add_host net ()) () in
  let client = Circus_binding.Client.create rt ~ringmaster in
  let ask who name ~cancel_first =
    Circus_rpc.Runtime.spawn_thread rt (fun ctx ->
        if cancel_first then Fiber.cancel (Fiber.self ());
        match Circus_binding.Client.import client ctx name with
        | _ -> note who "found"
        | exception Circus_binding.Client.Unknown_service _ -> note who "unknown"
        | exception Fiber.Cancelled -> note who "cancelled")
  in
  let leaders = Array.init 4 (fun i -> ask i (Printf.sprintf "n%d" i) ~cancel_first:false) in
  ignore (ask 4 "n4" ~cancel_first:true);
  let followers =
    Array.init 6 (fun i ->
        let leader = Prng.int g 4 in
        let f = ask (5 + i) (Printf.sprintf "n%d" leader) ~cancel_first:(Prng.bool g ~p:0.2) in
        if Prng.bool g ~p:0.3 then Fiber.on_terminate leaders.(leader) (fun () -> Fiber.cancel f);
        f)
  in
  let victims = Array.append [| leaders.(0) |] followers in
  for _ = 1 to 4 do
    let victim = victims.(Prng.int g (Array.length victims)) in
    ignore
      (Engine.schedule engine ~delay:(0.005 *. Float.of_int (Prng.int g 40)) (fun () ->
           Fiber.cancel victim))
  done

let wait_programs =
  [ ("recv", 8.0, recv_races);
    ("condition", 8.0, condition_races);
    ("select", 8.0, select_races);
    ("binding", 30.0, binding_races) ]

(* Recorded before every wait parked on its fiber's own park: parking
   must leave every trace event, count and clock of these programs as
   the generic suspension made them.  One row was re-recorded since:
   binding seed 3, whose follower 8 followed a first leader that is
   cancelled at 0.02 s.  It used to raise [Cancelled] then; it now asks
   the registry itself and logs "unknown" at 0.1843 s. *)
let wait_goldens =
  [ ( "recv",
      1,
      ("dafb419a0334d99644abfe7e407af12b", "c88b96259e61c9f3f324380798b5ee81", 98, "8.0000") );
    ( "recv",
      2,
      ("7676f5f7ac112cef95746c64c65edb0e", "8cad006042641ec34347cbfacea0318f", 100, "8.0000") );
    ( "recv",
      3,
      ("cf22fd6f136cea63da11905beb670c4f", "e765d93d300ff27783f020595c57bab6", 100, "8.0000") );
    ( "recv",
      4,
      ("86ed41c65b93d2b140a75148a24607d6", "ca03476141eb440ae43e2e7c5241536c", 108, "8.0000") );
    ( "recv",
      5,
      ("2266a439505d44e92a81d52144a1ec4b", "841762bbba396676561897b44e8ca8be", 102, "8.0000") );
    ( "recv",
      6,
      ("4b422cd8431de0e35b44be3e99b9a980", "e0cbe84c13081701ccf0175b6927fca8", 115, "8.0000") );
    ( "condition",
      1,
      ("4423c69f7a2dbf659ef90b4caba5a151", "38aafeaeb347ef5fdc93ab601805ffff", 92, "8.0000") );
    ( "condition",
      2,
      ("88402d174da4bdce43bb7b48f5dbfa62", "e81875852a9c2d8084155ba60561c00c", 94, "8.0000") );
    ( "condition",
      3,
      ("e55930d89da8aa08f694aff8ea4f0699", "ea599a115fed5e4844abb18aaec73afe", 98, "8.0000") );
    ( "condition",
      4,
      ("eb4f172759b4c794265bd2e561b07964", "205c858629af28f3501fd978c6c705f3", 104, "8.0000") );
    ( "condition",
      5,
      ("a5c48c2336a3b5d833a6464971a20c4a", "3cf56ac1f66c9a30c0d18d8fc7347d5d", 100, "8.0000") );
    ( "condition",
      6,
      ("f678dec78d0bb8be88b91416c9a00524", "a50e501c5b0d9fb3f7396ea3dd7df2e4", 111, "8.0000") );
    ( "select",
      1,
      ("b9837d6318df49248f51a8b8d4d6d571", "c06119318211fdff982fc9ea0d712bbd", 101, "8.0000") );
    ( "select",
      2,
      ("b545ea0a1bffa9a96def8e87f87ce304", "999e04b2fafa7dca6a7c6d58c50ecc28", 91, "8.0000") );
    ( "select",
      3,
      ("a10d91daa6eda47379e5d7a45c97503b", "cb61d629c64dd5bcb3206c8cb44b47c6", 100, "8.0000") );
    ( "select",
      4,
      ("ea1f167e1589eb1f0892a5c80cb672ff", "a9d5395d611ef330bc1e4ea3b55fcc4a", 120, "8.0000") );
    ( "select",
      5,
      ("5e6e5bf9f7780fd81efb513236148e40", "45db700c6f51f416e7a6374cb62b2c5f", 110, "8.0000") );
    ( "select",
      6,
      ("357ee2d48cc8fe772ef6413f1bb0b3dd", "d616aff003aa9854272d3f07e94df8c6", 99, "8.0000") );
    ( "binding",
      1,
      ("e617e39f6efa5393a28b752af0f7c01f", "53edf7ddb5957586f322d96daf1b6df8", 174, "30.0000") );
    ( "binding",
      2,
      ("ed5e1023a1b766ef902db96d72c784f5", "cc298daff3913ccdf6b8271fc819259b", 174, "30.0000") );
    ( "binding",
      3,
      ("1e633f602ca38f53871bcb128df6bad9", "dadb8ca0af1e5413b516a3a7386651d0", 177, "30.0000") );
    ( "binding",
      4,
      ("4ce50cb554d15f1cdef38a0851fd3572", "78766f9fd6680f77278585d1fe51df4a", 172, "30.0000") );
    ( "binding",
      5,
      ("fb224570ccb817a48bbf7abf9523dae3", "4ab16fb7e5e4c00f054d83597ec42e3c", 176, "30.0000") );
    ( "binding",
      6,
      ("cab1a2da1d37fe9d7a5c9aae4096dd85", "92909e54ce49fddb09bf63e20db6353b", 174, "30.0000") ) ]

let test_wait_goldens () =
  List.iter
    (fun (site, seed, (trace, seen, events, clock)) ->
      let _, until, program = List.find (fun (s, _, _) -> s = site) wait_programs in
      let trace', seen', events', clock' = run_waits seed ~until program in
      let name what = Printf.sprintf "%s seed %d %s" site seed what in
      Alcotest.(check string) (name "trace") trace trace';
      Alcotest.(check string) (name "run") seen seen';
      Alcotest.(check int) (name "events") events events';
      Alcotest.(check string) (name "clock") clock clock')
    wait_goldens

(* Once a wait has returned, none of its other wake sources may wake
   the fiber's next parking: a receive on another mailbox, whose item
   arrives at 3 s.  [wait] is the wait under test; [pokes] fires its
   wake sources around it. *)
let check_wakes_once name ~wait ~pokes =
  let engine = Engine.create () in
  let other = Mailbox.create engine in
  let got = ref None in
  ignore
    (Fiber.spawn engine (fun () ->
         wait engine;
         let item = Mailbox.recv other in
         got := Some (item, Engine.now engine)));
  pokes engine;
  ignore (Engine.schedule_abs engine ~at:3.0 (fun () -> Mailbox.send other "item"));
  Engine.run engine;
  Alcotest.(check (option (pair (option string) (float 0.0))))
    name
    (Some (Some "item", 3.0))
    !got

let at_s engine at timing f = at_grid engine (int_of_float (at /. grid)) timing f

let test_recv_wakes_once () =
  let mb = ref None in
  let wait engine =
    let m = Mailbox.create engine in
    mb := Some m;
    ignore (Mailbox.recv ~timeout:1.0 m)
  in
  let send engine at timing = at_s engine at timing (fun () -> Mailbox.send (Option.get !mb) 0) in
  (* Woken by a send: its expiry at 1 s and later sends. *)
  check_wakes_once "sent" ~wait ~pokes:(fun engine ->
      send engine 0.5 Early;
      send engine 0.75 Early;
      send engine 1.5 Early);
  (* Woken by its expiry: sends in that instant and later. *)
  check_wakes_once "expired" ~wait ~pokes:(fun engine ->
      send engine 1.0 Late;
      send engine 1.5 Early)

let test_condition_wakes_once () =
  let c = Condition.create () in
  let wait engine = ignore (Condition.await_timeout engine c 1.0) in
  let signal engine at timing = at_s engine at timing (fun () -> Condition.signal c) in
  let broadcast engine at timing = at_s engine at timing (fun () -> Condition.broadcast c) in
  check_wakes_once "signalled" ~wait ~pokes:(fun engine ->
      signal engine 0.5 Early;
      signal engine 0.75 Early;
      broadcast engine 1.5 Early);
  check_wakes_once "timed out" ~wait ~pokes:(fun engine ->
      signal engine 1.0 Late;
      broadcast engine 1.5 Early)

let test_select_wakes_once () =
  let socks = ref [] in
  let wait engine =
    let net = Circus_net.Net.create engine () in
    let env =
      Circus_net.Syscall.make net
        ~costs:{ Circus_net.Syscall.default_costs with select = 0.0 }
        ()
    in
    let host = Circus_net.Net.add_host net () in
    socks := [ Circus_net.Net.udp_bind net host (); Circus_net.Net.udp_bind net host () ];
    ignore (Circus_net.Syscall.select env ~timeout:1.0 !socks)
  in
  let send engine at timing i =
    at_s engine at timing (fun () ->
        let s = List.nth !socks i in
        Mailbox.send (Circus_net.Net.mailbox s)
          { Circus_net.Net.src = Circus_net.Net.socket_addr s;
            dst = Circus_net.Net.socket_addr s;
            payload = Bytes.empty;
            ctx = 0 })
  in
  check_wakes_once "ready" ~wait ~pokes:(fun engine ->
      send engine 0.5 Early 0;
      send engine 0.75 Early 1;
      send engine 1.5 Early 0);
  check_wakes_once "timed out" ~wait ~pokes:(fun engine ->
      send engine 1.0 Late 1;
      send engine 1.5 Early 0)

(* A binding client with one lookup permit, and [ask name ~at f], which
   looks [name] up on a thread started at [at], then runs [f] there.
   No name is registered: every lookup asks the registry. *)
let binding_client engine =
  let open Circus_net in
  let net = Net.create engine () in
  let env = Syscall.make net () in
  let rm = Net.add_host net ~name:"rm" () in
  ignore (Circus_binding.Ringmaster.start_member env rm);
  let ringmaster = Circus_binding.Ringmaster.bootstrap_troupe ~hosts:[ Host.id rm ] () in
  let rt = Circus_rpc.Runtime.create env (Net.add_host net ()) () in
  let client = Circus_binding.Client.create rt ~ringmaster in
  fun name ~at f ->
    ignore
      (Engine.schedule_abs engine ~at (fun () ->
           ignore
             (Circus_rpc.Runtime.spawn_thread rt (fun ctx ->
                  (try ignore (Circus_binding.Client.import client ctx name)
                   with Circus_binding.Client.Unknown_service _ -> ());
                  f ()))))

(* [check_wakes_once] for a lookup's waits: [first] asks at 0 s, after
   the lookups in [before], and then receives on another mailbox while
   the lookups in [after] (at 1 s) take and hand back the permit and
   fly their flights. *)
let check_lookup_wakes_once name ~before ~first ~after =
  let engine = Engine.create () in
  let ask = binding_client engine in
  let other = Mailbox.create engine in
  let got = ref None in
  List.iter (fun n -> ask n ~at:0.0 ignore) before;
  ask first ~at:0.0 (fun () -> let item = Mailbox.recv other in
         got := Some (item, Engine.now engine));
  List.iter (fun n -> ask n ~at:1.0 ignore) after;
  ignore (Engine.schedule_abs engine ~at:3.0 (fun () -> Mailbox.send other "item"));
  Engine.run engine;
  Alcotest.(check (option (pair (option string) (float 0.0))))
    name
    (Some (Some "item", 3.0))
    !got

(* Queued behind another name's lookup for the permit. *)
let test_gate_wakes_once () =
  check_lookup_wakes_once "gate" ~before:[ "n0" ] ~first:"n1" ~after:[ "n2"; "n3"; "n1" ]

(* Following another lookup's flight for the same name. *)
let test_flight_wakes_once () =
  check_lookup_wakes_once "flight" ~before:[ "n0" ] ~first:"n0" ~after:[ "n0"; "n0"; "n1" ]

(* ------------------------------------------------------------------ *)
(* Cancellation reaches only the fiber it targets *)

(* Six threads of one binding client's host run random plans over every
   wait site: a mailbox receive with and without a timeout, condition
   waits with and without one, a select over two sockets, a lookup (at
   the client's one-permit gate, or following another lookup's flight
   for the same name), and plain and busy sleeps.  Wake sources land on
   the 0.25 s grid, [Early] or [Late]; cancellations land on it and on
   a 5 ms grid, inside the registry calls, some doubled, and a plan
   step may cancel its own thread first.  A busy sleep drains the cancel
   events due before its end, some aimed at the sleeper itself.  Every
   cancel is counted against its target, and a thread ends at the first
   [Cancelled] it sees.  Returns, per thread, the cancels aimed at it
   and the [Cancelled]s it saw. *)
let cancel_reach_program seed =
  let open Circus_net in
  let engine = Engine.create ~seed () in
  let g = Prng.create seed in
  let net = Net.create engine () in
  let env = Syscall.make net ~costs:{ Syscall.default_costs with select = 0.0 } () in
  let rm = Net.add_host net ~name:"rm" () in
  ignore (Circus_binding.Ringmaster.start_member env rm);
  let ringmaster = Circus_binding.Ringmaster.bootstrap_troupe ~hosts:[ Host.id rm ] () in
  let host = Net.add_host net () in
  let rt = Circus_rpc.Runtime.create env host () in
  let client = Circus_binding.Client.create rt ~ringmaster in
  let mb = Mailbox.create engine in
  let c = Condition.create () in
  let socks = [ Net.udp_bind net host (); Net.udp_bind net host () ] in
  let n = 6 in
  let threads = Array.make n None in
  let aimed = Array.make n 0 and saw = Array.make n 0 in
  let cancel i =
    aimed.(i) <- aimed.(i) + 1;
    Option.iter Fiber.cancel threads.(i)
  in
  let wait ctx (kind, d, name) =
    match kind with
    | 0 -> ignore (Mailbox.recv ~timeout:d mb)
    | 1 -> ignore (Mailbox.recv mb)
    | 2 -> ignore (Condition.await_timeout engine c d)
    | 3 -> Condition.await c
    | 4 ->
      if Syscall.select env ~timeout:d socks then
        List.iter
          (fun s ->
            while Option.is_some (Mailbox.try_recv (Net.mailbox s)) do
              ()
            done)
          socks
    | 5 -> (
      try ignore (Circus_binding.Client.import client ctx (Printf.sprintf "n%d" name))
      with Circus_binding.Client.Unknown_service _ -> ())
    | 6 -> Fiber.sleep d
    | _ -> busy_sleep d
  in
  for i = 0 to n - 1 do
    let plan =
      Array.init (4 + Prng.int g 5) (fun step ->
          (* Lookups cluster at the start, where the flights are. *)
          let kind = if step = 0 && Prng.bool g ~p:0.6 then 5 else Prng.int g 8 in
          ( Prng.bool g ~p:0.05,
            (kind, wait_durations.(Prng.int g (Array.length wait_durations)), Prng.int g 3) ))
    in
    threads.(i) <-
      Some
        (Circus_rpc.Runtime.spawn_thread rt (fun ctx ->
             try
               Array.iter
                 (fun (self, w) ->
                   if self then cancel i;
                   wait ctx w)
                 plan
             with Fiber.Cancelled -> saw.(i) <- saw.(i) + 1))
  done;
  for i = 0 to 11 do
    let s = List.nth socks (Prng.int g 2) in
    let broadcast = Prng.bool g ~p:0.2 in
    at_grid engine (Prng.int g 24) (timing g) (fun () ->
        match i mod 3 with
        | 0 -> Mailbox.send mb i
        | 1 -> if broadcast then Condition.broadcast c else Condition.signal c
        | _ ->
          Mailbox.send (Net.mailbox s)
            { Net.src = Net.socket_addr s;
              dst = Net.socket_addr s;
              payload = Bytes.empty;
              ctx = 0 })
  done;
  for _ = 1 to 4 do
    let victim = Prng.int g n and twice = Prng.bool g ~p:0.3 in
    let kill () =
      cancel victim;
      if twice then cancel victim
    in
    if Prng.bool g ~p:0.5 then at_grid engine (Prng.int g 16) (timing g) kill
    else ignore (Engine.schedule engine ~delay:(0.005 *. Float.of_int (Prng.int g 40)) kill)
  done;
  Engine.run ~until:8.0 engine;
  (aimed, saw)

let prop_cancel_reaches_target =
  QCheck.Test.make ~name:"a cancel reaches only its target, once" ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let aimed, saw = cancel_reach_program seed in
      Array.iteri
        (fun i s ->
          if s > aimed.(i) then
            QCheck.Test.fail_reportf "thread %d saw Cancelled %d times, aimed at %d times" i s
              aimed.(i))
        saw;
      true)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circus_sim"
    [ ( "event-heap",
        [ Alcotest.test_case "ordering" `Quick test_event_heap_ordering;
          Alcotest.test_case "empty" `Quick test_event_heap_empty ]
        @ qcheck [ prop_event_heap_sorts; prop_event_heap_model ] );
      ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split advances" `Quick test_prng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean ]
        @ qcheck [ prop_prng_float_range; prop_prng_int_range ] );
      ( "engine",
        [ Alcotest.test_case "event order" `Quick test_engine_event_order;
          Alcotest.test_case "nan time rejected" `Quick test_engine_nan_time_rejected;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "ready-queue vs heap ties" `Quick
            test_engine_ready_queue_vs_heap_ties;
          Alcotest.test_case "zero-delay fifo" `Quick test_engine_zero_delay_fifo;
          Alcotest.test_case "cancel ready event" `Quick test_engine_cancel_ready_event;
          Alcotest.test_case "mass cancel compacts" `Quick test_engine_mass_cancel_compacts;
          Alcotest.test_case "late cancel not counted" `Quick
            test_engine_late_cancel_not_counted;
          Alcotest.test_case "until never rewinds" `Quick test_engine_until_never_rewinds;
          Alcotest.test_case "runaway guard" `Quick test_engine_max_events;
          Alcotest.test_case "timer rearm" `Quick test_engine_timer_rearm;
          Alcotest.test_case "cancel releases closure" `Quick
            test_engine_cancel_releases_closure ]
        @ qcheck [ prop_engine_matches_reference_model ] );
      ( "fiber",
        [ Alcotest.test_case "sleep" `Quick test_fiber_sleep;
          Alcotest.test_case "interleave" `Quick test_fiber_interleave;
          Alcotest.test_case "cancel sleeping" `Quick test_fiber_cancel_sleeping;
          Alcotest.test_case "cancel before start" `Quick test_fiber_cancel_before_start;
          Alcotest.test_case "cancel twice" `Quick test_fiber_cancel_twice;
          Alcotest.test_case "cancel at wake" `Quick test_fiber_cancel_at_wake;
          Alcotest.test_case "sleep after cancel" `Quick test_fiber_sleep_after_cancel;
          Alcotest.test_case "self outside a fiber" `Quick test_fiber_self_outside ]
        @ qcheck [ prop_fiber_sleep_monotone ] );
      ( "sync",
        [ Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox timeout" `Quick test_mailbox_timeout;
          Alcotest.test_case "mailbox message after timeout" `Quick
            test_mailbox_timeout_then_message_not_lost;
          Alcotest.test_case "mailbox timeout reclaims waiters" `Quick
            test_mailbox_timeout_reclaims_waiters;
          Alcotest.test_case "mailbox cancelled recv not lost" `Quick
            test_mailbox_cancelled_recv_not_lost;
          Alcotest.test_case "mailbox cancelled before park" `Quick
            test_mailbox_cancelled_before_park;
          Alcotest.test_case "mailbox popped waiters collectable" `Quick
            test_mailbox_popped_waiters_collectable;
          Alcotest.test_case "condition signal+broadcast" `Quick test_condition_signal_broadcast;
          Alcotest.test_case "condition cancelled waiter dropped" `Quick
            test_condition_cancelled_waiter_dropped;
          Alcotest.test_case "condition timeout" `Quick test_condition_timeout;
          Alcotest.test_case "condition waiters leave" `Quick test_condition_waiters_leave ] );
      ( "serve",
        [ Alcotest.test_case "cancel while parked" `Quick test_serve_cancel_parked;
          Alcotest.test_case "cancel between expiry and slot" `Quick
            test_serve_cancel_between_expiry_and_slot;
          Alcotest.test_case "cancel while handling" `Quick test_serve_cancel_handling ]
        @ qcheck [ prop_serve_matches_recv_loop ] );
      (* Keep group names at most ten characters: a longer one widens the
         report's name column and shortens every printed case name. *)
      ( "sleeps",
        [ Alcotest.test_case "seeded programs match goldens" `Quick test_sleep_cancel_goldens;
          Alcotest.test_case "suspending sleep allocation" `Quick test_sleep_words;
          Alcotest.test_case "busy sleep order" `Quick test_busy_sleep_order;
          Alcotest.test_case "nested busy sleep order" `Quick test_nested_sleep_order ] );
      ( "waits",
        [ Alcotest.test_case "seeded programs match goldens" `Quick test_wait_goldens;
          Alcotest.test_case "recv wakes once" `Quick test_recv_wakes_once;
          Alcotest.test_case "condition wakes once" `Quick test_condition_wakes_once;
          Alcotest.test_case "select wakes once" `Quick test_select_wakes_once;
          Alcotest.test_case "gate wakes once" `Quick test_gate_wakes_once;
          Alcotest.test_case "flight wakes once" `Quick test_flight_wakes_once ] );
      ("cancels", qcheck [ prop_cancel_reaches_target ])
    ]
