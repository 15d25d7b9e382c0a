(* Conservative parallel discrete-event simulation across OCaml 5
   domains.

   The world is sharded into K logical processes (Lp.t), each a
   complete sequential engine.  Execution proceeds in windows
   [W, W + L) where L is the *lookahead*: a lower bound on cross-LP
   message latency guaranteed by the caller (for the network layer,
   the minimum propagation delay).  Within a window every LP runs
   independently — any message it sends cannot arrive before the next
   barrier at W + L, so nothing an LP does in the window can affect
   another LP's events inside it.  At the barrier, with every domain
   parked, the coordinator drains each LP's inbound channels (LP
   order, ascending source order, FIFO within a channel) and schedules
   the arrivals into that LP's engine; the next window
   then starts at the minimum next-event time across LPs and channels,
   so idle stretches are skipped in one hop.

   A barrier costs only what crossed it.  Each source LP keeps a
   summary of what it posted since the last barrier — a dirty flag and
   its earliest arrival — so the window start reads K next-times and K
   source minima, not K * K channels, and the drain visits only the
   channels of dirty sources.  An LP with nothing due before the
   window's limit is not run at all: its clock is set to the limit,
   which is all a window without events would do.

   Determinism.  K is a property of the workload, never of the machine:
   [domains d] only chooses how the K LPs are mapped onto d domains
   (LP i runs on domain [i mod d], always the same one).  The window
   schedule, each LP's event order, and the barrier drain order are
   all functions of the LPs' (deterministic) local state — nothing
   observes d.  Equal seeds therefore produce byte-identical traces at
   any domain count, which CI enforces with a cmp.  Cross-LP ordering
   is the pure function described in DESIGN.md: events sort by
   (time, lp-id, per-LP seq), and injected arrivals obtain their
   receiver-side seq at the barrier, before anything at their instant
   runs (Engine.run_window's bound is exclusive for exactly this
   reason).

   Why conservative rather than optimistic (Time Warp-style rollback):
   the engine executes arbitrary OCaml closures with side effects
   (traces, metrics, user state), which cannot be checkpointed or
   rolled back; the paper-model network has a hard propagation floor
   that makes lookahead cheap to derive; and determinism — the repo's
   core testing oracle — is trivial under a fixed barrier schedule but
   subtle under speculative execution.

   K = 1 degrades to a direct Engine.run on the caller's domain: no
   windows, no barriers, no channels — byte-identical to the
   sequential engine. *)

module Trace = Circus_trace.Trace

(* The sim library's own [Condition] is the fiber-level one; the team
   barrier needs the stdlib domain-level primitive. *)
module Cond = Stdlib.Condition
module Event = Circus_trace.Event

type t = {
  lps : Lp.t array;
  lookahead : float;
  (* chans.(dst).(src): SPSC, producer = LP src's domain. *)
  chans : Lp.Channel.t array array;
  (* Per-LP next-event time, published by the owning domain at the end
     of each round it ran; read by the coordinator at barriers, which
     lowers it for the arrivals it injects. *)
  next_times : float array;
  (* Per source LP: whether it posted since the last barrier, and the
     earliest arrival it posted ([infinity] when clean).  During a
     window only the source's own domain writes them ([post]); the
     coordinator reads and resets them at the barrier. *)
  posted : bool array;
  posted_min : float array;
  (* The current window's barrier instant.  A cross-LP message must
     arrive at or after it — violating this would mean the receiver
     already ran past the arrival time.  Written by the coordinator
     before releasing a round, constant during it. *)
  mutable cur_limit : float;
  mutable tracing : bool;
}

let create ?(seed = 42) ~lps ~lookahead () =
  if lps < 1 then invalid_arg "Parallel.create: lps < 1";
  if not (lookahead > 0.0) then invalid_arg "Parallel.create: lookahead must be positive";
  let root = Prng.create seed in
  { lps = Array.init lps (fun i -> Lp.make ~id:i ~prng:(Prng.stream root ~index:i));
    lookahead;
    chans = Array.init lps (fun _ -> Array.init lps (fun _ -> Lp.Channel.create ()));
    next_times = Array.make lps 0.0;
    posted = Array.make lps false;
    posted_min = Array.make lps infinity;
    cur_limit = neg_infinity;
    tracing = false }

let lp t i = t.lps.(i)
let engine t i = t.lps.(i).Lp.engine
let prng t i = t.lps.(i).Lp.prng
let executed t = Array.fold_left (fun acc (l : Lp.t) -> acc + l.executed) 0 t.lps

let now t =
  Array.fold_left (fun acc (l : Lp.t) -> Float.max acc (Engine.now l.engine)) 0.0 t.lps

let enable_tracing ?capacity ?cats ?quiet t =
  t.tracing <- true;
  Array.iter
    (fun (l : Lp.t) ->
      let engine = l.engine in
      l.sink <- Some (Trace.make_sink ?capacity ?cats ?quiet ~clock:(fun () -> Engine.now engine) ()))
    t.lps

let with_lp t i f =
  let saved = Trace.active () in
  Trace.use t.lps.(i).Lp.sink;
  Fun.protect ~finally:(fun () -> Trace.use saved) f

let post t ~src ~dst ~at thunk =
  if src = dst then invalid_arg "Parallel.post: src = dst (schedule locally instead)";
  (* NaN would pass the lookahead check below, and an infinite arrival
     would never be drained: [window_start] stops the run at infinity. *)
  if not (Float.is_finite at) then
    invalid_arg
      (Printf.sprintf "Parallel.post: non-finite arrival time (lp %d -> lp %d arriving at %g)" src
         dst at);
  if at < t.cur_limit then
    invalid_arg
      (Printf.sprintf
         "Parallel.post: lookahead violation (lp %d -> lp %d arriving at %g, barrier at %g)" src
         dst at t.cur_limit);
  Lp.Channel.push t.chans.(dst).(src) ~arrival:at thunk;
  t.posted.(src) <- true;
  if at < t.posted_min.(src) then t.posted_min.(src) <- at

(* ------------------------------------------------------------------ *)
(* Rounds *)

(* Inject everything buffered for every LP, receiver by receiver in LP
   order, ascending source order then FIFO — together with the
   per-engine seq counter this fixes the cross-LP interleaving
   independently of domain count.  Barrier-only: it runs on the
   coordinator while every domain is parked, before the round is
   released.  Draining on the owning domain at the start of its round
   would race with producers already running that round: what a drain
   picks up (and so the seq its arrivals get) would depend on thread
   timing.

   Only the channels of sources that posted since the last barrier can
   hold anything, so only those are visited, in the same order; the
   others are known empty without a look.  An LP that received lowers
   its next-time to its new head, so the round below runs it. *)
let drain_all t =
  let k = Array.length t.lps in
  let dirty = ref false in
  for src = 0 to k - 1 do
    if t.posted.(src) then dirty := true
  done;
  if !dirty then begin
    for dst = 0 to k - 1 do
      let inbound = t.chans.(dst) in
      let engine = t.lps.(dst).Lp.engine in
      let injected = ref false in
      for src = 0 to k - 1 do
        let c = inbound.(src) in
        if t.posted.(src) && not (Lp.Channel.is_empty c) then begin
          Lp.Channel.drain c ~f:(fun ~arrival thunk ->
              ignore (Engine.schedule_abs engine ~at:arrival thunk));
          injected := true
        end
      done;
      if !injected then t.next_times.(dst) <- Engine.next_time engine
    done;
    for src = 0 to k - 1 do
      t.posted.(src) <- false;
      t.posted_min.(src) <- infinity
    done
  end

(* One LP's share of a round, on its owning domain.  [final] is the
   inclusive last pass of a [run ~until]: events at exactly [limit]
   execute (Engine.run's semantics); in a regular window they wait for
   the barrier at [limit], and an LP with nothing due before it only
   has its clock set there, its next-time unchanged.  An untraced run
   installed [None] once, at the start of [run], so only a traced one
   switches sinks per LP. *)
let run_round t ~owned ~limit ~final =
  for j = 0 to Array.length owned - 1 do
    let l : Lp.t = owned.(j) in
    if (not final) && t.next_times.(l.id) >= limit then Engine.skip_window l.engine ~limit
    else begin
      if t.tracing then Trace.use l.sink;
      let n =
        if final then Engine.run_counted ~until:limit l.engine
        else Engine.run_window l.engine ~limit
      in
      l.executed <- l.executed + n;
      t.next_times.(l.id) <- Engine.next_time l.engine
    end
  done

(* The earliest instant anything is due: an LP's next event or an
   arrival still buffered in a channel. *)
let window_start t =
  let start = ref infinity in
  for i = 0 to Array.length t.lps - 1 do
    let nt = t.next_times.(i) and pm = t.posted_min.(i) in
    if nt < !start then start := nt;
    if pm < !start then start := pm
  done;
  !start

(* ------------------------------------------------------------------ *)
(* The domain team.  Workers park on [cv_start] between rounds; the
   coordinator (the calling domain, which owns its own share of LPs)
   bumps [round] to release them and waits on [cv_done] until every
   worker has finished the round.  Blocking waits, never spins: on a
   machine with fewer cores than domains a spin barrier would starve
   the very workers it waits for. *)

type team = {
  m : Mutex.t;
  cv_start : Cond.t;
  cv_done : Cond.t;
  mutable round : int;  (* generation counter; -1 = shutdown *)
  mutable limit : float;
  mutable final : bool;
  mutable done_count : int;
  mutable error : exn option;  (* first failure, re-raised by the coordinator *)
}

let record_error team e =
  Mutex.lock team.m;
  (match team.error with None -> team.error <- Some e | Some _ -> ());
  Mutex.unlock team.m

let worker t team owned () =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock team.m;
    while team.round = !last do
      Cond.wait team.cv_start team.m
    done;
    let r = team.round and limit = team.limit and final = team.final in
    Mutex.unlock team.m;
    if r < 0 then running := false
    else begin
      last := r;
      (try run_round t ~owned ~limit ~final with e -> record_error team e);
      Mutex.lock team.m;
      team.done_count <- team.done_count + 1;
      Cond.signal team.cv_done;
      Mutex.unlock team.m
    end
  done;
  Trace.use None

(* With no workers (one domain, several LPs) the coordinator owns
   every LP and runs the round itself, without the team handshake. *)
let coordinate t team ~own ~workers ~limit ~final =
  t.cur_limit <- limit;
  drain_all t;
  if workers = 0 then (try run_round t ~owned:own ~limit ~final with e -> record_error team e)
  else begin
    Mutex.lock team.m;
    team.round <- team.round + 1;
    team.limit <- limit;
    team.final <- final;
    team.done_count <- 0;
    Cond.broadcast team.cv_start;
    Mutex.unlock team.m;
    (try run_round t ~owned:own ~limit ~final with e -> record_error team e);
    Mutex.lock team.m;
    while team.done_count < workers do
      Cond.wait team.cv_done team.m
    done;
    Mutex.unlock team.m
  end

let shutdown team handles =
  Mutex.lock team.m;
  team.round <- -1;
  Cond.broadcast team.cv_start;
  Mutex.unlock team.m;
  List.iter Domain.join handles

(* ------------------------------------------------------------------ *)

let run ?until ?(max_events = 50_000_000) ?(domains = 1) t =
  let k = Array.length t.lps in
  let saved = Trace.active () in
  Fun.protect ~finally:(fun () -> Trace.use saved) @@ fun () ->
  if k = 1 then begin
    (* Sequential fast path: no windows, no barriers, no channels
       (post rejects src = dst, so none can hold messages) — the exact
       code path of the single-domain engine. *)
    let l = t.lps.(0) in
    if t.tracing then Trace.use l.Lp.sink;
    l.Lp.executed <- l.Lp.executed + Engine.run_counted ?until ~max_events l.Lp.engine
  end
  else begin
    let d = max 1 (min domains k) in
    let base = executed t in
    (* Worker domains start with an empty sink slot; the coordinator's
       is emptied here, so an untraced run records nothing into the
       caller's sink, exactly as when each LP installed its own [None]. *)
    if not t.tracing then Trace.use None;
    (* Initial scan on the calling domain: nothing else is running yet. *)
    for i = 0 to k - 1 do
      t.next_times.(i) <- Engine.next_time t.lps.(i).Lp.engine
    done;
    let owned w =
      Array.of_list (List.filter (fun (l : Lp.t) -> l.id mod d = w) (Array.to_list t.lps))
    in
    let team =
      { m = Mutex.create ();
        cv_start = Cond.create ();
        cv_done = Cond.create ();
        round = 0;
        limit = 0.0;
        final = false;
        done_count = 0;
        error = None }
    in
    let handles = List.init (d - 1) (fun j -> Domain.spawn (worker t team (owned (j + 1)))) in
    let own = owned 0 in
    let workers = d - 1 in
    Fun.protect ~finally:(fun () -> shutdown team handles) @@ fun () ->
    let finished = ref false in
    while not !finished do
      let start = window_start t in
      (* The runaway guard, at the barrier: raise only if an event is
         still due after [max_events] have run. *)
      if
        executed t - base >= max_events
        && match until with None -> start < infinity | Some u -> start <= u
      then invalid_arg "Parallel.run: max_events exceeded (runaway simulation?)";
      (match until with
      | None ->
        if start = infinity then finished := true
        else coordinate t team ~own ~workers ~limit:(start +. t.lookahead) ~final:false
      | Some u ->
        if start = infinity || start +. t.lookahead > u then begin
          (* Close enough to the horizon that nothing sent from here on
             can arrive at or before it (arrivals land >= start + L):
             one inclusive pass finishes the run. *)
          coordinate t team ~own ~workers ~limit:u ~final:true;
          finished := true
        end
        else coordinate t team ~own ~workers ~limit:(start +. t.lookahead) ~final:false);
      match team.error with Some e -> raise e | None -> ()
    done
  end

(* ------------------------------------------------------------------ *)
(* Deterministic trace merge: concatenate per-LP streams in LP order,
   stable-sort by time (so ties resolve by lp-id, then by per-LP seq —
   the (time, seq, lp-id) total order), and renumber seq. *)

let merged_events t =
  let all =
    List.concat_map
      (fun (l : Lp.t) -> match l.sink with Some s -> Trace.sink_events s | None -> [])
      (Array.to_list t.lps)
  in
  let sorted =
    List.stable_sort (fun (a : Event.t) (b : Event.t) -> Float.compare a.time b.time) all
  in
  List.mapi
    (fun i (e : Event.t) ->
      Event.make ~seq:i ~time:e.time ~cat:e.cat ~name:e.name ~phase:e.phase ~host:e.host
        ~fiber:e.fiber ~args:e.args)
    sorted

let merged_dropped t =
  Array.fold_left
    (fun acc (l : Lp.t) -> match l.sink with Some s -> acc + Trace.sink_dropped s | None -> acc)
    0 t.lps
