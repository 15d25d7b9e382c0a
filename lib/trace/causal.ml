(* Per-request causal tracing.

   A *context* names one request and the last causal event on its
   path: [(request id, parent span id)] packed into a single
   immutable int (0 = no context).  Contexts are minted at the call
   origin and propagated out-of-band — the simulated network carries
   them on a metadata field of the in-flight datagram, never in
   [payload], so the wire byte count (and with it every byte-pinned
   golden: segmentation, charges, timing) is unchanged.  With the
   flag off ([on () = false]) the instrumented sites pay one atomic
   load and emit nothing, so plain traces are byte-identical to a
   build without causal tracing at all.

   Determinism.  Request and span ids are minted from per-host
   counters kept in domain-local storage.  Every event of host [h]
   executes on the one logical process that owns [h], and one LP
   always runs on one domain at a time, so the counter stream of a
   host is a pure function of that host's (deterministic) event
   order — the domain *count* never reaches the ids.  Equal seeds
   therefore give byte-identical causal streams at any [--domains],
   which CI enforces with d1-vs-d4 [cmp]s of attribution reports.

   Layering.  This module lives in [circus_trace] and cannot see the
   simulator, but the natural home of the ambient context is the
   running fiber (it must survive parks and resumes).  [Fiber]
   registers get/set hooks over its own per-fiber slot via
   {!register_ambient}.  Outside a fiber, and before a registration,
   there is no ambient context: [current] is [none] and [set_current]
   stores nothing.  Counted over tier-1, the quickstart, the CI chaos
   and scale worlds and perfbench, only [reset] ever set the context
   outside a fiber, and nothing read it there. *)

type ctx = int

let none : ctx = 0

(* [ctx] packs (req << 32) | span.  Span ids are (host+1) << 20 | a
   20-bit per-host counter (so a span is never 0); request ids are
   (origin+1) << 18 | an 18-bit per-origin counter.  Hosts are < 2048
   throughout the tree (the pairmsg key packing has the same bound),
   so both halves fit and the packed word stays under 62 bits. *)
let span_bits = 32
let req_of c = c lsr span_bits
let span_of c = c land 0xFFFF_FFFF
let pack ~req ~span = (req lsl span_bits) lor span

(* ------------------------------------------------------------------ *)
(* Enable flag: separate from [Trace.on] so plain tracing (the
   quickstart/chaos goldens) sees zero new events and unchanged
   sequence numbers. *)

let enabled = Atomic.make false
let on () = Atomic.get enabled
let set_enabled v = Atomic.set enabled v

(* ------------------------------------------------------------------ *)
(* Deterministic id minting: per-host counters in domain-local
   growable arrays. *)

type counters = { mutable req_c : int array; mutable span_c : int array }

let counters_key : counters Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { req_c = Array.make 64 0; span_c = Array.make 64 0 })

let grow a n =
  let g = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 g 0 (Array.length a);
  g

let mint_req host =
  let h = if host >= 0 then host else 0 in
  let c = Domain.DLS.get counters_key in
  if h >= Array.length c.req_c then c.req_c <- grow c.req_c (h + 1);
  let v = c.req_c.(h) + 1 in
  c.req_c.(h) <- v;
  ((h + 1) lsl 18) lor (v land 0x3FFFF)

let mint_span host =
  let h = if host >= 0 then host else 0 in
  let c = Domain.DLS.get counters_key in
  if h >= Array.length c.span_c then c.span_c <- grow c.span_c (h + 1);
  let v = c.span_c.(h) + 1 in
  c.span_c.(h) <- v;
  ((h + 1) lsl 20) lor (v land 0xFFFFF)

(* ------------------------------------------------------------------ *)
(* Ambient context *)

let ambient_get = ref (fun () -> none)
let ambient_set = ref (fun (_ : ctx) -> ())

let register_ambient ~get ~set =
  ambient_get := get;
  ambient_set := set

let current () = !ambient_get ()
let set_current c = !ambient_set c

let reset () =
  let c = Domain.DLS.get counters_key in
  Array.fill c.req_c 0 (Array.length c.req_c) 0;
  Array.fill c.span_c 0 (Array.length c.span_c) 0;
  set_current none

(* ------------------------------------------------------------------ *)
(* Emission *)

let cat = "causal"

let emit_ev ~host ~fiber ~req ~span ~parent ~args name =
  Trace.emit ~cat ~host ~fiber
    ~args:
      (("req", Event.Int req) :: ("span", Event.Int span) :: ("parent", Event.Int parent) :: args)
    name

let root ?(fiber = -1) ?(args = []) ~host name =
  let req = mint_req host in
  let span = mint_span host in
  emit_ev ~host ~fiber ~req ~span ~parent:0 ~args name;
  pack ~req ~span

let step ?parent ?(set_ambient = true) ?(fiber = -1) ?(args = []) ~host name =
  let base = match parent with Some p when p <> none -> p | _ -> current () in
  if base = none then none
  else begin
    let req = req_of base in
    let span = mint_span host in
    emit_ev ~host ~fiber ~req ~span ~parent:(span_of base) ~args name;
    let c = pack ~req ~span in
    if set_ambient then set_current c;
    c
  end

(* ------------------------------------------------------------------ *)
(* Critical-path extraction and latency attribution.

   Each causal event carries its own fresh span id and the span id of
   the event that *triggered* it — for a collated reply that is the
   quorum-completing vote, for a reassembled message the last-arrived
   segment, for an M2O execution the readiness-completing member call.
   Walking parents from a terminal event therefore follows the
   slowest-predecessor chain: the unique path whose stage times
   telescope to the measured end-to-end latency. *)

let stage_names =
  [| "queue"; "lookup"; "segmentation"; "network"; "exec"; "collate_wait"; "rexmit_stall"; "other" |]

(* An interval is attributed by the event that *ends* it: the time
   leading up to [pickup] was spent queued, up to [recv] on the wire,
   up to [exec_done] executing, up to a [vote]/[collate] waiting for
   the slowest needed replica, and so on. *)
let stage_index = function
  | "pickup" -> 0
  | "lookup_done" -> 1
  | "xmit" -> 2
  | "recv" -> 3
  | "exec" | "exec_done" -> 4
  | "vote" | "collate" -> 5
  | "rexmit" -> 6
  | _ -> 7

type path = {
  preq : int;
  start_t : float;
  finish_t : float;
  total : float;
  stages : float array;
  chain : Event.t list;
}

type analysis = { paths : path list; incomplete : int }

let analyze ?(terminal = "done") events =
  let causal = List.filter (fun e -> String.equal e.Event.cat cat) events in
  let by_span : (int, Event.t) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      match Event.int_arg e "span" with
      | Some s -> Hashtbl.replace by_span s e
      | None -> ())
    causal;
  let incomplete = ref 0 in
  let paths =
    List.filter_map
      (fun d ->
        if not (String.equal d.Event.name terminal) then None
        else begin
          let rec walk acc e =
            match Event.int_arg e "parent" with
            | Some 0 | None -> Some (e :: acc)
            | Some p -> (
              match Hashtbl.find_opt by_span p with
              | Some pe -> walk (e :: acc) pe
              | None -> None (* chain truncated by ring overflow *))
          in
          match walk [] d with
          | None ->
            incr incomplete;
            None
          | Some chain ->
            let stages = Array.make (Array.length stage_names) 0.0 in
            let rec fill prev = function
              | [] -> ()
              | (e : Event.t) :: rest ->
                let i = stage_index e.Event.name in
                stages.(i) <- stages.(i) +. (e.Event.time -. prev.Event.time);
                fill e rest
            in
            (match chain with [] -> () | r :: rest -> fill r rest);
            let root_ev = List.hd chain in
            Some
              {
                preq = Option.value (Event.int_arg d "req") ~default:0;
                start_t = root_ev.Event.time;
                finish_t = d.Event.time;
                total = d.Event.time -. root_ev.Event.time;
                stages;
                chain;
              }
        end)
      causal
  in
  { paths; incomplete = !incomplete }

let stage_metrics a =
  let m = Metrics.create () in
  List.iter
    (fun p ->
      Metrics.observe m "attr.total" p.total;
      Array.iteri (fun i v -> Metrics.observe m ("attr." ^ stage_names.(i)) v) p.stages)
    a.paths;
  m

(* Exact nearest-rank quantiles over the analyzed paths.  The analysis
   holds every path in memory anyway, so attribution reports need not
   pay the log-bucket interpolation error a [Metrics] histogram incurs
   past its exact-sample cap — at fleet request counts that error
   alone can push the stage-sum cross-check outside its tolerance. *)
let exact_quantile values q =
  match values with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list values in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. Float.of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let total_quantile a q = exact_quantile (List.map (fun p -> p.total) a.paths) q

let stage_quantile a ~stage q =
  exact_quantile (List.map (fun p -> p.stages.(stage)) a.paths) q

let mean_of values =
  match values with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 values /. Float.of_int (List.length values)

(* Percentile-banded attribution: each stage's mean over the requests
   whose total sits within [q - band, q + band] of the total
   distribution.  Marginal stage medians do not sum to the median
   total (sum-of-medians < median-of-sums under skew); banded
   components telescope to the band's mean total by construction, so
   "where did the median request's milliseconds go" has an answer that
   adds up. *)
let stage_components ?(band = 0.05) a q =
  let comps = Array.make (Array.length stage_names) 0.0 in
  (match a.paths with
  | [] -> ()
  | _ ->
    let lo = total_quantile a (Float.max 0.0 (q -. band))
    and hi = total_quantile a (Float.min 1.0 (q +. band)) in
    let n = ref 0 in
    List.iter
      (fun p ->
        if p.total >= lo && p.total <= hi then begin
          incr n;
          Array.iteri (fun i v -> comps.(i) <- comps.(i) +. v) p.stages
        end)
      a.paths;
    if !n > 0 then Array.iteri (fun i v -> comps.(i) <- v /. Float.of_int !n) comps);
  comps

(* One-line deterministic JSON: seconds, [Event.float_repr] floats,
   fixed field order.  Byte-compared across domain counts by CI. *)
let attribution_json a =
  let fr = Event.float_repr in
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"requests\":%d,\"incomplete\":%d" (List.length a.paths) a.incomplete;
  Printf.bprintf b ",\"end_to_end\":{\"p50\":%s,\"p99\":%s,\"mean\":%s}"
    (fr (total_quantile a 0.5))
    (fr (total_quantile a 0.99))
    (fr (mean_of (List.map (fun p -> p.total) a.paths)));
  let comps = stage_components a 0.5 in
  Buffer.add_string b ",\"stages\":{";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":{\"p50_component\":%s,\"p50\":%s,\"p99\":%s,\"mean\":%s}" s
        (fr comps.(i))
        (fr (stage_quantile a ~stage:i 0.5))
        (fr (stage_quantile a ~stage:i 0.99))
        (fr (mean_of (List.map (fun p -> p.stages.(i)) a.paths))))
    stage_names;
  Printf.bprintf b "},\"p50_component_sum\":%s}" (fr (Array.fold_left ( +. ) 0.0 comps));
  Buffer.contents b

let waterfall ?(top = 5) a =
  let b = Buffer.create 1024 in
  let sorted = List.stable_sort (fun p q -> compare q.total p.total) a.paths in
  let rec take n = function
    | [] -> ()
    | _ when n = 0 -> ()
    | p :: rest ->
      Printf.bprintf b "req %d  total %.3f ms  (t=%ss..%ss)\n" p.preq (1e3 *. p.total)
        (Event.float_repr p.start_t) (Event.float_repr p.finish_t);
      Array.iteri
        (fun i v ->
          if v > 0.0 then begin
            let frac = if p.total > 0.0 then v /. p.total else 0.0 in
            let width = int_of_float (frac *. 40.0 +. 0.5) in
            Printf.bprintf b "  %-12s %9.3f ms %5.1f%%  |%s%s|\n" stage_names.(i) (1e3 *. v)
              (100.0 *. frac) (String.make width '#')
              (String.make (40 - width) ' ')
          end)
        p.stages;
      take (n - 1) rest
  in
  take top sorted;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Runtime invariants over causal traces (groundwork for protocol
   checking, ROADMAP item 3). *)

module Invariant = struct
  (* Every collated reply must causally depend on at least [quorum]
     distinct replica executions of the same request. *)
  let quorum_execution ~quorum events =
    let execs : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let bad = ref None in
    List.iter
      (fun (e : Event.t) ->
        if !bad = None && String.equal e.Event.cat cat then
          match (e.Event.name, Event.int_arg e "req") with
          | "exec_done", Some r -> (
            match Hashtbl.find_opt execs r with
            | Some hosts -> if not (List.mem e.Event.host !hosts) then hosts := e.Event.host :: !hosts
            | None -> Hashtbl.add execs r (ref [ e.Event.host ]))
          | "collate", Some r ->
            let n = match Hashtbl.find_opt execs r with Some hs -> List.length !hs | None -> 0 in
            if n < quorum then
              bad :=
                Some
                  (Printf.sprintf
                     "collate for req %d at seq %d has %d replica execution(s), quorum is %d" r
                     e.Event.seq n quorum)
          | _ -> ())
      events;
    match !bad with Some msg -> Error msg | None -> Ok ()
end
