(* The structured event recorder.

   Design constraints, in order:

   1.  Zero allocation when disabled.  Instrumentation sites throughout
       the simulator guard every emission with [if Trace.on () then
       ...]; the argument lists, strings, and event records are only
       built when a loud sink is installed.  With no loud sink
       installed anywhere in the process the hot path pays one load of
       an atomic counter (see [loud] below).

   2.  Determinism.  Events carry the simulated clock and a global
       emission sequence number.  Because the engine is deterministic,
       two runs with equal seeds emit identical streams, which the test
       suite and CI enforce byte-for-byte on the exported form.

   3.  Bounded memory.  Events land in a fixed-capacity ring
       (overwrite-oldest); the count of overwritten events is kept so a
       truncated trace is detectable.

   4.  Domain safety.  The installed sink is *domain-local* (one slot
       per OCaml domain, via [Domain.DLS]), not process-global: the
       parallel engine runs one logical process per domain, each
       recording into its own sink, and unsynchronized writes to a
       shared ring would be both a data race and a determinism hole.
       [on ()] reads the slot only when some domain has a loud sink
       installed; [with_sink] and [emit] always read it, because a
       quiet sink still records direct emits. *)

type sink = {
  ring : Event.t Ring.t;
  metrics : Metrics.t;
  clock : unit -> float;
  cats : string list option;  (* record only these categories when Some *)
  quiet : bool;
      (* [on ()] reports false: sites that guard with [if Trace.on ()]
         skip entirely (no argument lists built, no filtered emits),
         while direct [emit] calls — the causal instrumentation — still
         record.  This is what makes causal-only attribution cheap:
         the firehose instrumentation never wakes up. *)
  mutable seq : int;
}

let slot : sink option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* The number of installed loud (non-quiet) sinks, across all domains.
   Invariant: it is at least the number of domains whose slot holds a
   loud sink — [use] raises it before installing one and lowers it only
   after removing one.  So a zero count proves this domain's slot holds
   no loud sink, and [on ()] answers without the DLS lookup; a positive
   count falls through to the exact per-domain check. *)
let loud = Atomic.make 0

let[@inline] is_loud = function Some s -> not s.quiet | None -> false
let[@inline] on () = Atomic.get loud > 0 && is_loud !(Domain.DLS.get slot)

let default_capacity = 65_536

let make_sink ?(capacity = default_capacity) ?cats ?(quiet = false) ~clock () =
  { ring = Ring.create ~capacity; metrics = Metrics.create (); clock; cats; quiet; seq = 0 }

let use s =
  let r = Domain.DLS.get slot in
  let was_loud = is_loud !r in
  if is_loud s then Atomic.incr loud;
  r := s;
  if was_loud then Atomic.decr loud

let install sink =
  use (Some sink);
  sink

let start ?capacity ?cats ?quiet ~clock () = install (make_sink ?capacity ?cats ?quiet ~clock ())
let stop () = use None
let active () = !(Domain.DLS.get slot)
let with_sink f = match !(Domain.DLS.get slot) with Some s -> f s | None -> ()

(* ------------------------------------------------------------------ *)
(* Emission *)

let emit ?(phase = Event.Instant) ?(host = -1) ?(fiber = -1) ?(args = []) ~cat name =
  with_sink (fun s ->
      let keep =
        match s.cats with None -> true | Some cs -> List.exists (String.equal cat) cs
      in
      if keep then begin
        let seq = s.seq in
        s.seq <- seq + 1;
        Ring.push s.ring
          (Event.make ~seq ~time:(s.clock ()) ~cat ~name ~phase ~host ~fiber ~args)
      end)

let span_begin ?host ?fiber ?args ~cat name = emit ~phase:Event.Begin ?host ?fiber ?args ~cat name
let span_end ?host ?fiber ?args ~cat name = emit ~phase:Event.End ?host ?fiber ?args ~cat name

let span ?host ?fiber ?args ~cat name f =
  if not (on ()) then f ()
  else begin
    span_begin ?host ?fiber ?args ~cat name;
    match f () with
    | v ->
      span_end ?host ?fiber ~cat name;
      v
    | exception e ->
      span_end ?host ?fiber ~args:[ ("raised", Event.Bool true) ] ~cat name;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Metrics *)

let incr ?by name = with_sink (fun s -> Metrics.incr ?by s.metrics name)
let observe name v = with_sink (fun s -> Metrics.observe s.metrics name v)

(* ------------------------------------------------------------------ *)
(* Inspection *)

let sink_events s = Ring.to_list s.ring
let sink_dropped s = Ring.dropped s.ring

let events () = match active () with Some s -> sink_events s | None -> []
let dropped () = match active () with Some s -> sink_dropped s | None -> 0

(* ------------------------------------------------------------------ *)
(* Trace-based assertions: protocol-level properties over the recorded
   stream, so tests can check what the protocols *did*, not just the
   end state. *)

module Expect = struct
  exception Failed of string

  let fail fmt = Printf.ksprintf (fun msg -> raise (Failed msg)) fmt

  let matches ?cat ?name ?where e =
    (match cat with Some c -> String.equal e.Event.cat c | None -> true)
    && (match name with Some n -> String.equal e.Event.name n | None -> true)
    && match where with Some p -> p e | None -> true

  let selection ?cat ?name ?where () =
    List.filter (fun e -> matches ?cat ?name ?where e) (events ())

  let describe ?cat ?name () =
    Printf.sprintf "%s/%s"
      (Option.value cat ~default:"*")
      (Option.value name ~default:"*")

  let count ?cat ?name ?where expected =
    let n = List.length (selection ?cat ?name ?where ()) in
    if n <> expected then
      fail "expected exactly %d %s events, saw %d" expected (describe ?cat ?name ()) n

  let at_least ?cat ?name ?where expected =
    let n = List.length (selection ?cat ?name ?where ()) in
    if n < expected then
      fail "expected at least %d %s events, saw %d" expected (describe ?cat ?name ()) n

  let none ?cat ?name ?where () =
    match selection ?cat ?name ?where () with
    | [] -> ()
    | e :: _ ->
      fail "expected no %s events, saw %s" (describe ?cat ?name ())
        (Format.asprintf "%a" Event.pp e)

  (* Every event matching [after] must be preceded (in emission order)
     by at least one event matching [before]. *)
  let ordered ~before ~after () =
    let seen_before = ref false in
    List.iter
      (fun e ->
        if before e then seen_before := true;
        if after e && not !seen_before then
          fail "event %s occurred before any enabling event"
            (Format.asprintf "%a" Event.pp e))
      (events ())

  (* Every event matching [after] must be preceded by an event
     matching [before] *on the same request* — both must carry a
     "req" int arg (as causal events do).  An event matching both
     predicates does not enable itself. *)
  let follows ~before ~after () =
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun e ->
        (if after e then
           match Event.int_arg e "req" with
           | None ->
             fail "follows: event %s carries no req arg" (Format.asprintf "%a" Event.pp e)
           | Some r ->
             if not (Hashtbl.mem seen r) then
               fail "event %s has no causal predecessor on req %d"
                 (Format.asprintf "%a" Event.pp e)
                 r);
        if before e then
          match Event.int_arg e "req" with
          | Some r -> Hashtbl.replace seen r ()
          | None -> ())
      (events ())

  (* Begin/End events must balance per (host, fiber) scope and match by
     name in LIFO order — the invariant the Chrome exporter relies on. *)
  let well_nested () =
    let stacks : (int * int, (string * string) list ref) Hashtbl.t = Hashtbl.create 16 in
    let stack key =
      match Hashtbl.find_opt stacks key with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.add stacks key s;
        s
    in
    List.iter
      (fun e ->
        let key = (e.Event.host, e.Event.fiber) in
        match e.Event.phase with
        | Event.Begin -> (stack key) := (e.Event.cat, e.Event.name) :: !(stack key)
        | Event.End -> (
          let s = stack key in
          match !s with
          | (cat, name) :: rest when String.equal cat e.Event.cat && String.equal name e.Event.name
            ->
            s := rest
          | (cat, name) :: _ ->
            fail "span end %s/%s closes open span %s/%s (scope h%d f%d)" e.Event.cat e.Event.name
              cat name e.Event.host e.Event.fiber
          | [] ->
            fail "span end %s/%s with no open span (scope h%d f%d)" e.Event.cat e.Event.name
              e.Event.host e.Event.fiber)
        | Event.Instant | Event.Complete _ -> ())
      (events ());
    Hashtbl.iter
      (fun (host, fiber) s ->
        match !s with
        | [] -> ()
        | (cat, name) :: _ -> fail "span %s/%s never closed (scope h%d f%d)" cat name host fiber)
      stacks
end
