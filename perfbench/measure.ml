(* Wall-clock measurement helpers shared by every workload: a monotonic
   nanosecond clock, order statistics, heap figures, the in-memory span
   recorder of the traced run, and the metric list the run prints. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = Float.of_int (t1 - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_between t0 (now_ns ()))

(* Nearest-rank quantile of an unsorted sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. Float.of_int n)) - 1)))

let median xs = quantile 0.5 xs
let mean xs = List.fold_left ( +. ) 0.0 xs /. Float.of_int (List.length xs)

(* The mean of the middle half of a sample: a centre that ignores
   outliers like the median but uses more of the sample. *)
let interquartile_mean xs =
  let n = List.length xs in
  mean (List.filteri (fun i _ -> i >= n / 4 && i < n - (n / 4)) (List.sort Float.compare xs))

(* The highest percentile with at least ten samples beyond it, falling
   back to the maximum on samples too small to have one. *)
let tail_quantile n = if n >= 1000 then 0.99 else if n >= 100 then 0.9 else 1.0

(* [f ()] and the peak major heap, in MB, of that unit of work alone:
   the largest heap seen at the end of a major cycle while it ran,
   after a compaction.  ([Gc.quick_stat]'s [top_heap_words] never goes
   down, so it cannot tell one unit from the ones before it.) *)
let heap_words_seen = ref 0

let heap_alarm =
  lazy
    (ignore
       (Gc.create_alarm (fun () ->
            heap_words_seen := max !heap_words_seen (Gc.quick_stat ()).Gc.heap_words)))

let with_heap_peak f =
  Lazy.force heap_alarm;
  Gc.compact ();
  heap_words_seen := (Gc.quick_stat ()).Gc.heap_words;
  let v = f () in
  Gc.full_major ();
  (v, Float.of_int (!heap_words_seen * (Sys.word_size / 8)) /. 1e6)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* ------------------------------------------------------------------ *)
(* Calibration.  The machines this runs on change speed by up to 1.7x
   from one second to the next (shared cores), far more than the
   changes the benchmark must detect.  So every timed unit of work is
   preceded by a fixed calibration kernel and its wall time is reported
   scaled by [reference_kernel_s / kernel time]: in seconds of a machine
   on which the kernel takes [reference_kernel_s] (the fast state of the
   2-vCPU Xeon it was tuned on).  The kernel is a small discrete-event
   loop — a binary heap of closures, a hash table and short-lived byte
   strings, like the simulator's inner loops — whose slowdown tracks
   the simulator's.  It uses no code of this repository, so no change
   to the repository can move the scale.

   The slowest calls of the calls workload are pairmsg's prune folds
   over a table of tens of thousands of entries.  A scan waits on
   memory, which a neighbour's load slows by a different factor than
   the event loop, so the calls tail is scaled by a second kernel that
   folds over a 40k-entry table ([calibrate_scan]). *)

let reference_kernel_s = 0.055
let reference_scan_s = 0.028

type ev = { at : int; seq : int; fire : unit -> unit }

let kernel () =
  let heap = ref (Array.make 1024 { at = 0; seq = 0; fire = ignore }) and size = ref 0 in
  let before x y = x.at < y.at || (x.at = y.at && x.seq < y.seq) in
  let push e =
    if !size = Array.length !heap then begin
      let bigger = Array.make (2 * !size) e in
      Array.blit !heap 0 bigger 0 !size;
      heap := bigger
    end;
    let h = !heap in
    let i = ref !size in
    incr size;
    while !i > 0 && before e h.((!i - 1) / 2) do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- e
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr size;
    let last = h.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && before h.(l + 1) h.(l) then l + 1 else l in
      if l < !size && before h.(c) last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else sifting := false
    done;
    h.(!i) <- last;
    top
  in
  let table = Hashtbl.create 65536 and buf = Bytes.create 64 in
  let seq = ref 0 and clock = ref 0 and rng = ref 12345 in
  let rec fire k () =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace table (!rng land 65535) (Bytes.sub buf 0 (8 + (k land 31)));
    if k > 0 then begin
      incr seq;
      push { at = !clock + (!rng land 1023); seq = !seq; fire = fire (k - 1) }
    end
  in
  for i = 1 to 256 do
    incr seq;
    push { at = i; seq = !seq; fire = fire 800 }
  done;
  while !size > 0 do
    let e = pop () in
    clock := e.at;
    e.fire ()
  done

let scan_table =
  lazy
    (let t = Hashtbl.create 65536 in
     for i = 1 to 40_000 do
       Hashtbl.replace t (i * 7919) (Bytes.create 16)
     done;
     t)

let scan () =
  let t = Lazy.force scan_table in
  for _ = 1 to 40 do
    ignore (Sys.opaque_identity (Hashtbl.fold (fun k _ acc -> acc + k) t 0))
  done

let kernel_runs = ref 0
let kernel_total_s = ref 0.0

(* Run the kernel; the factor that turns wall seconds measured right
   after it into reference seconds.  A full major collection first, so
   that the kernel never pays for the garbage of the work it brackets. *)
let calibrate () =
  Gc.full_major ();
  let (), k = time kernel in
  incr kernel_runs;
  kernel_total_s := !kernel_total_s +. k;
  reference_kernel_s /. k

(* The same for the table-scan kernel; run it right after [calibrate].
   (Its first run builds the table: make that one untimed.) *)
let calibrate_scan () =
  let (), k = time scan in
  reference_scan_s /. k

(* [f ()] and its wall time in reference seconds, scaled by kernel runs
   on both sides of it: the machine can change state while [f] runs. *)
let timed f =
  let before = calibrate () in
  let v, s = time f in
  (v, s *. (before +. calibrate ()) /. 2.0)

(* ------------------------------------------------------------------ *)
(* Spans: recorded around the benchmark's own calls into each layer,
   only in the traced run, kept in memory and written out at the end. *)

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start_ns : int;
  mutable end_ns : int;
  mutable child_ns : int;
}

let recording = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 0

let span ?(req = 0) name f =
  if not !recording then f ()
  else begin
    incr next_span;
    let parent = match !open_spans with p :: _ -> p.id | [] -> 0 in
    let s =
      { id = !next_span; name; parent; req; start_ns = now_ns (); end_ns = 0; child_ns = 0 }
    in
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.end_ns <- now_ns ();
        open_spans := List.tl !open_spans;
        (match !open_spans with
        | p :: _ -> p.child_ns <- p.child_ns + (s.end_ns - s.start_ns)
        | [] -> ());
        spans := s :: !spans)
  end

(* One JSON object per line; [self_ns] is the span's duration minus the
   part its (sequential) children cover. *)
let write_spans path =
  let rec mkdir_p d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d,\
         \"self_ns\":%d}\n"
        s.id s.name s.parent s.req s.start_ns s.end_ns
        (s.end_ns - s.start_ns - s.child_ns))
    (List.sort (fun a b -> Int.compare a.id b.id) !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Metrics as printed: a human table on the way, one JSON line last. *)

type metric = { name : string; value : float; unit : string; samples : int; note : string }

let metric ?(samples = 1) ?(note = "") name unit value = { name; value; unit; samples; note }

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted metrics =
  List.iter
    (fun m ->
      Printf.printf "%-34s %16.6g %-6s n=%-7d %s\n" m.name m.value m.unit m.samples m.note)
    metrics;
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        raise (Check_failed (Printf.sprintf "metric %s is not finite" m.name)))
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit)
      metrics
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n%!"
    attempted (String.concat ", " fields)
