(* A per-run metrics registry: named monotonic counters and
   log-bucketed histograms.

   Everything here is deterministic: registration order does not matter
   because exports sort by name, and the histogram ladder is a fixed
   HDR-style grid — [sub_per_octave] linear sub-buckets inside each
   power-of-two octave starting at [floor_value] — so two runs that
   observe the same values render the same snapshot and the same
   quantiles.  The bucket index is computed with [Float.frexp] (exact
   integer exponent extraction), not [log], so no libm rounding can
   differ across platforms.

   Small histograms keep every raw sample (up to [exact_cap]) and
   answer quantiles by nearest rank over the sorted samples; past the
   cap the answer comes from the bucket grid with linear interpolation
   inside the straddling bucket, clamped to the observed [min, max]. *)

let sub_per_octave = 16
let octaves = 25

(* Values at or below the floor land in the underflow bucket; the
   ladder spans 1 us .. ~33.5 s, which covers every simulated latency
   the repo produces with < 1/16 relative error per bucket. *)
let floor_value = 1e-6
let ladder_buckets = octaves * sub_per_octave
let total_buckets = ladder_buckets + 2 (* + underflow + overflow *)

(* Raw samples kept per histogram before falling back to buckets. *)
let exact_cap = 512

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  buckets : int array;
  samples : float array; (* first [exact_cap] observations, unsorted *)
  mutable exact : bool; (* [samples] still holds every observation *)
}

(* Ladder bucket i (1-based within [1, ladder_buckets]) covers
   (lo, hi]: octave o spans [floor * 2^o, floor * 2^(o+1)) cut into
   [sub_per_octave] equal linear slices. *)
let bucket_index v =
  if not (v > floor_value) then 0
  else begin
    let m, e = Float.frexp (v /. floor_value) in
    (* v / floor = m * 2^e with m in [0.5, 1), so e >= 1 here. *)
    let octave = e - 1 in
    if octave >= octaves then total_buckets - 1
    else begin
      let s = int_of_float (((m *. 2.0) -. 1.0) *. Float.of_int sub_per_octave) in
      let s = if s >= sub_per_octave then sub_per_octave - 1 else s in
      1 + (octave * sub_per_octave) + s
    end
  end

let bucket_bounds i =
  let o = (i - 1) / sub_per_octave and s = (i - 1) mod sub_per_octave in
  let base = Float.ldexp floor_value o in
  let w = base /. Float.of_int sub_per_octave in
  (base +. (w *. Float.of_int s), base +. (w *. Float.of_int (s + 1)))

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; histograms = Hashtbl.create 16 }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let get_histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h =
      { h_count = 0;
        h_sum = 0.0;
        h_min = infinity;
        h_max = neg_infinity;
        buckets = Array.make total_buckets 0;
        samples = Array.make exact_cap 0.0;
        exact = true }
    in
    Hashtbl.add t.histograms name h;
    h

let observe t name v =
  let h = get_histogram t name in
  if h.h_count < exact_cap then h.samples.(h.h_count) <- v else h.exact <- false;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1

let merge ~into src =
  Hashtbl.iter (fun name r -> incr ~by:!r into name) src.counters;
  Hashtbl.iter
    (fun name sh ->
      if sh.h_count > 0 then begin
        let dh = get_histogram into name in
        if dh.exact && sh.exact && dh.h_count + sh.h_count <= exact_cap then
          Array.blit sh.samples 0 dh.samples dh.h_count sh.h_count
        else dh.exact <- false;
        dh.h_count <- dh.h_count + sh.h_count;
        dh.h_sum <- dh.h_sum +. sh.h_sum;
        if sh.h_min < dh.h_min then dh.h_min <- sh.h_min;
        if sh.h_max > dh.h_max then dh.h_max <- sh.h_max;
        Array.iteri (fun i c -> dh.buckets.(i) <- dh.buckets.(i) + c) sh.buckets
      end)
    src.histograms

type histogram_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
}

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h ->
    Some
      { count = h.h_count;
        sum = h.h_sum;
        min = h.h_min;
        max = h.h_max;
        mean = (if h.h_count = 0 then nan else h.h_sum /. Float.of_int h.h_count) }

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let quantile_of_histogram h q =
  let n = h.h_count in
  (* Nearest rank, 1-based: the smallest value with at least q*n
     observations at or below it. *)
  let rank =
    let r = int_of_float (Float.ceil (q *. Float.of_int n)) in
    if r < 1 then 1 else if r > n then n else r
  in
  if h.exact then begin
    let s = Array.sub h.samples 0 n in
    Array.sort Float.compare s;
    s.(rank - 1)
  end
  else begin
    let rec go i cum =
      let c = h.buckets.(i) in
      if cum + c < rank then go (i + 1) (cum + c)
      else begin
        let lo, hi =
          if i = 0 then (Float.min h.h_min floor_value, floor_value)
          else if i = total_buckets - 1 then
            (fst (bucket_bounds ladder_buckets), Float.max h.h_max (snd (bucket_bounds ladder_buckets)))
          else bucket_bounds i
        in
        let frac = Float.of_int (rank - cum) /. Float.of_int c in
        clamp h.h_min h.h_max (lo +. ((hi -. lo) *. frac))
      end
    in
    go 0 0
  end

let quantile t name q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Metrics.quantile: q outside [0, 1]";
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h when h.h_count = 0 -> None
  | Some h -> Some (quantile_of_histogram h q)

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.counters)

let histograms t =
  List.map
    (fun (k, _) -> (k, Option.get (histogram t k)))
    (sorted_bindings t.histograms)

(* Deterministic JSON snapshot of the whole registry. *)
let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%S:%d" name v))
    (counters t);
  Buffer.add_string b "},\"histograms\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char b ',';
      let qs p = Event.float_repr (Option.get (quantile t name p)) in
      Buffer.add_string b
        (Printf.sprintf
           "%S:{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p99\":%s,\"p999\":%s}"
           name h.count (Event.float_repr h.sum) (Event.float_repr h.min)
           (Event.float_repr h.max) (qs 0.5) (qs 0.99) (qs 0.999)))
    (histograms t);
  Buffer.add_string b "}}";
  Buffer.contents b
