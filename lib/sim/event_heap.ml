(* Binary min-heap over simulation events, laid out as a structure of
   arrays.

   The heap proper is three parallel arrays indexed by heap position:
   [times] (a flat [Float.Array.t], so no float is ever boxed), [seqs],
   and [slots], which names the pool cell holding the event itself.
   Sifts compare and move only those immediates: they never load an
   event and never store a pointer, so a push or pop goes through the
   write barrier ([caml_modify]) exactly once — when the event enters
   its pool cell on [push], and when the cell is reset to [sentinel] on
   [pop_exn] — and at most one old slot per event can enter the minor
   GC's remembered set, however far the key travels.

   The pool is an [event array] plus a stack of free cell indices; it
   grows with the heap, so [length pool = length times] always holds
   and a free cell exists whenever there is heap room.

   Ordering: strict (time, seq).  [seq] is unique per engine, so the
   order is total — which also means the pop sequence is independent of
   the heap's internal layout, and [compact] (which drops dead events
   and re-heapifies with Floyd's algorithm) cannot perturb execution
   order. *)

(* Shared cancellation counter: every event holds a pointer to its
   engine's cell so [Engine.cancel], which only sees the event, can
   keep the count of cancelled-but-still-queued events current. *)
type cell = { mutable cancelled_pending : int }

(* [seq] and [run] are mutable for the engine's reusable timers: a
   re-armed timer takes a fresh seq, and a cancel drops its closure. *)
type event = {
  mutable seq : int;
  mutable run : unit -> unit;
  mutable live : bool;
  cell : cell;
}

let sentinel = { seq = max_int; run = ignore; live = false; cell = { cancelled_pending = 0 } }

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pool : event array;
  (* [free.(0 .. n_free-1)] are the unused pool cells. *)
  mutable free : int array;
  mutable n_free : int;
  mutable size : int;
}

let initial_capacity = 16

let create () =
  let cap = initial_capacity in
  { times = Float.Array.make cap infinity;
    seqs = Array.make cap max_int;
    slots = Array.make cap 0;
    pool = Array.make cap sentinel;
    free = Array.init cap (fun i -> cap - 1 - i);
    n_free = cap;
    size = 0 }

let[@inline] length h = h.size
let[@inline] is_empty h = h.size = 0
let[@inline] top_time h = if h.size = 0 then infinity else Float.Array.unsafe_get h.times 0
let[@inline] top_seq h = if h.size = 0 then max_int else Array.unsafe_get h.seqs 0

let top_exn h =
  if h.size = 0 then invalid_arg "Event_heap.top_exn: empty";
  h.pool.(h.slots.(0))

(* Doubling also doubles the pool; the new cells all go on the free
   stack.  Only called when the heap is full, so every old cell is in
   use and the free stack is empty. *)
let grow h =
  let cap = Array.length h.seqs in
  let cap' = 2 * cap in
  let times = Float.Array.make cap' infinity in
  Float.Array.blit h.times 0 times 0 cap;
  let seqs = Array.make cap' max_int in
  Array.blit h.seqs 0 seqs 0 cap;
  let slots = Array.make cap' 0 in
  Array.blit h.slots 0 slots 0 cap;
  let pool = Array.make cap' sentinel in
  Array.blit h.pool 0 pool 0 cap;
  h.times <- times;
  h.seqs <- seqs;
  h.slots <- slots;
  h.pool <- pool;
  h.free <- Array.init cap' (fun i -> cap' - 1 - i);
  h.n_free <- cap

(* Hole-based sift-up of the key already written at position [i]:
   parents move down into the hole, the key is written once at the
   end. *)
let sift_up h i =
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let time = Float.Array.unsafe_get times i in
  let seq = seqs.(i) and slot = slots.(i) in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Float.Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      Float.Array.unsafe_set times !i pt;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set times !i time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Hole-based sift-down over positions [0, n) of the key at [start];
   [compact]'s heapify. *)
let sift_down h n start =
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let time = Float.Array.unsafe_get times start in
  let seq = seqs.(start) and slot = slots.(start) in
  let i = ref start in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let tr = Float.Array.unsafe_get times r and tl = Float.Array.unsafe_get times l in
          if tr < tl || (tr = tl && seqs.(r) < seqs.(l)) then r else l
        end
        else l
      in
      let tc = Float.Array.unsafe_get times c in
      if tc < time || (tc = time && seqs.(c) < seq) then begin
        Float.Array.unsafe_set times !i tc;
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- slots.(c);
        i := c
      end
      else moving := false
    end
  done;
  Float.Array.unsafe_set times !i time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Inlined so the caller's [time] reaches the flat array unboxed. *)
let[@inline] push h ~time ev =
  if h.size = Array.length h.seqs then grow h;
  let n_free = h.n_free - 1 in
  h.n_free <- n_free;
  let slot = h.free.(n_free) in
  h.pool.(slot) <- ev;
  let i = h.size in
  h.size <- i + 1;
  Float.Array.unsafe_set h.times i time;
  h.seqs.(i) <- ev.seq;
  h.slots.(i) <- slot;
  sift_up h i

let release h slot =
  h.pool.(slot) <- sentinel;
  h.free.(h.n_free) <- slot;
  h.n_free <- h.n_free + 1

(* Bottom-up pop: the root's hole walks down to a leaf along the
   smaller child, one compare per level, and the last key fills it from
   below with a sift-up.  The last key of a heap is usually among the
   largest, so it rarely climbs far; a top-down sift would compare it
   against the smaller child at every level as well. *)
let pop_exn h =
  if h.size = 0 then invalid_arg "Event_heap.pop_exn: empty";
  let slot = h.slots.(0) in
  let root = h.pool.(slot) in
  release h slot;
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let times = h.times and seqs = h.seqs and slots = h.slots in
    (* Positions [0, n) form the heap; the key at [n] is the one to
       re-insert, so the hole never descends onto it. *)
    let i = ref 0 in
    let l = ref 1 in
    while !l < n do
      let l' = !l in
      let r = l' + 1 in
      let c =
        if r < n then begin
          let tr = Float.Array.unsafe_get times r and tl = Float.Array.unsafe_get times l' in
          if tr < tl || (tr = tl && seqs.(r) < seqs.(l')) then r else l'
        end
        else l'
      in
      Float.Array.unsafe_set times !i (Float.Array.unsafe_get times c);
      seqs.(!i) <- seqs.(c);
      slots.(!i) <- slots.(c);
      i := c;
      l := (2 * c) + 1
    done;
    Float.Array.unsafe_set times !i (Float.Array.unsafe_get times n);
    seqs.(!i) <- seqs.(n);
    slots.(!i) <- slots.(n);
    sift_up h !i
  end;
  root

(* Remove every dead event (cancelled, or marked fired) and restore the
   heap property with Floyd's bottom-up heapify (O(n)).  Because
   (time, seq) is a total order, the subsequent pop sequence is the same
   as if the dead events had been lazily skipped — only the layout
   changes.  Returns the number of events removed. *)
let compact h =
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    let slot = slots.(i) in
    if h.pool.(slot).live then begin
      Float.Array.unsafe_set times !kept (Float.Array.unsafe_get times i);
      seqs.(!kept) <- seqs.(i);
      slots.(!kept) <- slot;
      incr kept
    end
    else release h slot
  done;
  let removed = h.size - !kept in
  h.size <- !kept;
  for i = (!kept / 2) - 1 downto 0 do
    sift_down h !kept i
  done;
  removed

let clear h =
  for i = 0 to h.size - 1 do
    release h h.slots.(i)
  done;
  h.size <- 0
