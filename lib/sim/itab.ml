(* Flat open-addressing hash table with non-negative int keys.

   The protocol stack keys its per-call state by small composites —
   (peer address, message type, call number) and the like — which pack
   into a single 62-bit integer.  A generic [Hashtbl] over those
   composites allocates a key tuple per lookup and hashes it
   structurally; this table keeps keys in one int array and values in a
   parallel array, so the steady-state find/replace/remove path
   performs no allocation at all.

   Deletions leave tombstones (key [-2]); the table resizes — which
   also sweeps tombstones — when live entries plus tombstones fill half
   the capacity.  A removed slot's value is overwritten with [filler],
   so the table retains exactly its live values: a record removed from
   a table that is rarely written again (a sweep that empties most of
   it, say) is not kept alive until the slot is reused.  Only slots
   whose key is live are ever read, so the filler is never observed.

   A table with steady churn sweeps its tombstones at the same
   capacity again and again (the pairmsg [outgoing] and [exchanges]
   tables every few dozen calls).  Every such sweep, whatever the
   table's size, works in place through a scratch kept per domain: the
   live keys, values and old slots are copied out in slot order,
   [keys] is emptied, the entries are re-inserted, and then only the
   value slots that live entries left behind are cleared (a tombstone's
   value slot already holds the filler, and refilling the whole value
   array would darken every old value it overwrites while the major
   collector is marking).  Once
   the scratch has grown to a table's live count, a sweep allocates
   nothing, and a large table's arrays stay where they are in the
   major heap instead of being rebuilt there.  Only a doubling
   allocates new arrays.  Either way the live entries are re-inserted
   in the order of their old slots into an emptied key array, so a
   sweep leaves exactly the layout a rebuild into fresh arrays would,
   and [iter]/[fold] visit in the same order. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable live : int;
  mutable fill : int;  (* live + tombstones *)
}

let empty_slot = -1
let tombstone = -2

(* What an unused value slot holds.  It is an immediate, so it retains
   nothing, and [vals] is always created from it, never from a caller's
   value: a [float t] therefore never gets a flat float array, which
   could not hold it. *)
let filler : 'a. 'a = Obj.magic 0

let create ?(initial = 16) () =
  let rec pow2 n = if n >= initial then n else pow2 (2 * n) in
  let cap = pow2 8 in
  { keys = Array.make cap empty_slot; vals = [||]; live = 0; fill = 0 }

let length t = t.live

(* Fibonacci hashing: spreads consecutive packed keys across the
   table.  Capacity is a power of two, so masking suffices. *)
let[@inline] slot_of t key =
  let mask = Array.length t.keys - 1 in
  (key * 0x2545F4914F6CDD1D) land mask

let[@inline] next_slot t i = (i + 1) land (Array.length t.keys - 1)

let rec find_slot t key i =
  let k = t.keys.(i) in
  if k = key then i else if k = empty_slot then -1 else find_slot t key (next_slot t i)

let find_opt t key =
  if key < 0 then invalid_arg "Itab.find_opt: negative key";
  if t.live = 0 then None
  else
    let i = find_slot t key (slot_of t key) in
    if i < 0 then None else Some t.vals.(i)

let find_or t key default =
  if key < 0 then invalid_arg "Itab.find_or: negative key";
  if t.live = 0 then default
  else
    let i = find_slot t key (slot_of t key) in
    if i < 0 then default else t.vals.(i)

let mem t key =
  if key < 0 then invalid_arg "Itab.mem: negative key";
  t.live > 0 && find_slot t key (slot_of t key) >= 0

let rec insert_fresh t key v i =
  let k = t.keys.(i) in
  if k = empty_slot || k = tombstone then begin
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    if k = empty_slot then t.fill <- t.fill + 1;
    t.live <- t.live + 1
  end
  else insert_fresh t key v (next_slot t i)

(* Move the live entries of [old_keys]/[old_vals], in slot order, into
   the empty arrays now installed in [t]. *)
let reinsert t old_keys old_vals =
  let live = t.live in
  t.fill <- 0;
  t.live <- 0;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k >= 0 then insert_fresh t k old_vals.(i) (slot_of t k)
  done;
  assert (t.live = live)

(* The per-domain scratch of a same-capacity sweep: the live entries'
   keys, values and old slots, in slot order.  It only grows, to the
   largest live count a sweep on its domain has met, and its value
   slots are cleared after each sweep, so it keeps no value alive.
   Values of every table's type pass through it, hence [Obj.t]. *)
type scratch = {
  mutable s_keys : int array;
  mutable s_vals : Obj.t array;
  mutable s_slots : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { s_keys = [||]; s_vals = [||]; s_slots = [||] })

let sweep t =
  let keys = t.keys and vals = t.vals in
  let live = t.live in
  let s = Domain.DLS.get scratch_key in
  if Array.length s.s_keys < live then begin
    let n = max live (2 * Array.length s.s_keys) in
    s.s_keys <- Array.make n empty_slot;
    s.s_vals <- Array.make n (Obj.repr 0);
    s.s_slots <- Array.make n 0
  end;
  let j = ref 0 in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k >= 0 then begin
      s.s_keys.(!j) <- k;
      s.s_vals.(!j) <- Obj.repr vals.(i);
      s.s_slots.(!j) <- i;
      incr j
    end
  done;
  Array.fill keys 0 (Array.length keys) empty_slot;
  t.fill <- 0;
  t.live <- 0;
  for j = 0 to live - 1 do
    let k = s.s_keys.(j) in
    insert_fresh t k (Obj.obj s.s_vals.(j)) (slot_of t k)
  done;
  for j = 0 to live - 1 do
    let i = s.s_slots.(j) in
    if keys.(i) < 0 then vals.(i) <- filler;
    s.s_vals.(j) <- Obj.repr 0
  done

(* Grow only when at least half the occupancy is live; otherwise the
   fill is tombstones and sweeping them at the same capacity is
   enough.  [replace] has made [vals] as long as [keys]. *)
let resize t =
  let cap = Array.length t.keys in
  if 2 * t.live >= cap then begin
    let old_keys = t.keys and old_vals = t.vals in
    t.keys <- Array.make (2 * cap) empty_slot;
    t.vals <- Array.make (2 * cap) filler;
    reinsert t old_keys old_vals
  end
  else sweep t

let replace t key v =
  if key < 0 then invalid_arg "Itab.replace: negative key";
  if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) filler;
  let i = if t.live = 0 then -1 else find_slot t key (slot_of t key) in
  if i >= 0 then t.vals.(i) <- v
  else begin
    if 2 * (t.fill + 1) > Array.length t.keys then resize t;
    insert_fresh t key v (slot_of t key)
  end

let remove t key =
  if key < 0 then invalid_arg "Itab.remove: negative key";
  if t.live > 0 then begin
    let i = find_slot t key (slot_of t key) in
    if i >= 0 then begin
      t.keys.(i) <- tombstone;
      t.vals.(i) <- filler;
      t.live <- t.live - 1
    end
  end

let slots t = Array.length t.keys
let slot_key t i = t.keys.(i)
let slot_value t i = t.vals.(i)

let iter f t =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k >= 0 then f k t.vals.(i)
  done

let fold f t init =
  let keys = t.keys in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k >= 0 then acc := f k t.vals.(i) !acc
  done;
  !acc
