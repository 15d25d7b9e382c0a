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

   A small table with steady churn sweeps at the same capacity again
   and again (the pairmsg [outgoing] and [exchanges] tables every few
   dozen calls).  Such a sweep rebuilds into a spare pair of arrays of
   that capacity, kept cleared with the table, and keeps the old pair
   as the next spare, so it allocates nothing.  Past [spare_limit]
   slots a table sweeps into fresh arrays instead: a spare would
   double its footprint for as long as it lives, and a large table
   sweeps seldom for its size.  Either way the live
   entries are re-inserted in the order of their old slots into
   cleared arrays, so a sweep leaves exactly the layout a rebuild into
   fresh arrays would, and [iter]/[fold] visit in the same order. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable live : int;
  mutable fill : int;  (* live + tombstones *)
  (* Cleared arrays of the current capacity for the next same-capacity
     sweep; [[||]] until the first one, and again after a doubling. *)
  mutable spare_keys : int array;
  mutable spare_vals : 'a array;
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
  { keys = Array.make cap empty_slot;
    vals = [||];
    live = 0;
    fill = 0;
    spare_keys = [||];
    spare_vals = [||] }

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
   the cleared arrays now installed in [t]. *)
let reinsert t old_keys old_vals =
  let live = t.live in
  t.fill <- 0;
  t.live <- 0;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k >= 0 then insert_fresh t k old_vals.(i) (slot_of t k)
  done;
  assert (t.live = live)

let spare_limit = 256

(* Grow only when at least half the occupancy is live; otherwise the
   fill is tombstones and sweeping them at the same capacity is
   enough.  [replace] has made [vals] as long as [keys]. *)
let resize t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = Array.length old_keys in
  if 2 * t.live >= cap || cap > spare_limit then begin
    let cap = if 2 * t.live >= cap then 2 * cap else cap in
    t.keys <- Array.make cap empty_slot;
    t.vals <- Array.make cap filler;
    t.spare_keys <- [||];
    t.spare_vals <- [||];
    reinsert t old_keys old_vals
  end
  else begin
    if Array.length t.spare_keys <> cap then begin
      t.spare_keys <- Array.make cap empty_slot;
      t.spare_vals <- Array.make cap filler
    end;
    t.keys <- t.spare_keys;
    t.vals <- t.spare_vals;
    reinsert t old_keys old_vals;
    (* The old pair becomes the spare, cleared now so that it holds no
       value the table has let go of. *)
    Array.fill old_keys 0 cap empty_slot;
    Array.fill old_vals 0 cap filler;
    t.spare_keys <- old_keys;
    t.spare_vals <- old_vals
  end

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
