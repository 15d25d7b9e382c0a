open Circus_sim

(* The encoded returns of executed many-to-one calls, kept for the
   retention period so a slow client member is answered without a
   second execution (§4.3.4).

   Nothing here holds a pointer to a young block.  An entry's bytes are
   copied into one ring-shaped [Bytes] arena; the index maps a call's
   key to the entry's arena offset, an immediate; the expiry queue is
   three flat arrays of ints and unboxed floats.  A minor collection
   therefore finds no retained entry to promote and no remembered-set
   entry to scan, however many calls the store keeps.

   Arena offsets are logical: they only grow, and offset [o] lives at
   byte [o land (capacity - 1)], so an entry may wrap round the end of
   the buffer.  Each entry is a 4-byte little-endian length followed by
   the bytes.  Entries expire in the order they were added, so the live
   bytes are always the one run from the oldest entry's offset ([head])
   to [tail]. *)

type t = {
  mutable index : int Itab.t;  (* key -> arena offset of the entry *)
  mutable arena : Bytes.t;  (* capacity 0 or a power of two *)
  mutable head : int;
  mutable tail : int;
  (* Expiry queue, a ring of [count] entries from slot [first]; slot
     [i] holds an entry's key, expiry and arena offset. *)
  mutable keys : int array;
  mutable expiries : Float.Array.t;
  mutable offsets : int array;
  mutable first : int;
  mutable count : int;
}

let header = 4
let initial_arena = 1024
let initial_queue = 16

(* The buffers of an empty store: nothing to keep, so an idle runtime
   holds no buffer sized by its busiest retention period. *)
let create () =
  { index = Itab.create ~initial:8 ();
    arena = Bytes.empty;
    head = 0;
    tail = 0;
    keys = [||];
    expiries = Float.Array.create 0;
    offsets = [||];
    first = 0;
    count = 0 }

let length t = t.count
let arena_capacity t = Bytes.length t.arena

(* Copy [len] bytes of [src] from [off] into the ring [buf] at logical
   offset [pos], and back out. *)
let blit_in buf pos src off len =
  let p = pos land (Bytes.length buf - 1) in
  let n = min len (Bytes.length buf - p) in
  Bytes.blit src off buf p n;
  if n < len then Bytes.blit src (off + n) buf 0 (len - n)

let blit_out buf pos dst off len =
  let p = pos land (Bytes.length buf - 1) in
  let n = min len (Bytes.length buf - p) in
  Bytes.blit buf p dst off n;
  if n < len then Bytes.blit buf 0 dst (off + n) (len - n)

let[@inline] byte_at t pos = Char.code (Bytes.get t.arena (pos land (Bytes.length t.arena - 1)))

let[@inline] set_byte t pos v =
  Bytes.set t.arena (pos land (Bytes.length t.arena - 1)) (Char.unsafe_chr (v land 0xff))

(* Make room for [need] more bytes: a larger power of two, with the
   live run copied to where its logical offsets fall under the new
   mask. *)
let grow_arena t need =
  let live = t.tail - t.head in
  let old = t.arena in
  let rec size c = if c >= live + need then c else size (2 * c) in
  let cap = size (max initial_arena (2 * Bytes.length old)) in
  let arena = Bytes.create cap in
  if live > 0 then begin
    let p = t.head land (Bytes.length old - 1) in
    let n = min live (Bytes.length old - p) in
    blit_in arena t.head old p n;
    blit_in arena (t.head + n) old 0 (live - n)
  end;
  t.arena <- arena

let grow_queue t =
  let cap = max initial_queue (2 * Array.length t.keys) in
  let keys = Array.make cap 0 and offsets = Array.make cap 0 in
  let expiries = Float.Array.make cap 0.0 in
  for i = 0 to t.count - 1 do
    let j = (t.first + i) land (Array.length t.keys - 1) in
    keys.(i) <- t.keys.(j);
    offsets.(i) <- t.offsets.(j);
    Float.Array.set expiries i (Float.Array.get t.expiries j)
  done;
  t.keys <- keys;
  t.offsets <- offsets;
  t.expiries <- expiries;
  t.first <- 0

let add t ~key ~expiry b =
  let len = Bytes.length b in
  if t.tail - t.head + header + len > Bytes.length t.arena then grow_arena t (header + len);
  if t.count = Array.length t.keys then grow_queue t;
  let off = t.tail in
  for i = 0 to header - 1 do
    set_byte t (off + i) (len lsr (8 * i))
  done;
  blit_in t.arena (off + header) b 0 len;
  t.tail <- off + header + len;
  let slot = (t.first + t.count) land (Array.length t.keys - 1) in
  t.keys.(slot) <- key;
  t.offsets.(slot) <- off;
  Float.Array.set t.expiries slot expiry;
  t.count <- t.count + 1;
  Itab.replace t.index key off

let find t key =
  match Itab.find_opt t.index key with
  | None -> None
  | Some off ->
    let len = ref 0 in
    for i = header - 1 downto 0 do
      len := (!len lsl 8) lor byte_at t (off + i)
    done;
    let b = Bytes.create !len in
    blit_out t.arena (off + header) b 0 !len;
    Some b

let expire t ~now =
  while t.count > 0 && Float.Array.get t.expiries t.first <= now do
    Itab.remove t.index t.keys.(t.first);
    t.first <- (t.first + 1) land (Array.length t.keys - 1);
    t.count <- t.count - 1;
    t.head <- (if t.count = 0 then t.tail else t.offsets.(t.first))
  done;
  if t.count = 0 && Array.length t.keys > 0 then begin
    let empty = create () in
    t.index <- empty.index;
    t.arena <- empty.arena;
    t.head <- 0;
    t.tail <- 0;
    t.keys <- empty.keys;
    t.expiries <- empty.expiries;
    t.offsets <- empty.offsets;
    t.first <- 0
  end
