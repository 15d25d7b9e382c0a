(* A fixed-capacity ring buffer with an overwrite-oldest overflow
   policy.

   The recorder must never make an unbounded allocation on behalf of a
   long simulation, so the ring keeps the most recent [capacity] items
   and counts what it had to discard.  Writers pay one array store per
   push; there is no per-event allocation beyond the event itself. *)

type 'a t = {
  slots : 'a option array;
  capacity : int;
  mutable head : int;  (* next write position *)
  mutable length : int;  (* live items, <= capacity *)
  mutable dropped : int;  (* items overwritten since creation/clear *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { slots = Array.make capacity None; capacity; head = 0; length = 0; dropped = 0 }

let length t = t.length
let dropped t = t.dropped

let push t x =
  if t.length = t.capacity then t.dropped <- t.dropped + 1 else t.length <- t.length + 1;
  t.slots.(t.head) <- Some x;
  t.head <- (t.head + 1) mod t.capacity

let clear t =
  Array.fill t.slots 0 t.capacity None;
  t.head <- 0;
  t.length <- 0;
  t.dropped <- 0

(* Oldest-first iteration. *)
let iter t f =
  let start = (t.head - t.length + t.capacity) mod t.capacity in
  for i = 0 to t.length - 1 do
    match t.slots.((start + i) mod t.capacity) with
    | Some x -> f x
    | None -> assert false
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun x -> acc := f !acc x);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc x -> x :: acc))
