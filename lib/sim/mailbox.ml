(* What a waiter parks on: a [recv]'s own park, unparked with the item
   left in [item] (or [None] on expiry), or a [serve] loop's park,
   unparked with the item (or kicked on expiry). *)
type 'a parked = Nothing | Receiver of unit Fiber.park | Server of 'a Fiber.park

(* A blocked receiver.  Waiters form an intrusive doubly-linked FIFO
   through [prev]/[next], closed by the mailbox's sentinel, so a waiter
   that times out or is cancelled unlinks itself in O(1): the queue
   holds only live waiters, and a [serve] loop reuses one waiter for
   all of its parkings. *)
type 'a waiter = {
  mutable linked : bool;
  mutable prev : 'a waiter;
  mutable next : 'a waiter;
  mutable timer : Engine.handle option;
  mutable parked : 'a parked;
  mutable item : 'a option;
}

type watcher = { watcher_id : int; notify : unit -> unit }

type 'a t = {
  engine : Engine.t;
  items : 'a Queue.t;
  (* Sentinel of the waiter FIFO: [head.next] is the oldest waiter,
     [head.prev] the newest. *)
  head : 'a waiter;
  mutable waiting : int;
  mutable watchers : watcher list;
  mutable next_watcher : int;
  (* The abort work of a parked [recv], built once: retire the waiter
     whose parking was aborted. *)
  mutable retire_aborted : unit -> unit;
}

let waiter t parked =
  { linked = false; prev = t.head; next = t.head; timer = None; parked; item = None }

let link t w =
  let last = t.head.prev in
  w.prev <- last;
  w.next <- t.head;
  last.next <- w;
  t.head.prev <- w;
  w.linked <- true;
  t.waiting <- t.waiting + 1

(* An unlinked waiter points back at the sentinel.  Stale links would
   chain: a waiter popped by [send] would keep the one after it, that
   one the next, and so on, all alive for as long as anything holds the
   first, such as its cancelled timeout event still queued in the
   engine: every later waiter of the mailbox, ~35 words each. *)
let unlink t w =
  w.prev.next <- w.next;
  w.next.prev <- w.prev;
  w.prev <- t.head;
  w.next <- t.head;
  w.linked <- false;
  t.waiting <- t.waiting - 1

(* A waiter whose parking is abandoned (cancelled): leave the queue and
   disarm the timeout.  A waiter that already left the queue has
   nothing to undo. *)
let retire t w =
  if w.linked then begin
    unlink t w;
    match w.timer with
    | Some h ->
      Engine.cancel h;
      w.timer <- None
    | None -> ()
  end

(* The one linked waiter whose park no longer holds its fiber: a parked
   receiver is unlinked before anything else wakes its park, so only an
   abort leaves one behind. *)
let rec retire_aborted t w =
  if w != t.head then
    match w.parked with
    | Receiver p when not (Fiber.is_parked p) -> retire t w
    | Receiver _ | Server _ | Nothing -> retire_aborted t w.next

let create engine =
  let rec head =
    { linked = false; prev = head; next = head; timer = None; parked = Nothing; item = None }
  in
  let t =
    { engine; items = Queue.create (); head; waiting = 0; watchers = []; next_watcher = 0;
      retire_aborted = ignore }
  in
  t.retire_aborted <- (fun () -> retire_aborted t t.head.next);
  t

let expire t w () =
  if w.linked then begin
    unlink t w;
    w.timer <- None;
    match w.parked with Receiver p -> Fiber.unpark p () | Server p -> Fiber.kick p | Nothing -> ()
  end

let send t v =
  (if t.waiting > 0 then begin
     let w = t.head.next in
     unlink t w;
     (match w.timer with Some h -> Engine.cancel h | None -> ());
     match w.parked with
     | Receiver p ->
       w.item <- Some v;
       Fiber.unpark p ()
     | Server p -> Fiber.unpark p v
     | Nothing -> ()
   end
   else Queue.push v t.items);
  match t.watchers with
  | [] -> ()
  | [ w ] -> w.notify ()
  | ws -> List.iter (fun w -> w.notify ()) ws

let try_recv t = Queue.take_opt t.items

(* The waiter is linked, and its timeout armed, just before the parking
   starts: nothing runs in between.  A parking that cancellation aborts
   at once unlinks the waiter again.  An aborted parking retires its
   waiter eagerly: beyond reclaiming memory, this keeps a later [send]
   from "delivering" to the dead waiter, which would silently lose the
   message. *)
let recv ?timeout t =
  match Queue.take_opt t.items with
  | Some v -> Some v
  | None ->
    let fiber = Fiber.running t.engine in
    let p = Fiber.own_park fiber in
    let w = waiter t (Receiver p) in
    link t w;
    (match timeout with
     | Some duration -> w.timer <- Fiber.timeout fiber duration (expire t w)
     | None -> ());
    Fiber.park_own p ~on_abort:t.retire_aborted;
    w.item

(* [recv ~timeout:idle] in a loop, with one waiter and one park for
   every iteration.  An expiry does not resume the fiber: it kicks the
   park, whose resume slot takes an item that arrived meanwhile or
   re-links the waiter at the tail and re-arms the timer, as the
   literal loop's next [recv] would (DESIGN.md "Suspension
   discipline").  The idle timer itself is re-armed in place once it
   has fired; one that a send or an abort cancelled has dropped its
   closure, so the next parking builds a new one.  Either way the
   arming takes the seq a fresh [schedule] would. *)
let serve ~idle t f =
  let w = waiter t Nothing in
  let expire = expire t w in
  (* Whether [timer] may be re-armed: fresh, or fired since its last
     arming.  [armed] is [Some timer], built with it. *)
  let spent = ref true in
  let on_fire () =
    spent := true;
    expire ()
  in
  let timer = ref (Engine.timer t.engine on_fire) in
  let armed = ref (Some !timer) in
  let park =
    Fiber.park_create
      ~arm:(fun () ->
        link t w;
        if not !spent then begin
          timer := Engine.timer t.engine on_fire;
          armed := Some !timer
        end;
        spent := false;
        Engine.rearm t.engine !timer ~delay:idle;
        w.timer <- !armed)
      ~poll:(fun () -> Queue.take_opt t.items)
      ~on_abort:(fun () -> retire t w)
  in
  w.parked <- Server park;
  let rec loop () =
    (match Queue.take_opt t.items with Some v -> f v | None -> f (Fiber.park park));
    loop ()
  in
  loop ()

let length t = Queue.length t.items
let waiting t = t.waiting
let clear t = Queue.clear t.items

let watch t notify =
  let w = { watcher_id = t.next_watcher; notify } in
  t.next_watcher <- t.next_watcher + 1;
  t.watchers <- w :: t.watchers;
  w

(* A watcher is almost always the newest one (selects nest LIFO), so
   the head case is O(1); the rebuild only runs for out-of-order
   removals. *)
let unwatch t w =
  match t.watchers with
  | w' :: rest when w' == w -> t.watchers <- rest
  | _ -> t.watchers <- List.filter (fun w' -> w'.watcher_id <> w.watcher_id) t.watchers
