(* A blocked receiver.  Waiters form an intrusive doubly-linked FIFO
   through [prev]/[next], closed by the mailbox's sentinel, so a waiter
   that times out or is cancelled unlinks itself in O(1): the queue
   holds only live waiters, and a [serve] loop reuses one waiter for
   all of its parkings. *)
type 'a waiter = {
  mutable linked : bool;
  mutable prev : 'a waiter;
  mutable next : 'a waiter;
  (* Called with [Ok (Some v)] by [send] and with [Ok None] by the
     waiter's expiry.  Written once inside [Fiber.suspend]; mutable
     (with a dummy initial value) so the waiter can be allocated before
     suspending, letting the cancellation cleanup reach it without an
     extra ref cell on the hot receive path. *)
  mutable wake : 'a option Fiber.waker;
  mutable timer : Engine.handle option;
  (* A receiver without a timeout parks on its fiber's own park instead
     ([park]); [send] leaves the item in [item] and unparks it. *)
  mutable park : unit Fiber.park option;
  mutable item : 'a option;
}

let dummy_wake _ = ()

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
  (* The abort work of a parked receiver ([recv] without a timeout),
     built once: unlink the waiter whose parking was aborted. *)
  mutable retire_aborted : unit -> unit;
}

let waiter t =
  { linked = false; prev = t.head; next = t.head; wake = dummy_wake; timer = None; park = None;
    item = None }

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
   disarm the timeout.  A waiter that never entered the queue — its
   fiber was cancelled before it parked — or already left it has
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
    match w.park with
    | Some p when not (Fiber.is_parked p) -> unlink t w
    | Some _ | None -> retire_aborted t w.next

let create engine =
  let rec head =
    { linked = false; prev = head; next = head; wake = dummy_wake; timer = None; park = None;
      item = None }
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
    w.wake (Ok None)
  end

let send t v =
  (if t.waiting > 0 then begin
     let w = t.head.next in
     unlink t w;
     (match w.timer with Some h -> Engine.cancel h | None -> ());
     match w.park with
     | Some p ->
       w.item <- Some v;
       Fiber.unpark p ()
     | None -> w.wake (Ok (Some v))
   end
   else Queue.push v t.items);
  match t.watchers with
  | [] -> ()
  | [ w ] -> w.notify ()
  | ws -> List.iter (fun w -> w.notify ()) ws

let try_recv t = Queue.take_opt t.items

let recv ?timeout t =
  match Queue.take_opt t.items with
  | Some v -> Some v
  | None when Option.is_none timeout ->
    (* The waiter is linked before the parking starts, where the
       [suspend] below links it in its [register]: nothing runs in
       between, and a parking that cancellation aborts at once unlinks
       it again, as that [suspend] would never have linked it. *)
    let p = Fiber.own_park (Fiber.running t.engine) in
    let w = waiter t in
    w.park <- Some p;
    link t w;
    Fiber.park_own p ~on_abort:t.retire_aborted;
    w.item
  | None ->
    let w = waiter t in
    Fiber.suspend
      (* Cancelled (or otherwise discontinued) while parked: retire the
         waiter eagerly.  Beyond reclaiming memory this keeps a later
         [send] from "delivering" to the dead waiter — whose waker is a
         no-op by then — which would silently lose the message. *)
      ~on_abort:(fun () -> retire t w)
      (fun wake ->
        w.wake <- wake;
        link t w;
        match timeout with
        | None -> ()
        | Some duration -> w.timer <- Some (Engine.schedule t.engine ~delay:duration (expire t w)))

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
  let w = waiter t in
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
  w.wake <- (function Ok (Some v) -> Fiber.unpark park v | Ok None | Error _ -> Fiber.kick park);
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
