type waiter = {
  mutable active : bool;
  (* Written once inside [Fiber.suspend]; mutable (with a dummy initial
     value) so the waiter can be allocated before suspending, letting
     the cancellation cleanup reach it — same shape as [Mailbox]. *)
  mutable wake : [ `Signalled | `Timeout ] Fiber.waker;
  mutable timer : Engine.handle option;
}
type t = { mutable queue : waiter list (* reversed: newest first *) }

let dummy_wake _ = ()
let create () = { queue = [] }

let rec pop_active t =
  (* queue is newest-first; take from the end for FIFO order *)
  match List.rev t.queue with
  | [] -> None
  | oldest :: rest ->
    t.queue <- List.rev rest;
    if oldest.active then Some oldest else pop_active t

let wake_signalled w =
  w.active <- false;
  (match w.timer with Some h -> Engine.cancel h | None -> ());
  w.timer <- None;
  w.wake (Ok `Signalled)

let signal t = match pop_active t with None -> () | Some w -> wake_signalled w

let broadcast t =
  let all = List.rev t.queue in
  t.queue <- [];
  List.iter (fun w -> if w.active then wake_signalled w) all

(* A fiber cancelled (or otherwise discontinued) while parked must
   deactivate its waiter: it stays physically queued, and without this a
   later [signal] would pop it and "wake" a dead waker — a no-op — so
   the signal would be silently swallowed and the next live waiter never
   woken. *)
let retire w =
  if w.active then begin
    w.active <- false;
    (match w.timer with Some h -> Engine.cancel h | None -> ());
    w.timer <- None
  end

let await t =
  let w = { active = true; wake = dummy_wake; timer = None } in
  let result =
    Fiber.suspend
      ~on_abort:(fun () -> retire w)
      (fun wake ->
        w.wake <- wake;
        t.queue <- w :: t.queue)
  in
  match result with `Signalled | `Timeout -> ()

let await_timeout engine t duration =
  let w = { active = true; wake = dummy_wake; timer = None } in
  Fiber.suspend
    ~on_abort:(fun () -> retire w)
    (fun wake ->
      w.wake <- wake;
      t.queue <- w :: t.queue;
      w.timer <-
        Some
          (Engine.schedule engine ~delay:duration (fun () ->
               if w.active then begin
                 w.active <- false;
                 (* The timer just fired: drop the handle rather than
                    [Engine.cancel] a no-longer-queued event, which
                    would drift the heap's cancelled-pending count. *)
                 w.timer <- None;
                 wake (Ok `Timeout)
               end)))
