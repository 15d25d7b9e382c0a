(* A parked waiter.  Whatever ends its parking (a [signal], its
   timeout or an abort) takes it out of the queue, so the queue holds
   exactly the parked waiters; a wake leaves what woke it in
   [outcome]. *)
type waiter = {
  park : unit Fiber.park;
  mutable timer : Engine.handle option;
  mutable outcome : [ `Signalled | `Timeout ];
}

type t = { mutable queue : waiter list (* reversed: newest first *) }

let create () = { queue = [] }

let remove t w = t.queue <- List.filter (fun w' -> w' != w) t.queue

let wake w outcome =
  w.outcome <- outcome;
  Fiber.unpark w.park ()

let wake_signalled w =
  Option.iter Engine.cancel w.timer;
  wake w `Signalled

let signal t =
  (* queue is newest-first; take from the end for FIFO order *)
  match List.rev t.queue with
  | [] -> ()
  | oldest :: rest ->
    t.queue <- List.rev rest;
    wake_signalled oldest

let broadcast t =
  let all = List.rev t.queue in
  t.queue <- [];
  List.iter wake_signalled all

(* A fiber cancelled (or otherwise discontinued) while parked must
   leave the queue: otherwise a later [signal] would pop it and unpark
   a fiber that waits elsewhere by then, or nowhere, so the signal
   would be silently swallowed and the next live waiter never woken. *)
let retire t w =
  remove t w;
  Option.iter Engine.cancel w.timer

(* The waiter is queued, and its timeout armed, just before the parking
   starts.  A parking that cancellation aborts at once retires the
   waiter again. *)
let wait fiber t timeout =
  let w = { park = Fiber.own_park fiber; timer = None; outcome = `Signalled } in
  t.queue <- w :: t.queue;
  (match timeout with
   | Some duration ->
     w.timer <-
       Fiber.timeout fiber duration (fun () ->
           remove t w;
           wake w `Timeout)
   | None -> ());
  Fiber.park_own w.park ~on_abort:(fun () -> retire t w);
  w.outcome

let await t = ignore (wait (Fiber.self ()) t None)
let await_timeout engine t duration = wait (Fiber.running engine) t (Some duration)
