(** Unbounded FIFO message queue with blocking receive.

    Models a socket receive buffer: senders never block; receivers
    block until a message arrives or an optional timeout expires. *)

type 'a t

val create : Engine.t -> 'a t

val send : 'a t -> 'a -> unit
(** Enqueue a message, waking one blocked receiver if any. *)

val recv : ?timeout:float -> 'a t -> 'a option
(** Dequeue the next message, blocking if the queue is empty.  Returns
    [None] only if [timeout] (virtual seconds) expires first.  Must run
    in a fiber. *)

val serve : idle:float -> 'a t -> ('a -> unit) -> 'b
(** [serve ~idle q f] behaves exactly as the loop
    [while true do Option.iter f (recv ~timeout:idle q) done]: the same
    items reach [f] at the same instants, and the engine runs the same
    events in the same order and emits the same trace.  Only the cost
    differs: an expiry with nothing to take re-arms the receiver in its
    resume slot without resuming the fiber, and one waiter serves every
    iteration.  Returns only by an exception from [f] or from
    cancellation.  Must run in a fiber. *)

val try_recv : 'a t -> 'a option
(** Non-blocking dequeue.  Callable outside a fiber, so a test can read
    what a run delivered to a socket after {!Engine.run} returns. *)

val length : 'a t -> int
(** Messages currently queued (excluding any being awaited). *)

val waiting : 'a t -> int
(** Receivers currently blocked in {!recv} or {!serve}.  A waiter
    leaves the queue as soon as its timeout expires or its fiber is
    cancelled, so neither lingers until a future {!send}; the tests
    check that reclamation through this count. *)

val clear : 'a t -> unit

type watcher

val watch : 'a t -> (unit -> unit) -> watcher
(** [watch t f] calls [f] on every subsequent {!send}, whether or not
    the message is consumed immediately by a blocked receiver.  Used to
    build [select]-style readiness waiting across several mailboxes. *)

val unwatch : 'a t -> watcher -> unit
