(** Condition variable for fibers.

    As with OS condition variables, a waiter must re-check its
    predicate after {!await} returns: wake-ups transfer no data and
    admit spurious generalization when {!broadcast} is used. *)

type t

val create : unit -> t

val await : t -> unit
(** Block until signalled.  Must run in a fiber. *)

val await_timeout : Engine.t -> t -> float -> [ `Signalled | `Timeout ]
(** Block until signalled or until the duration elapses. *)

val signal : t -> unit
(** Wake one waiter (if any). *)

val broadcast : t -> unit
(** Wake all current waiters. *)
