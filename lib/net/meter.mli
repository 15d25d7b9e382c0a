(** Per-process CPU accounting, the simulated [getrusage].

    The experiments in chapter 4 of the paper report user-mode and
    kernel-mode CPU time per call, and an execution profile attributing
    kernel time to individual system calls (Tables 4.1–4.3).  A meter
    accumulates exactly those quantities for one simulated process. *)

type syscall
(** A system call name, interned: each name gets one fixed slot in
    every meter. *)

val syscall : string -> syscall
(** [syscall name] interns [name]: equal names give the same value.
    Intern once (a module-level value), not per charge; it takes a
    lock. *)

val syscall_name : syscall -> string

val syscall_key : syscall -> string
(** ["syscall." ^ name], built once: the name of the call's trace
    counter and histogram. *)

type t

val create : unit -> t
val reset : t -> unit

val charge_user : t -> float -> unit
val charge_kernel : t -> syscall -> float -> unit

val user : t -> float
(** Accumulated user-mode CPU seconds. *)

val kernel : t -> float
(** Accumulated kernel-mode CPU seconds. *)

val total : t -> float

val by_syscall : t -> (string * float * int) list
(** [(name, cpu_seconds, calls)] per system call, sorted by name. *)
