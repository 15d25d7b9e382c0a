(** A single structured trace event; see {!Trace} for the recorder. *)

type arg =
  | Int of int
  | I32 of int32
  | I64 of int64
  | Float of float
  | Str of string
  | Bool of bool

type phase =
  | Instant
  | Begin
  | End
  | Complete of float  (** duration in simulated seconds *)

type t = {
  seq : int;
  time : float;
  cat : string;
  name : string;
  phase : phase;
  host : int;
  fiber : int;
  args : (string * arg) list;
}

val make :
  seq:int ->
  time:float ->
  cat:string ->
  name:string ->
  phase:phase ->
  host:int ->
  fiber:int ->
  args:(string * arg) list ->
  t

val float_repr : float -> string
(** Deterministic decimal rendering used by every exporter. *)

val phase_letter : phase -> string
val pp : Format.formatter -> t -> unit
val arg : t -> string -> arg option
val int_arg : t -> string -> int option
