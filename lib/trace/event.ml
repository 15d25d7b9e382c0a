(* A single structured trace event.

   Events are plain immutable records so that a recorded trace can be
   replayed, diffed, or exported without touching the simulator.  The
   [time] field is simulated seconds (the deterministic engine clock),
   never wall-clock time: two runs with the same seed produce the same
   event stream, byte for byte. *)

type arg =
  | Int of int
  | I32 of int32
  | I64 of int64
  | Float of float
  | Str of string
  | Bool of bool

type phase =
  | Instant  (** a point event *)
  | Begin  (** opens a span; must be closed by a matching [End] *)
  | End  (** closes the innermost open span with the same scope *)
  | Complete of float  (** a span with a known duration, in seconds *)

type t = {
  seq : int;  (** global emission order, starting at 0 *)
  time : float;  (** simulated seconds *)
  cat : string;  (** taxonomy bucket: fiber/net/syscall/pairmsg/rpc/txn/... *)
  name : string;
  phase : phase;
  host : int;  (** host id, or -1 when not attributable to a host *)
  fiber : int;  (** fiber id, or -1 when emitted outside any fiber *)
  args : (string * arg) list;
}

let make ~seq ~time ~cat ~name ~phase ~host ~fiber ~args =
  { seq; time; cat; name; phase; host; fiber; args }

(* Deterministic float formatting: shortest round-trippable decimal.
   [%h] would be byte-stable too but unreadable; [%.17g] is stable but
   noisy.  OCaml's [string_of_float] is locale-independent and
   deterministic for a given bit pattern, which is all we need for the
   byte-identical-trace oracle. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let pp_arg ppf = function
  | Int i -> Format.pp_print_int ppf i
  | I32 i -> Format.fprintf ppf "%ld" i
  | I64 i -> Format.fprintf ppf "%Ld" i
  | Float f -> Format.pp_print_string ppf (float_repr f)
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b

let phase_letter = function
  | Instant -> "i"
  | Begin -> "B"
  | End -> "E"
  | Complete _ -> "X"

let pp ppf e =
  Format.fprintf ppf "#%d %s [%s] %s/%s h%d f%d" e.seq (float_repr e.time)
    (phase_letter e.phase) e.cat e.name e.host e.fiber;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_arg v) e.args

let arg e key = List.assoc_opt key e.args

let int_arg e key =
  match arg e key with
  | Some (Int i) -> Some i
  | Some (I32 i) -> Some (Int32.to_int i)
  | Some (I64 i) -> Some (Int64.to_int i)
  | _ -> None

