(** Deterministic trace exporters: same seed, same bytes. *)

val jsonl : Trace.sink -> string
(** One JSON object per line per event, oldest first.  The byte-pinned
    trace goldens of the tests compare this string. *)

val chrome : Trace.sink -> string
(** Chrome [trace_event] JSON, loadable in Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or about://tracing.
    Hosts map to processes, fibers to threads; causal events whose
    parent lives on another host/fiber get flow arrows.  The tests'
    Chrome golden compares this string. *)

val add_args : Buffer.t -> (string * Event.arg) list -> unit
(** Append [args] as one JSON object, keys in list order, with the
    exporters' string escaping and {!Event.float_repr} floats. *)

val jsonl_to_file : Trace.sink -> string -> unit
val chrome_to_file : Trace.sink -> string -> unit

(** {1 Event-list renderings}

    The same renderings over a bare event list, for streams assembled
    outside a single sink — e.g. the parallel engine's per-LP traces
    merged into one deterministic stream. *)

val jsonl_events : ?dropped:int -> Event.t list -> string
(** [dropped] > 0 appends a final [{"dropped":N}] trailer line so ring
    overflow is visible instead of silently truncating; complete
    traces render exactly as before. *)

val chrome_events : ?dropped:int -> Event.t list -> string
