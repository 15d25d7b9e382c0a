(** Per-request causal tracing with critical-path latency attribution.

    A context packs a request id and the span id of the last causal
    event on that request's path into one int.  Contexts are minted at
    the call origin ({!root}), advanced at every causal step ({!step}),
    and carried *out-of-band* on simulated datagrams — zero bytes on
    the wire, so byte-pinned goldens (segmentation, charges, timing)
    are untouched.  All ids come from per-host domain-local counters,
    so equal seeds give byte-identical causal streams at any domain
    count.

    Enabled separately from [Trace.on]: with the flag off every
    instrumented site pays one atomic load and emits nothing. *)

type ctx = int

val none : ctx
val req_of : ctx -> int

val on : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero the calling domain's id counters and the running fiber's
    ambient context (outside a fiber there is none).  Call
    before a run whose causal stream must be reproducible within the
    same process (fresh worker domains start zeroed already). *)

val register_ambient : get:(unit -> ctx) -> set:(ctx -> unit) -> unit
(** Dependency inversion for the ambient context: the fiber scheduler
    owns a per-fiber slot (contexts must survive parks) and registers
    accessors here at module initialisation.  Without a registration
    there is no ambient context: {!current} is {!none} and
    {!set_current} does nothing. *)

val current : unit -> ctx
val set_current : ctx -> unit

val cat : string
(** Event category of all causal events ("causal"). *)

val root : ?fiber:int -> ?args:(string * Event.arg) list -> host:int -> string -> ctx
(** Mint a fresh request at its origin and emit the root event
    (parent 0).  Does *not* touch the ambient context — roots are
    minted from engine callbacks where no fiber is running. *)

val step :
  ?parent:ctx ->
  ?set_ambient:bool ->
  ?fiber:int ->
  ?args:(string * Event.arg) list ->
  host:int ->
  string ->
  ctx
(** Advance a request's path: mint a span on [host], emit the event
    with the parent taken from [?parent] (if non-[none]) or the
    ambient context, and — unless [set_ambient:false] — store the new
    context as ambient.  Returns the new context, or [none] when there
    was no context to advance (then nothing is emitted). *)

(** {1 Critical-path extraction} *)

val stage_names : string array
(** queue, lookup, segmentation, network, exec, collate_wait,
    rexmit_stall, other. *)

type path = {
  preq : int;  (** request id *)
  start_t : float;
  finish_t : float;
  total : float;  (** [finish_t - start_t], seconds *)
  stages : float array;  (** indexed like {!stage_names}; sums to [total] *)
  chain : Event.t list;  (** the critical path, oldest first *)
}

type analysis = { paths : path list; incomplete : int }

val analyze : ?terminal:string -> Event.t list -> analysis
(** Walk the slowest-predecessor chain of every [terminal] event
    (default ["done"]) back to its root and attribute each chain
    interval to the stage named by the event that ends it.  Chains
    truncated by ring overflow are counted in [incomplete]. *)

val stage_metrics : analysis -> Metrics.t
(** Per-stage histograms ("attr.<stage>", plus "attr.total"),
    observed per completed request. *)

val total_quantile : analysis -> float -> float
val stage_quantile : analysis -> stage:int -> float -> float
(** Exact nearest-rank quantiles over the analyzed paths ([stage]
    indexes {!stage_names}); 0 on an empty analysis.  Unlike
    {!Metrics.quantile} these pay no bucket-interpolation error past
    the histogram's exact-sample cap. *)

val stage_components : ?band:float -> analysis -> float -> float array
(** [stage_components a q] attributes the latency of the requests
    whose total falls within the [q +- band] quantile band (default
    band 0.05): per-stage means over that band, which telescope to the
    band's mean total — so the components of the median request sum to
    (approximately) the p50, which marginal per-stage medians do
    not. *)

val attribution_json : analysis -> string
(** One-line deterministic JSON report (p50/p99/mean per stage,
    end-to-end, and the stage-p50 sum). *)

val waterfall : ?top:int -> analysis -> string
(** Stage waterfalls for the [top] slowest requests. *)

(** {1 Runtime invariants over causal traces} *)

module Invariant : sig
  val quorum_execution : quorum:int -> Event.t list -> (unit, string) result
  (** Every collated reply has at least [quorum] distinct replica
      executions of its request as causal predecessors: the §4.3
      replicated call waits for a quorum of members before its
      collator decides.  A test oracle; that a reply follows its call
      is {!Trace.Expect.follows} over this category. *)
end
