(** The million-client scenario engine.

    Builds a sharded world — a name-hash partitioned Ringmaster,
    hundreds of replicated echo troupes placed by the configuration
    solver, one pooled client stack per shard — and drives it with
    seeded open-loop traffic ({!Arrival}), reporting sustained
    throughput, latency quantiles and availability from merged
    {!Circus_trace.Metrics} histograms.

    Determinism: the world layout is a pure function of the spec; each
    shard's arrivals come from a non-advancing [Prng.stream] slot; all
    runtime behaviour rides on the conservative parallel engine.  Equal
    seeds therefore give byte-identical merged traces and reports at
    any domain count, with or without a chaos plan. *)

type arrival_kind = Poisson | Burst | Diurnal

type spec = {
  seed : int;
  lps : int;  (** shards (logical processes) *)
  hosts : int;  (** total simulated hosts *)
  troupes : int;  (** replicated services *)
  replicas : int;  (** members per service troupe *)
  rm_partitions : int;  (** Ringmaster name-hash partitions *)
  rm_replicas : int;  (** members per Ringmaster partition *)
  clients : int;  (** simulated client population *)
  think : float;  (** mean seconds between one client's requests *)
  frontends : int;
      (** client hosts per shard; sizes the front end's CPU capacity
          (one host sustains ~16 replicated calls/s under the syscall
          cost model) *)
  pool : int;  (** worker fibers per front-end host (bounds fiber count) *)
  locality : float;  (** fraction of a shard's traffic kept to its affine services *)
  payload : int;  (** request bytes *)
  warmup : float;  (** registration + cache prewarm, before measurement *)
  duration : float;  (** measured open-loop traffic window *)
  arrival : arrival_kind;
}

val default : spec
(** 100k clients over 1000 hosts: 100 troupes x 3 replicas, 4x3
    Ringmaster, 8 shards, 10 s of Poisson traffic at ~200 req/s. *)

val offered_rate : spec -> float
(** [clients / think], arrivals/s across the whole cluster. *)

val validate : spec -> (unit, string) result

type report = {
  arrivals : int;  (** open-loop arrivals generated *)
  completed : int;
  failed : int;  (** gave up after retries/rebinds *)
  unserved : int;  (** still queued or in flight at the horizon *)
  sustained_rps : float;  (** completed / duration *)
  availability : float;  (** completed / arrivals *)
  p50 : float;
  p99 : float;
  p999 : float;
  mean_latency : float;  (** seconds, arrival-to-reply (includes queueing) *)
  chaos_steps : int;
  servers : int;
  events_executed : int;
  net_sent : int;
  net_delivered : int;
  net_dropped : int;
  metrics : Circus_trace.Metrics.t;
      (** merged per-shard registries; with [causal] also the
          ["attr.*"] per-stage attribution histograms *)
  trace_events : Circus_trace.Event.t list;  (** empty unless [tracing] or [causal] *)
  trace_dropped : int;  (** events evicted from the per-LP ring sinks *)
  causal : Circus_trace.Causal.analysis option;
      (** critical-path latency attribution; [Some] iff [causal] *)
}

val run :
  ?domains:int ->
  ?chaos:int ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?causal:bool ->
  spec ->
  report
(** Build the world and run it to the horizon
    ([warmup + duration + drain]).  [chaos] seeds a
    {!Circus_fault.Plan.random} over the server hosts (Ringmaster and
    client hosts stay up, so the measured degradation is the
    service's).  [causal] enables per-request causal tracing
    (out-of-band contexts, zero wire bytes) and critical-path
    attribution; unless [tracing] is also set, the trace sinks then
    keep only the ["causal"]/["scenario"] categories.  Raises
    [Invalid_argument] if {!validate} rejects the spec. *)

val arrival_name : arrival_kind -> string

val report_json : spec -> report -> string
(** One-line deterministic JSON (domain count and wall-clock data
    excluded, so equal seeds compare byte-equal across [--domains]). *)
