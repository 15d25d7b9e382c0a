(* The scenario workloads: open-loop traffic through [Scenario.run],
   timed from outside as one call per run.

   One benchmark run of a scenario workload simulates several
   independent worlds ("sub-worlds"), whose spec seeds are derived from
   the workload seed.  How heavy one world is depends strongly on its
   seed — on/off bursts and chaos plans make some seeds much busier
   than others — so a single world per run would measure the seed, not
   the code. *)

module Scenario = Circus_scenario.Scenario

type t = {
  name : string;
  chaos : bool;  (** a [Plan.random] chaos plan seeded by the sub-world's seed *)
  nominal_s : float;  (** typical wall seconds of one sub-world; sizes the run *)
  spec : int -> Scenario.spec;
}

(* A mid-size world: the default spec's shape on 200 hosts. *)
let mid_world ~duration seed = { Scenario.default with Scenario.seed; hosts = 200; duration }

let poisson =
  { name = "poisson"; chaos = false; nominal_s = 1.6; spec = mid_world ~duration:30.0 }

let burst_chaos =
  { name = "burst_chaos";
    chaos = true;
    nominal_s = 1.4;
    spec =
      (fun seed -> { (mid_world ~duration:10.0 seed) with Scenario.arrival = Scenario.Burst }) }

let all = [ poisson; burst_chaos ]

(* The flagship spec ([Scenario.default]: 1000 hosts, 100 troupes), whose
   set-up is mostly [Placement.place].  Not a timed workload: one world
   takes seconds, too few fit a run to be steady on a shared machine.
   The traced run measures its set-up beside the solver's. *)
let default_world =
  { name = "default";
    chaos = false;
    nominal_s = 2.8;
    spec = (fun seed -> { Scenario.default with seed }) }

(* The spec seed of sub-world [j] of workload seed [seed]. *)
let sub_seed seed j = (seed * 1000) + j

(* How many sub-worlds a run of [seconds] simulates: a function of the
   arguments only, so equal arguments give equal inputs. *)
let sub_worlds w ~seconds = max 2 (int_of_float (Float.round (seconds /. w.nominal_s)))

let run ?(domains = 1) ?(tracing = false) ?(causal = false) ?trace_capacity ?(chaos = true) w
    ~seed =
  let chaos = if w.chaos && chaos then Some seed else None in
  Measure.timed (fun () ->
      Scenario.run ~domains ?chaos ~tracing ~causal ?trace_capacity (w.spec seed))

(* Set-up cost: the same spec with (next to) no traffic — world build,
   placement, registration and binding-cache prewarm, plus the idle
   drain.  Without the chaos plan, which targets the traffic window. *)
let setup_wall ~seed w =
  let w = { w with spec = (fun seed -> { (w.spec seed) with Scenario.duration = 1e-3 }) } in
  snd (run ~chaos:false w ~seed)

let check_accounting w (r : Scenario.report) =
  Measure.check
    (r.arrivals > 0 && r.completed > 0 && r.failed >= 0 && r.unserved >= 0
    && r.arrivals = r.completed + r.failed + r.unserved)
    "%s: arrivals %d <> completed %d + failed %d + unserved %d" w.name r.arrivals r.completed
    r.failed r.unserved

let digest w ~seed r = Digest.to_hex (Digest.string (Scenario.report_json (w.spec seed) r))

let failed_share (r : Scenario.report) =
  Float.of_int (r.failed + r.unserved) /. Float.of_int r.arrivals
