open Circus_sim
open Circus_net
open Circus_rpc
open Circus_binding

type t = {
  engine : Engine.t;
  net : Net.t;
  env : Syscall.env;
  ringmaster : Troupe.t;
}

let create ?seed ?params ?syscall_costs ?(ringmasters = 2) () =
  let engine = Engine.create ?seed () in
  let net = Net.create engine ?params () in
  (* Applications get post-VAX hardware by default; the measurement
     benches build their own environments with the 1985 costs. *)
  let costs = match syscall_costs with Some c -> c | None -> Syscall.fast_costs in
  let env = Syscall.make net ~costs () in
  let hosts =
    List.init ringmasters (fun i -> Net.add_host net ~name:(Printf.sprintf "ringmaster%d" i) ())
  in
  List.iter (fun h -> ignore (Ringmaster.start_member env h)) hosts;
  let ringmaster = Ringmaster.bootstrap_troupe ~hosts:(List.map Host.id hosts) () in
  { engine; net; env; ringmaster }

let engine t = t.engine
let net t = t.net
let env t = t.env
let ringmaster t = t.ringmaster

let add_host t ?name ?clock_offset ?attributes () =
  Net.add_host t.net ?name ?clock_offset ?attributes ()

type process = {
  host : Host.t;
  runtime : Runtime.t;
  binding : Client.t;
}

let process t ?host ?port ?name ?meter () =
  let host = match host with Some h -> h | None -> add_host t ?name () in
  let runtime = Runtime.create t.env host ?port ?meter () in
  let binding = Client.create runtime ~ringmaster:t.ringmaster in
  { host; runtime; binding }

let spawn process ?label f = Runtime.spawn_thread process.runtime ?label f
let run ?until t = Engine.run ?until t.engine
let now t = Engine.now t.engine

let enable_tracing ?capacity t = Engine.enable_tracing ?capacity t.engine

let export_trace _t format path =
  match Circus_trace.Trace.active () with
  | None -> ()
  | Some sink -> (
    match format with
    | `Chrome -> Circus_trace.Export.chrome_to_file sink path
    | `Jsonl -> Circus_trace.Export.jsonl_to_file sink path)
