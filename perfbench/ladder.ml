(* The layer ladder: one 64-byte exchange timed at each layer of the
   stack through that layer's public functions, bottom up — wire, net,
   pairmsg, rpc n1, rpc n3, binding, placement — plus the simulator
   primitives under all of them.  Each rung reports the median of
   [batches] batches (after one warm-up batch) in reference ns
   ({!Measure.calibrate}) per operation; a rung's self time is its
   figure minus the rung below. *)

open Circus_sim
open Circus_net
open Circus_rpc
open Circus_binding
module Segment = Circus_pairmsg.Segment
module Endpoint = Circus_pairmsg.Endpoint
module Placement = Circus_scenario.Placement
module Scenario = Circus_scenario.Scenario
module Workloads = Circus_workloads.Workloads

let batches = 5

(* [f ()] performs [ops] operations; returns the median ns/op. *)
let rung name ~ops f =
  f ();
  let scale = Measure.calibrate () in
  Measure.median
    (List.init batches (fun i ->
         Measure.span ~req:i name (fun () ->
             let (), s = Measure.time f in
             scale *. s *. 1e9 /. Float.of_int ops)))

let body = Bytes.make Workloads.payload_bytes 'x'

(* --- sim --- *)

let timer_cancel_ns () =
  let ops = 400_000 in
  rung "sim.timer_cancel" ~ops (fun () ->
      let e = Engine.create () in
      for _ = 1 to ops do
        Engine.cancel (Engine.schedule e ~delay:1000.0 ignore)
      done;
      Engine.run e)

let mailbox_op_ns () =
  let messages = 100_000 in
  rung "sim.mailbox_op" ~ops:(2 * messages) (fun () ->
      let engine = Engine.create () in
      let a : int Mailbox.t = Mailbox.create engine and b : int Mailbox.t = Mailbox.create engine in
      ignore
        (Fiber.spawn engine (fun () ->
             for i = 1 to messages do
               Mailbox.send a i;
               ignore (Mailbox.recv b)
             done));
      ignore
        (Fiber.spawn engine (fun () ->
             for _ = 1 to messages do
               Option.iter (Mailbox.send b) (Mailbox.recv a)
             done));
      Engine.run engine)

(* --- wire --- *)

let segment i =
  Segment.data_segment ~msg_type:Segment.Call ~total:1 ~seg_no:1 ~call_no:(Int32.of_int i) body

let wire_ops = 300_000

let segment_encode_ns () =
  rung "wire.segment_encode" ~ops:wire_ops (fun () ->
      for i = 1 to wire_ops do
        ignore (Sys.opaque_identity (Segment.encode (segment i)))
      done)

let segment_decode_ns () =
  let encoded = Segment.encode (segment 1) in
  rung "wire.segment_decode" ~ops:wire_ops (fun () ->
      for _ = 1 to wire_ops do
        match Segment.decode encoded with
        | Some s -> ignore (Sys.opaque_identity s)
        | None -> raise (Measure.Check_failed "wire: a segment failed to decode")
      done)

(* Minor words to build, encode and decode one data segment. *)
let minor_words_per_segment () =
  let w0 = Gc.minor_words () in
  for i = 1 to wire_ops do
    match Segment.decode (Segment.encode (segment i)) with
    | Some s ->
      Measure.check (s.Segment.call_no = Int32.of_int i) "wire: round trip changed a segment"
    | None -> raise (Measure.Check_failed "wire: a segment failed to decode")
  done;
  (Gc.minor_words () -. w0) /. Float.of_int wire_ops

(* --- net: one 64-byte sendmsg -> recvmsg between two hosts --- *)

let send_deliver_ns () =
  let ops = 20_000 in
  rung "net.send_deliver" ~ops (fun () ->
      let engine, net, env = Workloads.testbed () in
      let a = Net.add_host net () and b = Net.add_host net () in
      let sa = Net.udp_bind net a ~port:1 () and sb = Net.udp_bind net b ~port:2 () in
      let got = ref 0 in
      ignore
        (Host.spawn a (fun () ->
             for _ = 1 to ops do
               Syscall.sendmsg env sa ~dst:(Net.socket_addr sb) body
             done));
      ignore
        (Host.spawn b (fun () ->
             for _ = 1 to ops do
               match Syscall.recvmsg env sb with
               | Some d when Bytes.equal d.Net.payload body -> incr got
               | _ -> ()
             done));
      Engine.run engine;
      Measure.check (!got = ops) "net: %d of %d datagrams delivered intact" !got ops)

(* --- pairmsg: a bare Endpoint call/return --- *)

let exchange_ns () =
  let ops = 2_000 in
  rung "pairmsg.exchange" ~ops (fun () ->
      let engine, net, env = Workloads.testbed () in
      let a = Net.add_host net () and b = Net.add_host net () in
      let server = Endpoint.create env b ~port:7 () in
      Endpoint.serve server (fun ~src:_ req -> req);
      let client = Endpoint.create env a () in
      let ok = ref 0 in
      ignore
        (Host.spawn a (fun () ->
             for _ = 1 to ops do
               let reply = Endpoint.call client ~dst:(Endpoint.addr server) body in
               if Bytes.equal reply body then incr ok
             done));
      Engine.run engine;
      Measure.check (!ok = ops) "pairmsg: %d of %d exchanges echoed" !ok ops)

(* --- rpc: replicated calls to an n-member echo troupe --- *)

let rpc_calls = 2_000

(* Median ns per call, and minor words per call. *)
let call_ns ~n =
  let once () = Calls.run_rep ~seed:1985 ~n ~calls:rpc_calls () in
  let r = once () in
  let ns =
    Measure.median
      (List.init batches (fun i ->
           Measure.span ~req:i (Printf.sprintf "rpc.call_n%d" n) (fun () ->
               (once ()).Calls.loop_s *. 1e9 /. Float.of_int rpc_calls)))
  in
  (ns, r.Calls.loop_minor_words /. Float.of_int rpc_calls)

(* --- binding: Client import hits, misses and registrations --- *)

type binding = { cached_ns : float; uncached_ns : float; register_ms : float }

let binding () =
  let engine, net, env = Workloads.testbed () in
  let rm_hosts = List.init 3 (fun i -> Net.add_host net ~name:(Printf.sprintf "rm%d" i) ()) in
  List.iter (fun h -> ignore (Ringmaster.start_member env h)) rm_hosts;
  let ringmaster = Ringmaster.bootstrap_troupe ~hosts:(List.map Host.id rm_hosts) () in
  let members =
    List.init 3 (fun i ->
        let host = Net.add_host net ~name:(Printf.sprintf "svc%d" i) () in
        let rt = Runtime.create env host ~port:50 () in
        ignore (Client.create rt ~ringmaster);
        Runtime.module_addr rt (Runtime.export rt (fun _ctx ~proc_no:_ b -> b)))
  in
  let troupe = Troupe.make ~id:Ids.Troupe_id.none ~members in
  let rt = Runtime.create env (Net.add_host net ~name:"client" ()) () in
  let client = Client.create rt ~ringmaster in
  let names = List.init 20 (Printf.sprintf "svc-%04d") in
  let result = ref None in
  let scale = Measure.calibrate () in
  ignore
    (Runtime.spawn_thread rt (fun ctx ->
         let timed name ~ops f =
           Measure.span name (fun () ->
               let (), s = Measure.time (fun () -> for _ = 1 to ops do f () done) in
               scale *. s /. Float.of_int ops)
         in
         let reg =
           Measure.span "binding.register" (fun () ->
               List.map
                 (fun name ->
                   scale *. snd (Measure.time (fun () -> Client.register client ctx ~name troupe)))
                 names)
         in
         let name = List.hd names in
         let imported = Client.import client ctx name in
         Measure.check
           (List.equal Addr.equal_module imported.Troupe.members members)
           "binding: import returned a different membership";
         let cached =
           List.init batches (fun _ ->
               timed "binding.lookup_cached" ~ops:50_000 (fun () ->
                   ignore (Client.import client ctx name)))
         in
         let uncached =
           List.init batches (fun _ ->
               timed "binding.lookup_uncached" ~ops:400 (fun () ->
                   Client.invalidate client name;
                   ignore (Client.import client ctx name)))
         in
         result :=
           Some
             { cached_ns = 1e9 *. Measure.median cached;
               uncached_ns = 1e9 *. Measure.median uncached;
               register_ms = 1e3 *. Measure.median reg }));
  Engine.run engine;
  match !result with
  | Some r -> r
  | None -> raise (Measure.Check_failed "binding: the client thread did not finish")

(* --- placement: [Placement.place] on the default world's shape --- *)

(* Mean ms per troupe over all of [Scenario.default]'s troupes, placed
   in order onto its 8 shards' servers. *)
let place_ms () =
  let d = Scenario.default in
  let servers =
    d.Scenario.hosts - (d.Scenario.rm_partitions * d.Scenario.rm_replicas)
    - (d.Scenario.lps * d.Scenario.frontends)
  in
  let _, net, _ = Workloads.testbed () in
  let p = Placement.create ~lps:d.Scenario.lps () in
  for k = 0 to servers - 1 do
    let lp = k mod d.Scenario.lps in
    Placement.add_server p ~lp (Net.add_host net ~attributes:(Placement.server_attributes ~lp) ())
  done;
  let (), s =
    Measure.span "placement.place" (fun () ->
        Measure.timed (fun () ->
            for i = 0 to d.Scenario.troupes - 1 do
              let replicas = d.Scenario.replicas in
              match Placement.place p ~caller_lp:(i mod d.Scenario.lps) ~replicas with
              | Ok ms -> Measure.check (List.length ms = replicas) "placement: short troupe"
              | Error m -> raise (Measure.Check_failed ("placement: " ^ m))
            done))
  in
  (1e3 *. s /. Float.of_int d.Scenario.troupes, d.Scenario.troupes)

(* --- parallel: a fixed 8-LP engine workload at a given domain count --- *)

(* Dense local churn with a cross-LP message every 64 events; returns
   the wall seconds and a digest of what ran. *)
let parallel_synthetic ~domains =
  let lps = 8 and per_lp = 50_000 in
  let t = Parallel.create ~lps ~lookahead:1e-3 () in
  for i = 0 to lps - 1 do
    let engine = Parallel.engine t i in
    let remaining = ref per_lp in
    let rec tick () =
      if !remaining > 0 then begin
        decr remaining;
        if !remaining mod 64 = 0 then
          Parallel.post t ~src:i ~dst:((i + 1) mod lps) ~at:(Engine.now engine +. 1e-3) ignore;
        ignore (Engine.schedule engine ~delay:(1e-5 *. Prng.float (Parallel.prng t i)) tick)
      end
    in
    ignore (Engine.schedule_abs engine ~at:0.0 tick)
  done;
  let (), s = Measure.timed (fun () -> Parallel.run ~domains t) in
  (s, Printf.sprintf "%d@%h" (Parallel.executed t) (Parallel.now t))
