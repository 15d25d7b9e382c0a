(* The [calls] workload: the paper's §4 rpctest as a closed loop.  One
   client fiber issues back-to-back 64-byte replicated calls to an echo
   troupe with the default unanimous collator, on one sequential
   engine, and times each [Runtime.call_troupe] from outside. *)

open Circus_sim
open Circus_net
open Circus_rpc
module Workloads = Circus_workloads.Workloads

let payload = Workloads.payload_bytes

(* The [Workloads.circus_row] testbed: [n] echo members and a client
   runtime, on the simulated 1985 testbed. *)
let echo_troupe ~seed ~n =
  let engine, net, env = Workloads.testbed ~seed () in
  let members =
    List.init n (fun i ->
        let h = Net.add_host net ~name:(Printf.sprintf "server%d" i) () in
        let rt = Runtime.create env h ~port:50 () in
        Runtime.module_addr rt (Runtime.export rt (fun _ctx ~proc_no:_ body -> body)))
  in
  let client = Runtime.create env (Net.add_host net ~name:"client" ()) () in
  (engine, net, Troupe.make ~id:42L ~members, client)

(* Call [i]'s argument: distinct per call and per seed, so an echo that
   returned the wrong reply cannot pass the check. *)
let argument ~seed i =
  Bytes.init payload (fun j -> Char.unsafe_chr ((seed + (i * 131) + (j * 7)) land 0xff))

(* Wall figures are in reference seconds ({!Measure.calibrate}). *)
type rep = {
  setup_s : float;  (** testbed construction + warm-up calls *)
  loop_s : float;  (** the timed calls, back to back *)
  call_ns : float array;  (** wall per timed call *)
  call_ns_scan : float array;  (** the same, scaled by the table-scan kernel *)
  loop_minor_words : float;  (** allocated by the timed calls *)
  sim_end : float;  (** simulated clock once the engine drained *)
  events : int;
  datagrams : int;
  dropped : int;
}

let warmup_calls = 200

(* Calls between two runs of the calibration kernel: the machine's speed
   can change within one repetition. *)
let chunk = 4_000

(* One repetition on a fresh testbed.  [before] and [inside] run in the
   client fiber just before and just after the timed loop, with the
   whole testbed reachable. *)
let run_rep ?(inside = fun () -> ()) ?(before = fun () -> ()) ~seed ~n ~calls () =
  let scale_start = Measure.calibrate () in
  let t0 = Measure.now_ns () in
  let engine, net, troupe, client = echo_troupe ~seed ~n in
  let call_ns = Array.make calls 0.0 and call_ns_scan = Array.make calls 0.0 in
  let setup_s = ref 0.0 and loop_s = ref 0.0 and words = ref 0.0 in
  let finished = ref false and bad = ref None in
  let call ctx i =
    let arg = argument ~seed i in
    let t = Measure.now_ns () in
    let reply = try Ok (Runtime.call_troupe ctx troupe ~proc_no:0 arg) with e -> Error e in
    let dt = Measure.now_ns () - t in
    (match reply with
    | Ok r when Bytes.equal r arg -> ()
    | Ok _ -> if !bad = None then bad := Some (Printf.sprintf "call %d: reply differs" i)
    | Error e ->
      if !bad = None then
        bad := Some (Printf.sprintf "call %d raised %s" i (Printexc.to_string e)));
    dt
  in
  (* Each stretch of work is scaled by the mean of the kernel runs that
     bracket it; the kernel touches no simulated state. *)
  ignore
    (Runtime.spawn_thread client (fun ctx ->
         for i = 1 to warmup_calls do
           ignore (call ctx (-i))
         done;
         let t1 = Measure.now_ns () in
         let scale = ref (Measure.calibrate ()) in
         let scan_scale = ref (Measure.calibrate_scan ()) in
         setup_s := (scale_start +. !scale) /. 2.0 *. Measure.seconds_between t0 t1;
         before ();
         let first = ref 0 in
         while !first < calls do
           let last = min calls (!first + chunk) in
           let raw = Array.make (last - !first) 0 in
           let w = Gc.minor_words () and t = Measure.now_ns () in
           for i = !first to last - 1 do
             raw.(i - !first) <- call ctx i
           done;
           let wall = Measure.seconds_between t (Measure.now_ns ()) in
           words := !words +. (Gc.minor_words () -. w);
           let next = Measure.calibrate () in
           let next_scan = Measure.calibrate_scan () in
           let s = (!scale +. next) /. 2.0 and s_scan = (!scan_scale +. next_scan) /. 2.0 in
           Array.iteri
             (fun j ns ->
               call_ns.(!first + j) <- s *. Float.of_int ns;
               call_ns_scan.(!first + j) <- s_scan *. Float.of_int ns)
             raw;
           loop_s := !loop_s +. (s *. wall);
           scale := next;
           scan_scale := next_scan;
           first := last
         done;
         finished := true;
         inside ()));
  let events = Engine.run_counted engine in
  (match !bad with Some m -> raise (Measure.Check_failed ("calls: " ^ m)) | None -> ());
  Measure.check !finished "calls: the client fiber did not finish";
  let stats = Net.stats net in
  { setup_s = !setup_s;
    loop_s = !loop_s;
    call_ns;
    call_ns_scan;
    loop_minor_words = !words;
    sim_end = Engine.now engine;
    events;
    datagrams = stats.Net.sent;
    dropped = stats.Net.dropped }

(* Live words the pairmsg/rpc stack keeps per completed call: a full
   major GC before and after a long loop, measured inside the client
   fiber so the testbed is live both times. *)
let retained_words_per_call ~seed ~calls =
  let before = ref 0 and after = ref 0 in
  ignore
    (run_rep ~seed ~n:3 ~calls
       ~before:(fun () -> before := Measure.live_words ())
       ~inside:(fun () -> after := Measure.live_words ())
       ());
  Float.of_int (!after - !before) /. Float.of_int calls

let calls_per_rep = 20_000

(* Typical wall seconds of one repetition; sizes the run. *)
let nominal_s = 2.0
