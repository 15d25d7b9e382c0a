open Circus_sim
open Circus_net
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event
module Export = Circus_trace.Export

let emit ?host name args = if Trace.on () then Trace.emit ~cat:"fault" ?host ~args name

(* One epoch counter per burst kind: a burst's expiry event only clears
   the knob if no later burst of the same kind has been applied since
   (mirrors the partition-episode epoch inside [Net]). *)
type kind_state = { mutable epoch : int }

let burst state (set : float -> unit) ~at ~duration ~rate ~engine ~name ~arg_name =
  state.epoch <- state.epoch + 1;
  let epoch = state.epoch in
  set rate;
  emit name [ (arg_name, Tev.Float rate); ("duration", Tev.Float duration) ];
  ignore
    (Engine.schedule_abs engine ~at:(at +. duration) (fun () ->
         if state.epoch = epoch then begin
           set 0.0;
           emit (name ^ "_end") []
         end))

let inject net plan =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Injector.inject: " ^ msg));
  let engine = Net.engine net in
  let loss = { epoch = 0 } in
  let dup = { epoch = 0 } in
  let delay = { epoch = 0 } in
  let corrupt = { epoch = 0 } in
  List.iter
    (fun { Plan.at; action } ->
      ignore
        (Engine.schedule_abs engine ~at (fun () ->
             match action with
             | Plan.Crash h ->
               emit ~host:h "crash" [];
               Host.crash (Net.host net h)
             | Plan.Restart h ->
               emit ~host:h "restart" [];
               Host.restart (Net.host net h)
             | Plan.Partition { groups; duration } ->
               emit "partition"
                 [ ("groups", Tev.Int (List.length groups));
                   ("isolated",
                     Tev.Str
                       (String.concat ","
                          (match groups with
                          | [ _; minority ] -> List.map string_of_int minority
                          | _ -> [])));
                   ("duration", Tev.Float duration) ];
               Net.set_partition_for net groups ~duration
             | Plan.Heal ->
               emit "heal" [];
               Net.heal_partition net
             | Plan.Loss_burst { rate; duration } ->
               burst loss (Net.set_extra_loss net) ~at ~duration ~rate ~engine
                 ~name:"loss_burst" ~arg_name:"rate"
             | Plan.Dup_burst { rate; duration } ->
               burst dup (Net.set_extra_duplication net) ~at ~duration ~rate ~engine
                 ~name:"dup_burst" ~arg_name:"rate"
             | Plan.Delay_burst { extra_mean; duration } ->
               burst delay (Net.set_extra_delay_mean net) ~at ~duration ~rate:extra_mean
                 ~engine ~name:"delay_burst" ~arg_name:"extra_mean"
             | Plan.Corrupt_burst { rate; duration } ->
               burst corrupt (Net.set_corrupt_rate net) ~at ~duration ~rate ~engine
                 ~name:"corrupt_burst" ~arg_name:"rate")))
    plan

(* A plan against a sharded cluster: each shard gets the plan filtered
   to what concerns it — crash/restart only on the shard owning the
   victim, network-wide steps (partitions, bursts) on every shard —
   scheduled on that shard's own engine.  Each shard therefore applies
   each global step at the same simulated time from its own event
   loop, which keeps the per-shard partition/fault state consistent
   without any cross-domain mutation: the sender's view is the only
   one that gates a send.  Filtering preserves the plan's time order
   and its crash/restart pairing (a host's steps all land on its own
   shard), so per-shard validation still passes. *)
let inject_cluster cluster plan =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Injector.inject_cluster: " ^ msg));
  for i = 0 to Cluster.lp_count cluster - 1 do
    let sub =
      List.filter
        (fun { Plan.at = _; action } ->
          match action with
          | Plan.Crash h | Plan.Restart h -> Cluster.lp_of_host cluster h = i
          | Plan.Partition _ | Plan.Heal | Plan.Loss_burst _ | Plan.Dup_burst _
          | Plan.Delay_burst _ | Plan.Corrupt_burst _ ->
            true)
        plan
    in
    if sub <> [] then inject (Cluster.net cluster i) sub
  done

(* ------------------------------------------------------------------ *)
(* Fault-trace rendering *)

let render_line (e : Tev.t) =
  let b = Buffer.create 96 in
  Export.add_args b
    [ ("t", Tev.Float e.Tev.time); ("name", Tev.Str e.Tev.name); ("host", Tev.Int e.Tev.host) ];
  if e.Tev.args <> [] then begin
    (* Reopen the object to nest the arguments. *)
    Buffer.truncate b (Buffer.length b - 1);
    Buffer.add_string b ",\"args\":";
    Export.add_args b e.Tev.args;
    Buffer.add_char b '}'
  end;
  Buffer.contents b

let fault_trace_lines () =
  Trace.events ()
  |> List.filter (fun (e : Tev.t) -> e.Tev.cat = "fault")
  |> List.map render_line
