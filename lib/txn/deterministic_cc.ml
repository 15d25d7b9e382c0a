open Circus_sim
open Circus_net

type t = {
  jobs : (unit -> unit) Mailbox.t;
  mutable executed : int;
}

let create host =
  let t = { jobs = Mailbox.create (Host.engine host); executed = 0 } in
  ignore
    (Host.spawn host ~label:"deterministic_cc" (fun () ->
         while Host.is_alive host do
           match Mailbox.recv t.jobs with
           | Some job ->
             job ();
             t.executed <- t.executed + 1
           | None -> ()
         done));
  t

let submit t job = Mailbox.send t.jobs job
let executed t = t.executed
