open Circus_rpc
open Circus_binding
module Codec = Circus_wire.Codec

let serve (process : System.process) ctx ~name ?policy ?state handlers =
  let rt = process.System.runtime in
  let module_no = Interface.export rt ?policy handlers in
  let load =
    match state with
    | Some (get, load) ->
      Runtime.set_state_provider rt ~module_no get;
      load
    | None -> fun _ -> ()
  in
  Recruit.join process.System.binding ctx ~name ~module_no ~load

let call (process : System.process) ctx ~service p ?collator args =
  let answer =
    Client.call process.System.binding ctx ~service ~proc_no:(Interface.proc_no p) ?collator
      (Codec.encode (Interface.encoder p) args)
  in
  Codec.decode (Interface.decoder p) answer
