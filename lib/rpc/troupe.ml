open Circus_net
module Codec = Circus_wire.Codec
module Trace = Circus_trace.Trace

type t = { id : Ids.Troupe_id.t; members : Addr.module_addr list }

let make ~id ~members =
  if members = [] then invalid_arg "Troupe.make: empty member list";
  if Trace.on () then
    Trace.emit ~cat:"rpc"
      ~args:
        [ ("id", Circus_trace.Event.I64 id);
          ("members", Circus_trace.Event.Int (List.length members)) ]
      "troupe_make";
  { id; members }

let singleton m = { id = Ids.Troupe_id.none; members = [ m ] }
let size t = List.length t.members
let member_processes t = List.map (fun m -> m.Addr.process) t.members

let module_addr_codec =
  Codec.map
    (fun (host, port, module_no) ->
      { Addr.process = Addr.make ~host ~port; module_no })
    (fun { Addr.process; module_no } -> (process.Addr.host, process.Addr.port, module_no))
    (Codec.triple Codec.int Codec.uint16 Codec.uint16)

let codec =
  Codec.map
    (fun (id, members) -> { id; members })
    (fun { id; members } -> (id, members))
    (Codec.pair Ids.Troupe_id.codec (Codec.list module_addr_codec))
