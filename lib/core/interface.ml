open Circus_rpc
module Codec = Circus_wire.Codec

type ('a, 'b) proc = { number : int; name : string; args : 'a Codec.t; result : 'b Codec.t }

let proc ~proc_no ~name args result = { number = proc_no; name; args; result }
let proc_no p = p.number
let encoder p = p.args
let decoder p = p.result

let call ctx troupe p ?multicast ?collator args =
  let answer =
    Runtime.call_troupe ctx troupe ~proc_no:p.number ?multicast ?collator
      (Codec.encode p.args args)
  in
  Codec.decode p.result answer

let call_gen ctx troupe p ?multicast args =
  let total, replies = Runtime.call_troupe_gen ctx troupe ~proc_no:p.number ?multicast (Codec.encode p.args args) in
  let decode (reply : Collator.reply) =
    match reply.Collator.message with
    | Some (Rpc_msg.Ok_result body) -> (
      match Codec.decode p.result body with v -> Some v | exception Codec.Decode_error _ -> None)
    | Some (Rpc_msg.App_error _ | Rpc_msg.Stale_troupe | Rpc_msg.No_such_module | Rpc_msg.No_such_procedure)
    | None ->
      None
  in
  (total, Seq.map decode replies)

type handler =
  | Plain of int * (Runtime.ctx -> bytes -> bytes)
  | Collated of int * (Runtime.ctx -> expected:int -> bytes list -> bytes)

let handler_no = function Plain (n, _) | Collated (n, _) -> n

let handle p f =
  Plain
    ( p.number,
      fun ctx body -> Codec.encode p.result (f ctx (Codec.decode p.args body)) )

let handle_collated p f =
  Collated
    ( p.number,
      fun ctx ~expected bodies ->
        let args = List.map (Codec.decode p.args) bodies in
        Codec.encode p.result (f ctx ~expected args) )

let export rt ?policy handlers =
  let numbers = List.map handler_no handlers in
  let sorted = List.sort_uniq Int.compare numbers in
  if List.length sorted <> List.length numbers then
    invalid_arg "Interface.export: duplicate procedure numbers";
  (* Mixed interfaces ride on the collated dispatch: plain handlers see
     the first (representative) argument set, as determinism allows. *)
  Runtime.export_collated rt ?policy (fun ctx ~proc_no ~expected bodies ->
      let handler =
        match List.find_opt (fun h -> handler_no h = proc_no) handlers with
        | Some h -> h
        | None -> raise Runtime.Bad_interface
      in
      match (handler, bodies) with
      | Plain (_, f), body :: _ -> f ctx body
      | Plain (_, _), [] -> raise Runtime.Bad_interface
      | Collated (_, f), bodies -> f ctx ~expected bodies)
