open Circus_sim
open Circus_net
open Circus_rpc
module Codec = Circus_wire.Codec
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event

type status = Proposed | Accepted

type entry = {
  msg_id : int64;
  body : bytes;
  mutable time : float;
  mutable status : status;
}

type t = {
  host : Host.t;
  deliver : bytes -> unit;
  mutable queue : entry list;  (* ordered by (time, msg_id) *)
  mutable last_proposed : float;
  mutable delivered : int;
}

let create host ~deliver = { host; deliver; queue = []; last_proposed = neg_infinity; delivered = 0 }

let entry_order a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int64.compare a.msg_id b.msg_id

let insert t entry = t.queue <- List.sort entry_order (entry :: t.queue)

(* Release every leading message that is accepted and whose time has
   arrived; an accepted head still in the future schedules a recheck. *)
let rec drain t =
  match t.queue with
  | ({ status = Accepted; time; _ } as head) :: rest ->
    if time <= Host.gettimeofday t.host then begin
      t.queue <- rest;
      t.delivered <- t.delivered + 1;
      if Trace.on () then
        Trace.emit ~cat:"obcast" ~host:(Host.id t.host)
          ~args:[ ("msg_id", Tev.I64 head.msg_id); ("n", Tev.Int t.delivered) ]
          "deliver";
      t.deliver head.body;
      drain t
    end
    else begin
      let delay = time -. Host.gettimeofday t.host in
      ignore (Engine.schedule (Host.engine t.host) ~delay (fun () -> drain t))
    end
  | { status = Proposed; _ } :: _ | [] -> ()

let proposal_codec = Codec.pair Codec.int64 Codec.bytes
let accept_codec = Codec.pair Codec.int64 Codec.float64

let get_proposed_time t (msg_id, body) =
  (* Proposed times must be strictly increasing locally so a member's
     proposals are never reordered behind one another. *)
  let now = Host.gettimeofday t.host in
  let time = if now > t.last_proposed then now else t.last_proposed +. 1e-9 in
  t.last_proposed <- time;
  if Trace.on () then
    Trace.emit ~cat:"obcast" ~host:(Host.id t.host)
      ~args:[ ("msg_id", Tev.I64 msg_id); ("time", Tev.Float time) ]
      "propose";
  insert t { msg_id; body; time; status = Proposed };
  time

let accept_time t (msg_id, accepted_time) =
  if Trace.on () then
    Trace.emit ~cat:"obcast" ~host:(Host.id t.host)
      ~args:[ ("msg_id", Tev.I64 msg_id); ("time", Tev.Float accepted_time) ]
      "accept";
  (match List.find_opt (fun e -> Int64.equal e.msg_id msg_id) t.queue with
  | Some entry ->
    t.queue <- List.filter (fun e -> not (Int64.equal e.msg_id msg_id)) t.queue;
    entry.time <- accepted_time;
    entry.status <- Accepted;
    if accepted_time > t.last_proposed then t.last_proposed <- accepted_time;
    insert t entry
  | None -> ());
  drain t

let export rt t =
  Runtime.export rt (fun _ctx ~proc_no body ->
      match proc_no with
      | 0 ->
        let msg = Codec.decode proposal_codec body in
        Codec.encode Codec.float64 (get_proposed_time t msg)
      | 1 ->
        accept_time t (Codec.decode accept_codec body);
        Bytes.empty
      | _ -> raise Runtime.Bad_interface)

let atomic_broadcast ctx troupe body =
  (* A deterministic, replica-agreed message identifier. *)
  let msg_id = Runtime.next_call_seq ctx in
  if Trace.on () then
    Trace.emit ~cat:"obcast"
      ~host:(Host.id (Runtime.host (Runtime.runtime ctx)))
      ~args:[ ("msg_id", Tev.I64 msg_id); ("members", Tev.Int (Troupe.size troupe)) ]
      "broadcast";
  let payload = Codec.encode proposal_codec (msg_id, body) in
  let _total, proposals = Runtime.call_troupe_gen ctx troupe ~proc_no:0 payload in
  let max_time =
    Seq.fold_left
      (fun acc (reply : Collator.reply) ->
        match reply.Collator.message with
        | Some (Rpc_msg.Ok_result b) -> Float.max acc (Codec.decode Codec.float64 b)
        | Some _ | None -> acc)
      neg_infinity proposals
  in
  if max_time = neg_infinity then raise Collator.Troupe_failed;
  ignore
    (Runtime.call_troupe ctx troupe ~proc_no:1 ~collator:Collator.first_come
       (Codec.encode accept_codec (msg_id, max_time)))
