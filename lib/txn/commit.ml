open Circus_sim
open Circus_rpc
module Codec = Circus_wire.Codec
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event

let bool_codec = Codec.bool

let export_coordinator rt ?timeout () =
  ignore timeout;
  Runtime.export_collated rt (fun _ctx ~proc_no:_ ~expected votes ->
      (* All server troupe members must be ready; a missing vote means a
         member is deadlocked or crashed, so the transaction aborts. *)
      let decoded = List.map (Codec.decode bool_codec) votes in
      let verdict = List.length decoded = expected && List.for_all Fun.id decoded in
      if Trace.on () then
        Trace.emit ~cat:"txn"
          ~host:(Circus_net.Host.id (Runtime.host rt))
          ~args:
            [ ("expected", Tev.Int expected);
              ("votes", Tev.Int (List.length decoded));
              ("verdict", Tev.Bool verdict) ]
          "coordinate";
      Codec.encode bool_codec verdict)

(* Server-member side: report readiness to the client troupe's
   coordinator and learn the verdict.  Blocks until every server member
   has reported or the coordinator gave up. *)
let ready_to_commit ctx ~coordinator ready =
  let answer = Runtime.call_troupe ctx coordinator ~proc_no:0 (Codec.encode bool_codec ready) in
  Codec.decode bool_codec answer

type outcome = Committed | Aborted of string

let trace_txn ctx name args =
  if Trace.on () then
    Trace.emit ~cat:"txn"
      ~host:(Circus_net.Host.id (Runtime.host (Runtime.runtime ctx)))
      ~args name

let attempt ctx ~store ~coordinator body =
  let txn = Lightweight.begin_txn store in
  trace_txn ctx "begin" [ ("txn", Tev.Int (Lightweight.txn_id txn)) ];
  let vote, result =
    match body txn with
    | result -> (true, Some result)
    | exception Lightweight.Deadlock -> (false, None)
    | exception _ -> (false, None)
  in
  trace_txn ctx "vote" [ ("txn", Tev.Int (Lightweight.txn_id txn)); ("ready", Tev.Bool vote) ];
  let verdict =
    match ready_to_commit ctx ~coordinator vote with
    | v -> v
    | exception _ ->
      (* The whole client troupe is unreachable: abort locally. *)
      false
  in
  if verdict && vote then begin
    Lightweight.commit store txn;
    trace_txn ctx "commit" [ ("txn", Tev.Int (Lightweight.txn_id txn)) ];
    match result with Some r -> (Committed, Some r) | None -> assert false
  end
  else begin
    Lightweight.abort store txn;
    let reason = if vote then "coordinator refused" else "local deadlock" in
    trace_txn ctx "abort"
      [ ("txn", Tev.Int (Lightweight.txn_id txn)); ("reason", Tev.Str reason) ];
    (Aborted reason, None)
  end

let run ctx ~store ~coordinator ?backoff ?(max_attempts = 8) body =
  let rt = Runtime.runtime ctx in
  let backoff =
    match backoff with
    | Some b -> b
    | None -> Backoff.create (Prng.split (Engine.prng (Circus_net.Host.engine (Runtime.host rt))))
  in
  let rec loop attempt_no =
    match attempt ctx ~store ~coordinator body with
    | Committed, Some result -> result
    | Committed, None -> assert false
    | Aborted reason, _ ->
      if attempt_no >= max_attempts then
        raise (Runtime.Remote_error (Printf.sprintf "transaction failed after %d attempts: %s" attempt_no reason))
      else begin
        if Trace.on () then Trace.incr "txn.retries";
        Fiber.sleep (Backoff.next_delay backoff);
        loop (attempt_no + 1)
      end
  in
  loop 1
