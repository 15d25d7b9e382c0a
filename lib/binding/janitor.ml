open Circus_sim
open Circus_rpc
module Host = Circus_net.Host

let default_probe_timeout = 1.0

let probe_alive ctx (member : Circus_net.Addr.module_addr) =
  match Runtime.call_module ctx member ~proc_no:Runtime.reserved_null_proc Bytes.empty with
  | _ -> true
  | exception
      ( Circus_pairmsg.Endpoint.Crashed _ | Circus_pairmsg.Endpoint.Rejected _
      | Collator.Troupe_failed ) ->
    false
  | exception Fiber.Cancelled ->
    (* The sweep gave up on this probe; being cancelled is not proof of
       life — propagate so the probe fiber dies without answering. *)
    raise Fiber.Cancelled
  | exception _ -> true (* errors other than unreachability are proof of life *)

(* One sweep; returns the number of members removed.  All registered
   members are probed concurrently (a dead member must not stall the
   sweep for the full pairmsg crash timeout), the sweep waits at most
   [probe_timeout], and probes still outstanding at the deadline are
   cancelled and counted as dead. *)
let collect_once ?(probe_timeout = default_probe_timeout) client ctx =
  let rt = Client.runtime client in
  let host = Runtime.host rt in
  let engine = Host.engine host in
  let listing = Client.enumerate client ctx in
  let members =
    List.concat_map
      (fun (name, troupe) -> List.map (fun m -> (name, m)) troupe.Troupe.members)
      listing
  in
  let n = List.length members in
  (* Probe every member concurrently: one dead member must not stall the
     sweep for its full pairmsg crash timeout while the others wait in
     line.  Each probe fiber writes its verdict into [verdicts]; the
     collector waits for all of them or for [probe_timeout], whichever
     comes first. *)
  let verdicts = Array.make (max n 1) None in
  let remaining = ref n in
  let all_done = Condition.create () in
  let probes =
    List.mapi
      (fun i (_name, member) ->
        Host.spawn host ~label:"binding.janitor.probe" (fun () ->
            let probe_ctx = Runtime.detached_ctx rt in
            let alive = probe_alive probe_ctx member in
            verdicts.(i) <- Some alive;
            decr remaining;
            if !remaining = 0 then Condition.broadcast all_done))
      members
  in
  let deadline = Engine.now engine +. probe_timeout in
  let rec wait () =
    if !remaining > 0 then begin
      let left = deadline -. Engine.now engine in
      if left > 0.0 then
        match Condition.await_timeout engine all_done left with
        | `Signalled -> wait ()
        | `Timeout -> ()
    end
  in
  wait ();
  (* Cancel the stragglers before reading the verdicts: a probe that has
     not answered within [probe_timeout] counts as dead, and the cancel
     guarantees it cannot write a late verdict between our read and the
     removal below. *)
  List.iter Fiber.cancel probes;
  let removed = ref 0 in
  List.iteri
    (fun i (name, member) ->
      let alive = match verdicts.(i) with Some a -> a | None -> false in
      if not alive then begin
        ignore (Client.remove_member client ctx ~name member);
        incr removed
      end)
    members;
  !removed

let spawn client ?(period = 5.0) ?(probe_timeout = default_probe_timeout) () =
  let rt = Client.runtime client in
  let host = Runtime.host rt in
  Host.spawn host ~label:"binding.janitor" (fun () ->
      while Host.is_alive host do
        Fiber.sleep period;
        let ctx = Runtime.detached_ctx rt in
        try ignore (collect_once ~probe_timeout client ctx)
        with
        | Fiber.Cancelled -> raise Fiber.Cancelled
        | _ -> ()
      done)
