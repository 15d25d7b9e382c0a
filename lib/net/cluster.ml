(* One simulated internetwork sharded over the logical processes of a
   Parallel.t.

   Each LP owns a full Net.t (hosts, sockets, partition masks, fault
   knobs, stats) on its own engine.  Host ids are allocated globally
   by the cluster and passed down with [Net.add_host ~id], so an
   address names the same host no matter which shard looks at it.
   A datagram whose destination lives on another shard is claimed by
   the sender net's router *after* every sender-side decision — the
   reachability check against the sender's partition masks and the
   loss/duplication/corruption/jitter draws on the sender's PRNG — and
   crosses over as a Parallel.post carrying its precomputed arrival
   instant; the destination shard injects it at a barrier and delivers
   through the normal arrival-time checks (liveness, binding).

   The lookahead window is [params.propagation]: every transit delay
   is propagation + per-byte + jitter (+ non-negative fault delay), so
   no cross-shard copy can arrive sooner than the propagation floor —
   exactly the conservative bound Parallel needs.

   Partition and fault state is per-shard.  Because only the sender's
   view gates a send, shards stay consistent as long as they apply the
   same change at the same simulated time — which is how the fault
   injector drives them (one filtered plan per shard, on that shard's
   engine).  Setup-time helpers below broadcast to every shard. *)

open Circus_sim

type t = {
  par : Parallel.t;
  nets : Net.t array;
  mutable placement : int array;  (* global host id -> owning lp; -1 = unallocated *)
  mutable next_host_id : int;
}

let create ?seed ?(params = Net.default_params) ~lps () =
  if lps < 1 then invalid_arg "Cluster.create: lps < 1";
  if not (params.Net.propagation > 0.0) then
    invalid_arg "Cluster.create: propagation must be positive (it is the lookahead)";
  let par = Parallel.create ?seed ~lps ~lookahead:params.Net.propagation () in
  let nets = Array.init lps (fun i -> Net.create (Parallel.engine par i) ~params ()) in
  let t = { par; nets; placement = Array.make 64 (-1); next_host_id = 0 } in
  Array.iteri
    (fun i net ->
      Net.set_router net
        (Some
           (fun dgram ~arrival ->
             let dst = dgram.Net.dst.Addr.host in
             let owner =
               if dst >= 0 && dst < t.next_host_id then t.placement.(dst) else -1
             in
             if owner >= 0 && owner <> i then begin
               let dst_net = t.nets.(owner) in
               Parallel.post t.par ~src:i ~dst:owner ~at:arrival (fun () ->
                   Net.deliver_inbound dst_net dgram);
               true
             end
             else false)))
    nets;
  t

let lp_count t = Array.length t.nets
let net t i = t.nets.(i)
let engine t i = Parallel.engine t.par i

let add_host t ?lp ?name ?clock_offset ?attributes () =
  let k = Array.length t.nets in
  let id = t.next_host_id in
  let lp =
    match lp with
    | None -> id mod k
    | Some l ->
      if l < 0 || l >= k then invalid_arg "Cluster.add_host: lp out of range";
      l
  in
  t.next_host_id <- id + 1;
  if id >= Array.length t.placement then begin
    let old = Array.length t.placement in
    let grown = Array.make (max 64 (2 * old)) (-1) in
    Array.blit t.placement 0 grown 0 old;
    t.placement <- grown
  end;
  t.placement.(id) <- lp;
  Net.add_host t.nets.(lp) ~id ?name ?clock_offset ?attributes ()

let lp_of_host t id =
  if id >= 0 && id < t.next_host_id && t.placement.(id) >= 0 then t.placement.(id)
  else raise Not_found

let net_of_host t id = t.nets.(lp_of_host t id)
let host t id = Net.host (net_of_host t id) id
let run ?until ?max_events ?domains t = Parallel.run ?until ?max_events ?domains t.par
let executed t = Parallel.executed t.par
let now t = Parallel.now t.par
let enable_tracing ?capacity ?cats ?quiet t = Parallel.enable_tracing ?capacity ?cats ?quiet t.par
let with_lp t i f = Parallel.with_lp t.par i f
let merged_events t = Parallel.merged_events t.par
let merged_dropped t = Parallel.merged_dropped t.par

let stats t =
  let acc =
    { Net.sent = 0; delivered = 0; dropped = 0; duplicated = 0; corrupted = 0; bytes_sent = 0 }
  in
  Array.iter
    (fun n ->
      let s = Net.stats n in
      acc.Net.sent <- acc.Net.sent + s.Net.sent;
      acc.Net.delivered <- acc.Net.delivered + s.Net.delivered;
      acc.Net.dropped <- acc.Net.dropped + s.Net.dropped;
      acc.Net.duplicated <- acc.Net.duplicated + s.Net.duplicated;
      acc.Net.corrupted <- acc.Net.corrupted + s.Net.corrupted;
      acc.Net.bytes_sent <- acc.Net.bytes_sent + s.Net.bytes_sent)
    t.nets;
  acc
