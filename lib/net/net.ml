open Circus_sim
module Trace = Circus_trace.Trace
module Tev = Circus_trace.Event
module Causal = Circus_trace.Causal

type params = {
  propagation : float;
  per_byte : float;
  jitter_mean : float;
  loss : float;
  duplication : float;
  mtu : int;
}

let default_params =
  { propagation = 0.0002;
    per_byte = 0.8e-6;
    jitter_mean = 0.0003;
    loss = 0.0;
    duplication = 0.0;
    mtu = 1472 }

(* [ctx] is out-of-band causal metadata (a [Circus_trace.Causal.ctx]):
   it rides the in-flight datagram but contributes zero wire bytes —
   [payload] alone sizes every charge, MTU check, and transit delay —
   so byte-pinned goldens are unaffected.  0 = no context. *)
type datagram = { src : Addr.t; dst : Addr.t; payload : bytes; ctx : int }

type socket = {
  addr : Addr.t;
  owner : Host.t;
  mailbox : datagram Mailbox.t;
  mutable closed : bool;
}

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable bytes_sent : int;
}

(* Transient fault knobs layered on top of [params] by the fault
   injector ({!Circus_fault}).  All zero by default; every knob is
   strictly gated on [> 0.0] before touching the PRNG so that a
   zero-fault run draws exactly the same stream as a build without this
   record — equal seeds stay byte-identical. *)
type faults = {
  mutable extra_loss : float;
  mutable extra_duplication : float;
  mutable extra_delay_mean : float;
  mutable corrupt_rate : float;
}

(* Partition state, precomputed for the per-datagram [reachable] test.

   [set_partition] folds the group lists into one per-host bitmask of
   group memberships: hosts are mutually reachable iff their masks
   intersect, which makes [reachable] two array loads and an [land]
   instead of the old O(groups x members) list scan per datagram.
   Masks represent overlapping groups exactly, one bit per group, so a
   partition has at most [max_partition_groups] groups. *)
type partition =
  | No_partition
  | Masks of int array  (* host_id -> bitmask of containing groups *)

type t = {
  engine : Engine.t;
  params : params;
  prng : Prng.t;
  (* Host ids are dense (allocated sequentially from 0), so the host
     table is a flat array indexed by id: O(1) lookup instead of the
     old O(n) list scan on every socket/runtime operation. *)
  mutable host_table : Host.t array;  (* first [next_host_id] slots live *)
  mutable next_host_id : int;
  (* Bound sockets by [port_key]: one int, so delivering a datagram
     neither builds a tuple nor hashes one polymorphically. *)
  ports : socket Itab.t;
  ephemeral : (Addr.host_id, int ref) Hashtbl.t;
  mutable partition : partition;
  (* Generation counter for time-bounded partitions: every
     [set_partition]/[heal_partition] bumps it, and the timer that
     auto-heals a [set_partition_for] episode only fires if the epoch is
     still the one it captured — a newer partition or an explicit heal
     wins over a stale episode's expiry. *)
  mutable partition_epoch : int;
  faults : faults;
  stats : stats;
  (* Cross-shard escape hatch for the parallel cluster: consulted once
     per surviving copy with its precomputed arrival instant.  [true]
     means the copy was claimed (its destination lives on another
     logical process and will be injected there at a barrier); [false]
     falls through to local delivery.  All fault draws have already
     happened on this net's PRNG by then, so routing never perturbs
     the random stream. *)
  mutable router : (datagram -> arrival:float -> bool) option;
}

let create engine ?(params = default_params) () =
  { engine;
    params;
    prng = Prng.split (Engine.prng engine);
    host_table = [||];
    next_host_id = 0;
    ports = Itab.create ~initial:64 ();
    ephemeral = Hashtbl.create 16;
    partition = No_partition;
    partition_epoch = 0;
    faults =
      { extra_loss = 0.0; extra_duplication = 0.0; extra_delay_mean = 0.0; corrupt_rate = 0.0 };
    stats =
      { sent = 0; delivered = 0; dropped = 0; duplicated = 0; corrupted = 0; bytes_sent = 0 };
    router = None }

let engine t = t.engine
let params t = t.params

(* Host ids are dense by default, but a cluster sharded over several
   per-LP nets places globally-numbered hosts into each shard, leaving
   gaps.  Gap slots hold whatever host served as the last grow filler;
   a slot is live iff the host it holds carries the slot's own id, so
   lookup stays two loads and a compare. *)
let add_host t ?id ?name ?clock_offset ?attributes () =
  let id =
    match id with
    | None -> t.next_host_id
    | Some i ->
      if i < t.next_host_id then
        invalid_arg (Printf.sprintf "Net.add_host: id %d already allocated" i);
      i
  in
  t.next_host_id <- id + 1;
  let host = Host.create t.engine ~id ?name ?clock_offset ?attributes () in
  if id >= Array.length t.host_table then begin
    let old = Array.length t.host_table in
    let grown = Array.make (max 8 (max (2 * old) (id + 1))) host in
    Array.blit t.host_table 0 grown 0 old;
    t.host_table <- grown
  end;
  t.host_table.(id) <- host;
  host

let host t id =
  if id >= 0 && id < t.next_host_id then begin
    let h = t.host_table.(id) in
    if Host.id h = id then h else raise Not_found
  end
  else raise Not_found

let hosts t =
  let acc = ref [] in
  for id = t.next_host_id - 1 downto 0 do
    let h = t.host_table.(id) in
    if Host.id h = id then acc := h :: !acc
  done;
  !acc

let close sock =
  if not sock.closed then begin
    sock.closed <- true;
    Mailbox.clear sock.mailbox
  end

let max_port = 0xFFFF

(* A port is 16 bits, so (host, port) packs into one non-negative int. *)
let[@inline] port_key host port = (host lsl 16) lor port

let udp_bind t host ?port () =
  if not (Host.is_alive host) then invalid_arg "Net.udp_bind: host is dead";
  let assign () =
    let counter =
      match Hashtbl.find_opt t.ephemeral (Host.id host) with
      | Some c -> c
      | None ->
        let c = ref 1024 in
        Hashtbl.add t.ephemeral (Host.id host) c;
        c
    in
    let rec free () =
      incr counter;
      if Itab.mem t.ports (port_key (Host.id host) !counter) then free () else !counter
    in
    free ()
  in
  let port = match port with Some p -> p | None -> assign () in
  if port < 0 || port > max_port then
    invalid_arg (Printf.sprintf "Net.udp_bind: port %d outside 0..%d" port max_port);
  let key = port_key (Host.id host) port in
  (match Itab.find_opt t.ports key with
  | Some existing when not existing.closed ->
    invalid_arg (Printf.sprintf "Net.udp_bind: port %d in use on host %d" port (Host.id host))
  | Some _ | None -> ());
  let sock =
    { addr = Addr.make ~host:(Host.id host) ~port;
      owner = host;
      mailbox = Mailbox.create t.engine;
      closed = false }
  in
  Itab.replace t.ports key sock;
  Host.on_crash host (fun () -> close sock);
  sock

let socket_addr sock = sock.addr
let socket_host sock = sock.owner
let mailbox sock = sock.mailbox

let max_partition_groups = Sys.int_size - 1

let set_partition t groups =
  let n_groups = List.length groups in
  if n_groups > max_partition_groups then
    invalid_arg
      (Printf.sprintf "Net.set_partition: %d groups, at most %d" n_groups max_partition_groups);
  if Trace.on () then Trace.emit ~cat:"net" ~args:[ ("groups", Tev.Int n_groups) ] "partition";
  t.partition_epoch <- t.partition_epoch + 1;
  (* Size the mask table to cover both registered hosts and any ids
     named in the groups (the API allows not-yet-added ids). *)
  let max_id =
    List.fold_left (List.fold_left (fun acc id -> max acc id)) (t.next_host_id - 1) groups
  in
  let masks = Array.make (max_id + 1) 0 in
  List.iteri
    (fun gi members ->
      let bit = 1 lsl gi in
      List.iter (fun id -> if id >= 0 then masks.(id) <- masks.(id) lor bit) members)
    groups;
  t.partition <- Masks masks

let heal_partition t =
  if Trace.on () then Trace.emit ~cat:"net" "heal";
  t.partition_epoch <- t.partition_epoch + 1;
  t.partition <- No_partition

let set_partition_for t groups ~duration =
  if duration <= 0.0 then invalid_arg "Net.set_partition_for: duration must be positive";
  set_partition t groups;
  let epoch = t.partition_epoch in
  ignore
    (Engine.schedule t.engine ~delay:duration (fun () ->
         (* Only heal if nobody re-partitioned or healed in between. *)
         if t.partition_epoch = epoch then heal_partition t))

let reachable t a b =
  match t.partition with
  | No_partition -> true
  | Masks masks ->
    a = b
    || (a >= 0 && b >= 0
       && a < Array.length masks
       && b < Array.length masks
       && masks.(a) land masks.(b) <> 0)

let stats t = t.stats

(* {2 Transient fault knobs} *)

let clamp_rate name r =
  if r < 0.0 || r > 1.0 then invalid_arg (Printf.sprintf "Net.%s: rate out of [0,1]" name);
  r

let set_extra_loss t r = t.faults.extra_loss <- clamp_rate "set_extra_loss" r
let set_extra_duplication t r = t.faults.extra_duplication <- clamp_rate "set_extra_duplication" r

let set_extra_delay_mean t m =
  if m < 0.0 then invalid_arg "Net.set_extra_delay_mean: negative mean";
  t.faults.extra_delay_mean <- m

let set_corrupt_rate t r = t.faults.corrupt_rate <- clamp_rate "set_corrupt_rate" r
let extra_loss t = t.faults.extra_loss

(* Datagram lifecycle events share one argument shape so trace
   assertions can follow a packet across send/dup/drop/deliver. *)
let trace_dgram t name ~(dgram : datagram) ~reason =
  if Trace.on () then begin
    let args =
      [ ("src", Tev.Int dgram.src.Addr.host);
        ("sport", Tev.Int dgram.src.Addr.port);
        ("dst", Tev.Int dgram.dst.Addr.host);
        ("dport", Tev.Int dgram.dst.Addr.port);
        ("len", Tev.Int (Bytes.length dgram.payload)) ]
    in
    let args = match reason with Some r -> ("reason", Tev.Str r) :: args | None -> args in
    let host = if name = "deliver" then dgram.dst.Addr.host else dgram.src.Addr.host in
    Trace.emit ~cat:"net" ~host ~args name;
    Trace.incr ("net." ^ name)
  end;
  ignore t

(* Hand one arrived copy to its destination socket.  Liveness and
   binding are checked at arrival time: a host that crashes in flight
   never sees the packet. *)
let find_socket t (dst : Addr.t) =
  if dst.port < 0 || dst.port > max_port || dst.host < 0 then None
  else Itab.find_opt t.ports (port_key dst.host dst.port)

let deliver_now t dgram =
  match find_socket t dgram.dst with
  | Some sock when (not sock.closed) && Host.is_alive sock.owner ->
    t.stats.delivered <- t.stats.delivered + 1;
    trace_dgram t "deliver" ~dgram ~reason:None;
    (* Advance the causal chain onto the receiving host.  Each copy
       gets its own "recv" span (parented on the sender's "xmit"), on
       a fresh record so duplicated copies don't chain through each
       other.  The ambient context is left alone: delivery runs in an
       engine callback, possibly inline on an unrelated fiber's
       stack. *)
    let dgram =
      if Causal.on () && dgram.ctx <> Causal.none then
        match
          Causal.step ~parent:dgram.ctx ~set_ambient:false ~host:dgram.dst.Addr.host "recv"
        with
        | c when c <> Causal.none -> { dgram with ctx = c }
        | _ -> dgram
      else dgram
    in
    Mailbox.send sock.mailbox dgram
  | Some _ | None ->
    t.stats.dropped <- t.stats.dropped + 1;
    trace_dgram t "drop" ~dgram ~reason:(Some "unbound")

(* Schedule delivery of one copy.  A router (parallel cluster) may
   claim the copy for another logical process first. *)
let deliver_copy t dgram delay =
  let arrival = Engine.now t.engine +. delay in
  let routed = match t.router with Some f -> f dgram ~arrival | None -> false in
  if not routed then
    ignore (Engine.schedule_abs t.engine ~at:arrival (fun () -> deliver_now t dgram))

let set_router t f = t.router <- f
let deliver_inbound t dgram = deliver_now t dgram

let transit_delay t len =
  t.params.propagation
  +. (t.params.per_byte *. float_of_int len)
  +. Prng.exponential t.prng ~mean:t.params.jitter_mean

(* A corrupted copy is discarded at the receiving stack.  The paper's
   protocols run over checksummed UDP, and this layer models the
   datagram service from below that checksum: in-flight bit rot is
   detected on receipt and the datagram thrown away, so end-to-end it
   manifests as loss — but with its own cause in the stats and trace,
   and drawn per delivered copy (after duplication), not per send. *)
let corrupt_copy t (dgram : datagram) =
  t.stats.corrupted <- t.stats.corrupted + 1;
  trace_dgram t "corrupt" ~dgram ~reason:(Some "checksum")

(* [Float.min 1.0 p], NaN included, written out so the probability
   stays an unboxed local. *)
let[@inline] at_most_one p = if p > 1.0 then 1.0 else p

let send_one t dgram =
  (* Stamp the sender's causal context (one "xmit" span per
     transmission attempt — losses then show up as a missing "recv").
     Runs on the sending fiber, so the ambient context is the
     request being served. *)
  let dgram =
    if Causal.on () then
      match Causal.step ~host:dgram.src.Addr.host "xmit" with
      | c when c <> Causal.none -> { dgram with ctx = c }
      | _ -> dgram
    else dgram
  in
  let len = Bytes.length dgram.payload in
  trace_dgram t "send" ~dgram ~reason:None;
  if not (reachable t dgram.src.Addr.host dgram.dst.Addr.host) then begin
    t.stats.dropped <- t.stats.dropped + 1;
    trace_dgram t "drop" ~dgram ~reason:(Some "partition")
  end
  else begin
    (* One draw per decision regardless of the fault knobs: the knobs
       fold into the probability of the draw that already happens, and
       knob-only draws (corruption, extra delay) are gated on the knob
       being nonzero.  Zero-fault runs therefore consume the PRNG stream
       exactly as before — the byte-identical-trace oracle holds. *)
    let p_dup = at_most_one (t.params.duplication +. t.faults.extra_duplication) in
    let copies = if Prng.bool t.prng ~p:p_dup then 2 else 1 in
    if copies = 2 then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      trace_dgram t "dup" ~dgram ~reason:None
    end;
    let p_loss = at_most_one (t.params.loss +. t.faults.extra_loss) in
    for _ = 1 to copies do
      if Prng.bool t.prng ~p:p_loss then begin
        t.stats.dropped <- t.stats.dropped + 1;
        trace_dgram t "drop" ~dgram ~reason:(Some "loss")
      end
      else if t.faults.corrupt_rate > 0.0 && Prng.bool t.prng ~p:t.faults.corrupt_rate then
        corrupt_copy t dgram
      else begin
        let delay = transit_delay t len in
        let delay =
          if t.faults.extra_delay_mean > 0.0 then
            delay +. Prng.exponential t.prng ~mean:t.faults.extra_delay_mean
          else delay
        in
        deliver_copy t dgram delay
      end
    done
  end

let check_mtu t payload =
  if Bytes.length payload > t.params.mtu then
    invalid_arg
      (Printf.sprintf "Net.send: payload %d exceeds MTU %d" (Bytes.length payload) t.params.mtu)

let send t ~src ~dst payload =
  check_mtu t payload;
  t.stats.sent <- t.stats.sent + 1;
  t.stats.bytes_sent <- t.stats.bytes_sent + Bytes.length payload;
  send_one t { src; dst; payload; ctx = Causal.none }

let send_multicast t ~src ~dsts payload =
  check_mtu t payload;
  t.stats.sent <- t.stats.sent + 1;
  t.stats.bytes_sent <- t.stats.bytes_sent + Bytes.length payload;
  List.iter (fun dst -> send_one t { src; dst; payload; ctx = Causal.none }) dsts
