(* Tests for the simulated network: hosts, CPU accounting, datagram
   delivery, loss/duplication, partitions, multicast, syscall layer. *)

open Circus_sim
open Circus_net

let check_float = Alcotest.(check (float 1e-9))

let make_world ?params () =
  let engine = Engine.create () in
  let net = Net.create engine ?params () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  (engine, net, a, b)

let payload s = Bytes.of_string s

let test_datagram_delivery () =
  let engine, net, a, b = make_world () in
  let sa = Net.udp_bind net a ~port:100 () in
  let sb = Net.udp_bind net b ~port:200 () in
  let got = ref None in
  ignore
    (Host.spawn b (fun () ->
         got := Mailbox.recv ~timeout:10.0 (Net.mailbox sb)));
  ignore
    (Host.spawn a (fun () ->
         Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "hi")));
  Engine.run engine;
  match !got with
  | Some d ->
    Alcotest.(check string) "payload" "hi" (Bytes.to_string d.Net.payload);
    Alcotest.(check bool) "src" true (Addr.equal d.Net.src (Net.socket_addr sa))
  | None -> Alcotest.fail "datagram not delivered"

let test_delivery_to_unbound_port_drops () =
  let engine, net, a, b = make_world () in
  let sa = Net.udp_bind net a ~port:100 () in
  ignore
    (Host.spawn a (fun () ->
         Net.send net ~src:(Net.socket_addr sa)
           ~dst:(Addr.make ~host:(Host.id b) ~port:9999)
           (payload "x")));
  Engine.run engine;
  Alcotest.(check int) "dropped" 1 (Net.stats net).Net.dropped

let test_crash_drops_in_flight () =
  let engine, net, a, b = make_world () in
  let sa = Net.udp_bind net a ~port:100 () in
  let sb = Net.udp_bind net b ~port:200 () in
  ignore
    (Host.spawn a (fun () ->
         Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "x")));
  (* Crash b while the packet is in flight. *)
  ignore (Engine.schedule engine ~delay:0.00001 (fun () -> Host.crash b));
  Engine.run engine;
  Alcotest.(check int) "dropped" 1 (Net.stats net).Net.dropped;
  Alcotest.(check int) "delivered" 0 (Net.stats net).Net.delivered

let test_loss_rate () =
  let engine = Engine.create () in
  let net = Net.create engine ~params:{ Net.default_params with loss = 0.5 } () in
  let a = Net.add_host net () and b = Net.add_host net () in
  let sa = Net.udp_bind net a () in
  let sb = Net.udp_bind net b () in
  ignore
    (Host.spawn a (fun () ->
         for _ = 1 to 1000 do
           Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "x")
         done));
  Engine.run engine;
  let delivered = (Net.stats net).Net.delivered in
  Alcotest.(check bool)
    (Printf.sprintf "roughly half delivered (%d)" delivered)
    true
    (delivered > 400 && delivered < 600)

let test_duplication () =
  let engine = Engine.create () in
  let net = Net.create engine ~params:{ Net.default_params with duplication = 1.0 } () in
  let a = Net.add_host net () and b = Net.add_host net () in
  let sa = Net.udp_bind net a () in
  let sb = Net.udp_bind net b () in
  ignore
    (Host.spawn a (fun () ->
         Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "x")));
  Engine.run engine;
  Alcotest.(check int) "two copies" 2 (Net.stats net).Net.delivered

let test_partition_blocks_and_heals () =
  let engine, net, a, b = make_world () in
  let sa = Net.udp_bind net a ~port:1 () in
  let sb = Net.udp_bind net b ~port:2 () in
  Net.set_partition net [ [ Host.id a ]; [ Host.id b ] ];
  Alcotest.(check bool) "unreachable" false (Net.reachable net (Host.id a) (Host.id b));
  ignore
    (Host.spawn a (fun () ->
         Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "x");
         Fiber.sleep 1.0;
         Net.heal_partition net;
         Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "y")));
  Engine.run engine;
  Alcotest.(check int) "one dropped" 1 (Net.stats net).Net.dropped;
  Alcotest.(check int) "one delivered" 1 (Net.stats net).Net.delivered

let test_multicast () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let sender = Net.add_host net () in
  let receivers = List.init 4 (fun _ -> Net.add_host net ()) in
  let s0 = Net.udp_bind net sender () in
  let socks = List.map (fun h -> Net.udp_bind net h ~port:7 ()) receivers in
  ignore
    (Host.spawn sender (fun () ->
         Net.send_multicast net ~src:(Net.socket_addr s0)
           ~dsts:(List.map Net.socket_addr socks)
           (payload "all")));
  Engine.run engine;
  Alcotest.(check int) "one transmission" 1 (Net.stats net).Net.sent;
  Alcotest.(check int) "four deliveries" 4 (Net.stats net).Net.delivered;
  List.iter
    (fun s -> Alcotest.(check int) "queued" 1 (Mailbox.length (Net.mailbox s)))
    socks

(* Zero jitter and zero per-byte time: every copy sent at one instant
   arrives at one instant.  Such ties still keep one engine event per
   copy and deliver in send order, to every destination. *)
let test_zero_jitter_same_instant () =
  let params = { Net.default_params with jitter_mean = 0.0; per_byte = 0.0 } in
  let engine = Engine.create () in
  let net = Net.create engine ~params () in
  let hosts = List.init 6 (fun _ -> Net.add_host net ()) in
  let socks = List.map (fun h -> Net.udp_bind net h ~port:10 ()) hosts in
  let sa, sb, sc, mc =
    match socks with a :: b :: c :: mc -> (a, b, c, mc) | _ -> assert false
  in
  let src = Net.socket_addr sa in
  List.iter
    (fun (dst, s) -> Net.send net ~src ~dst:(Net.socket_addr dst) (payload s))
    [ (sb, "1"); (sb, "2"); (sb, "3"); (sc, "x") ];
  Alcotest.(check int) "one event per copy" 4 (Engine.pending engine);
  Net.send_multicast net ~src ~dsts:(List.map Net.socket_addr mc) (payload "mc");
  Engine.run engine;
  let drain sock =
    let rec go acc =
      match Mailbox.try_recv (Net.mailbox sock) with
      | Some d -> go (Bytes.to_string d.Net.payload :: acc)
      | None -> List.rev acc
    in
    go []
  in
  Alcotest.(check (list string)) "send order to b" [ "1"; "2"; "3" ] (drain sb);
  Alcotest.(check (list string)) "second destination" [ "x" ] (drain sc);
  Alcotest.(check (list (list string))) "multicast reaches every destination"
    [ [ "mc" ]; [ "mc" ]; [ "mc" ] ] (List.map drain mc)

let test_mtu_enforced () =
  let engine, net, a, _b = make_world () in
  let sa = Net.udp_bind net a () in
  ignore engine;
  Alcotest.(check bool) "raises" true
    (try
       Net.send net ~src:(Net.socket_addr sa)
         ~dst:(Addr.make ~host:1 ~port:1)
         (Bytes.create 5000);
       false
     with Invalid_argument _ -> true)

let test_port_conflict () =
  let engine, net, a, _ = make_world () in
  ignore engine;
  ignore (Net.udp_bind net a ~port:5 ());
  Alcotest.(check bool) "conflict raises" true
    (try ignore (Net.udp_bind net a ~port:5 ()); false with Invalid_argument _ -> true)

(* A port is 16 bits: the socket table packs (host, port) into one int. *)
let test_port_range () =
  let _, net, a, _ = make_world () in
  List.iter
    (fun port ->
      Alcotest.check_raises
        (Printf.sprintf "port %d rejected" port)
        (Invalid_argument (Printf.sprintf "Net.udp_bind: port %d outside 0..65535" port))
        (fun () -> ignore (Net.udp_bind net a ~port ())))
    [ -1; 65536; 1 lsl 20 ];
  List.iter (fun port -> ignore (Net.udp_bind net a ~port ())) [ 0; 65535 ]

let test_host_cpu_serializes () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let h = Net.add_host net () in
  let finish_times = ref [] in
  for _ = 1 to 3 do
    ignore
      (Host.spawn h (fun () ->
           Host.use_cpu h ~kind:`User 1.0;
           finish_times := Engine.now engine :: !finish_times))
  done;
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "serialized" [ 1.0; 2.0; 3.0 ] (List.rev !finish_times)

let test_host_crash_kills_fibers () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let h = Net.add_host net () in
  let progressed = ref 0 in
  ignore
    (Host.spawn h (fun () ->
         for _ = 1 to 10 do
           Fiber.sleep 1.0;
           incr progressed
         done));
  ignore (Engine.schedule engine ~delay:3.5 (fun () -> Host.crash h));
  Engine.run engine;
  Alcotest.(check int) "stopped at crash" 3 !progressed;
  Alcotest.(check bool) "dead" false (Host.is_alive h)

let test_host_restart_incarnation () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let h = Net.add_host net () in
  Alcotest.(check int) "first" 1 (Host.incarnation h);
  Host.crash h;
  Host.restart h;
  Alcotest.(check int) "second" 2 (Host.incarnation h);
  Alcotest.(check bool) "alive" true (Host.is_alive h)

let test_host_restart_hooks_rerun () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let h = Net.add_host net () in
  let boots = ref [] in
  Host.on_restart h (fun () -> boots := (1, Host.incarnation h) :: !boots);
  Host.on_restart h (fun () -> boots := (2, Host.incarnation h) :: !boots);
  Host.crash h;
  Host.restart h;
  Host.crash h;
  Host.restart h;
  (* Boot hooks persist across crashes (unlike crash hooks), run
     oldest-first, and see the bumped incarnation. *)
  Alcotest.(check (list (pair int int)))
    "hooks rerun each restart, in order, after the incarnation bump"
    [ (1, 2); (2, 2); (1, 3); (2, 3) ]
    (List.rev !boots)

let test_clock_offset () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let h = Net.add_host net ~clock_offset:0.25 () in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> ()));
  Engine.run engine;
  check_float "skewed clock" 1.25 (Host.gettimeofday h)

(* ------------------------------------------------------------------ *)
(* Transient fault knobs *)

let test_corruption_discards_at_receiver () =
  (* The datagram layer sits below the UDP checksum: a corrupted copy
     is detected on receipt and thrown away, never delivered. *)
  let engine, net, a, b = make_world () in
  let sa = Net.udp_bind net a ~port:100 () in
  let sb = Net.udp_bind net b ~port:200 () in
  Net.set_corrupt_rate net 1.0;
  let got = ref None in
  ignore (Host.spawn b (fun () -> got := Mailbox.recv ~timeout:10.0 (Net.mailbox sb)));
  ignore
    (Host.spawn a (fun () ->
         Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb)
           (payload "sixteen-byte-msg")));
  Engine.run engine;
  Alcotest.(check bool) "not delivered" true (!got = None);
  Alcotest.(check int) "corrupted counted" 1 (Net.stats net).Net.corrupted;
  Alcotest.(check int) "delivered" 0 (Net.stats net).Net.delivered;
  (* Corruption is its own cause, not folded into plain loss. *)
  Alcotest.(check int) "not double-counted as loss" 0 (Net.stats net).Net.dropped

let test_extra_loss_adds_to_base () =
  let engine, net, a, b = make_world () in
  let sa = Net.udp_bind net a ~port:100 () in
  let sb = Net.udp_bind net b ~port:200 () in
  Net.set_extra_loss net 1.0;
  ignore
    (Host.spawn a (fun () ->
         Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "x")));
  Engine.run engine;
  Alcotest.(check int) "dropped by burst" 1 (Net.stats net).Net.dropped;
  Alcotest.(check int) "nothing delivered" 0 (Net.stats net).Net.delivered

let test_partition_for_auto_heals () =
  let engine, net, a, b = make_world () in
  let sa = Net.udp_bind net a ~port:100 () in
  let sb = Net.udp_bind net b ~port:200 () in
  Net.set_partition_for net [ [ Host.id a ]; [ Host.id b ] ] ~duration:1.0;
  let send () =
    ignore
      (Host.spawn a (fun () ->
           Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "x")))
  in
  send ();  (* inside the episode: dropped *)
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> send ()));  (* after auto-heal *)
  Engine.run engine;
  Alcotest.(check int) "episode dropped one" 1 (Net.stats net).Net.dropped;
  Alcotest.(check int) "healed delivery" 1 (Net.stats net).Net.delivered

let test_partition_for_stale_expiry_loses () =
  let engine, net, a, b = make_world () in
  let sa = Net.udp_bind net a ~port:100 () in
  let sb = Net.udp_bind net b ~port:200 () in
  (* Short episode, then a NEW unbounded partition before the short
     one's expiry: the stale expiry must not heal the newer partition. *)
  Net.set_partition_for net [ [ Host.id a ]; [ Host.id b ] ] ~duration:0.5;
  ignore
    (Engine.schedule engine ~delay:0.25 (fun () ->
         Net.set_partition net [ [ Host.id a ]; [ Host.id b ] ]));
  ignore
    (Engine.schedule engine ~delay:2.0 (fun () ->
         ignore
           (Host.spawn a (fun () ->
                Net.send net ~src:(Net.socket_addr sa) ~dst:(Net.socket_addr sb) (payload "x")))));
  Engine.run engine;
  Alcotest.(check int) "still partitioned after stale expiry" 1 (Net.stats net).Net.dropped;
  Alcotest.(check int) "not delivered" 0 (Net.stats net).Net.delivered

(* A partition is one bit per group: [max_partition_groups] singleton
   groups still isolate every host, one more is refused, naming the
   limit, and leaves the current partition in place. *)
let test_partition_group_limit () =
  let _, net, _, _ = make_world () in
  let most = Net.max_partition_groups in
  let hosts =
    Array.init most (fun i -> Host.id (Net.add_host net ~name:(Printf.sprintf "g%d" i) ()))
  in
  let isolated () =
    Net.reachable net hosts.(0) hosts.(0)
    && (not (Net.reachable net hosts.(0) hosts.(most - 1)))
    && not (Net.reachable net hosts.(most - 2) hosts.(most - 1))
  in
  Net.set_partition net (Array.to_list (Array.map (fun h -> [ h ]) hosts));
  Alcotest.(check bool) "every group isolated" true (isolated ());
  let too_many = List.init (most + 1) (fun i -> [ i ]) in
  let expected = Printf.sprintf "Net.set_partition: %d groups, at most %d" (most + 1) most in
  Alcotest.check_raises "one group too many" (Invalid_argument expected) (fun () ->
      Net.set_partition net too_many);
  Alcotest.(check bool) "partition unchanged" true (isolated ())

(* ------------------------------------------------------------------ *)
(* Syscall layer *)

let test_syscall_costs_metered () =
  let engine, net, a, b = make_world () in
  let env = Syscall.make net () in
  let meter = Meter.create () in
  let sa = Net.udp_bind net a ~port:1 () in
  let sb = Net.udp_bind net b ~port:2 () in
  ignore sb;
  ignore
    (Host.spawn a (fun () ->
         Syscall.sendmsg env ~meter sa ~dst:(Net.socket_addr sb) (payload "x");
         Syscall.setitimer env ~meter a;
         ignore (Syscall.gettimeofday env ~meter a);
         Syscall.sigblock env ~meter a;
         Syscall.compute env ~meter a 0.002));
  Engine.run engine;
  let c = Syscall.default_costs in
  check_float "kernel" (c.Syscall.sendmsg +. c.Syscall.setitimer +. c.Syscall.gettimeofday +. c.Syscall.sigblock)
    (Meter.kernel meter);
  check_float "user" 0.002 (Meter.user meter);
  let by = Meter.by_syscall meter in
  Alcotest.(check int) "four syscalls" 4 (List.length by);
  match List.find_opt (fun (n, _, _) -> n = "sendmsg") by with
  | Some (_, time, count) ->
    check_float "sendmsg time" c.Syscall.sendmsg time;
    Alcotest.(check int) "sendmsg count" 1 count
  | None -> Alcotest.fail "sendmsg not recorded"

let test_syscall_recv_and_select () =
  let engine, net, a, b = make_world () in
  let env = Syscall.make net () in
  let sa = Net.udp_bind net a ~port:1 () in
  let sb = Net.udp_bind net b ~port:2 () in
  let selected = ref false and received = ref false in
  ignore
    (Host.spawn b (fun () ->
         selected := Syscall.select env ~timeout:5.0 [ sb ];
         (match Syscall.recvmsg env ~timeout:1.0 sb with
         | Some d -> received := Bytes.to_string d.Net.payload = "ping"
         | None -> ())));
  ignore
    (Host.spawn a (fun () ->
         Fiber.sleep 0.5;
         Syscall.sendmsg env sa ~dst:(Net.socket_addr sb) (payload "ping")));
  Engine.run engine;
  Alcotest.(check bool) "select fired" true !selected;
  Alcotest.(check bool) "received" true !received

let test_syscall_select_timeout () =
  let engine, net, _a, b = make_world () in
  let env = Syscall.make net () in
  let sb = Net.udp_bind net b ~port:2 () in
  let selected = ref true in
  ignore (Host.spawn b (fun () -> selected := Syscall.select env ~timeout:2.0 [ sb ]));
  Engine.run engine;
  Alcotest.(check bool) "timed out" false !selected

(* A selector's fiber cancelled while parked on it: the select raises
   [Cancelled] once, and its watcher, still on the mailbox until the
   loop closes the selector, wakes nothing afterwards — a send queues
   no engine event. *)
let test_selector_cancelled_while_parked () =
  let engine, net, a, b = make_world () in
  let env = Syscall.make net () in
  let sa = Net.udp_bind net a ~port:1 () in
  let sb = Net.udp_bind net b ~port:2 () in
  let selects = ref 0 and cancelled = ref 0 in
  ignore
    (Host.spawn b (fun () ->
         let sel = Syscall.selector env sb in
         match
           while true do
             Syscall.select_one sel;
             incr selects;
             ignore (Syscall.recvmsg env sb)
           done
         with
         | () -> ()
         | exception Fiber.Cancelled ->
           incr cancelled;
           Syscall.close_selector sel));
  ignore
    (Host.spawn a (fun () ->
         Fiber.sleep 0.5;
         Syscall.sendmsg env sa ~dst:(Net.socket_addr sb) (payload "ping")));
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> Host.crash b));
  Engine.run engine;
  Alcotest.(check int) "one select returned" 1 !selects;
  Alcotest.(check int) "cancelled once" 1 !cancelled;
  let pending = Engine.pending engine in
  Mailbox.send (Net.mailbox sb)
    { Net.src = Net.socket_addr sa;
      dst = Net.socket_addr sb;
      payload = payload "late";
      ctx = Circus_trace.Causal.none };
  Alcotest.(check int) "a later send queues no event" pending (Engine.pending engine)

let () =
  Alcotest.run "circus_net"
    [ ( "datagrams",
        [ Alcotest.test_case "delivery" `Quick test_datagram_delivery;
          Alcotest.test_case "unbound port drops" `Quick test_delivery_to_unbound_port_drops;
          Alcotest.test_case "crash drops in-flight" `Quick test_crash_drops_in_flight;
          Alcotest.test_case "loss rate" `Quick test_loss_rate;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "partition" `Quick test_partition_blocks_and_heals;
          Alcotest.test_case "multicast" `Quick test_multicast;
          Alcotest.test_case "zero jitter: same-instant copies" `Quick
            test_zero_jitter_same_instant;
          Alcotest.test_case "mtu" `Quick test_mtu_enforced;
          Alcotest.test_case "port conflict" `Quick test_port_conflict;
          Alcotest.test_case "port range" `Quick test_port_range ] );
      ( "hosts",
        [ Alcotest.test_case "cpu serializes" `Quick test_host_cpu_serializes;
          Alcotest.test_case "crash kills fibers" `Quick test_host_crash_kills_fibers;
          Alcotest.test_case "restart incarnation" `Quick test_host_restart_incarnation;
          Alcotest.test_case "restart hooks rerun" `Quick test_host_restart_hooks_rerun;
          Alcotest.test_case "clock offset" `Quick test_clock_offset ] );
      ( "faults",
        [ Alcotest.test_case "corruption discards at receiver" `Quick
            test_corruption_discards_at_receiver;
          Alcotest.test_case "extra loss adds to base" `Quick test_extra_loss_adds_to_base;
          Alcotest.test_case "partition episode auto-heals" `Quick test_partition_for_auto_heals;
          Alcotest.test_case "stale expiry is a no-op" `Quick test_partition_for_stale_expiry_loses;
          Alcotest.test_case "partition group limit" `Quick test_partition_group_limit ] );
      ( "syscalls",
        [ Alcotest.test_case "costs metered" `Quick test_syscall_costs_metered;
          Alcotest.test_case "recv and select" `Quick test_syscall_recv_and_select;
          Alcotest.test_case "select timeout" `Quick test_syscall_select_timeout;
          Alcotest.test_case "selector cancelled while parked" `Quick
            test_selector_cancelled_while_parked ] ) ]
