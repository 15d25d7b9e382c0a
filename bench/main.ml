(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, printing the paper's published numbers alongside
   the simulated measurements.

   Run with: dune exec bench/main.exe (--help lists the options)

   CI runs [--smoke --json out.json]: a sub-minute pass over the
   Table 4.1 experiment with reduced iteration counts that writes the
   measured rows (and the paper's published numbers) as JSON, uploaded
   as a build artifact so regressions in the simulated performance
   model show up in the workflow run. *)

open Circus_workloads

let line = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table 4.1 — published numbers and JSON export live in Table_json,
   shared with the golden determinism test. *)

let print_table_4_1 rows =
  section "Table 4.1 — Performance of UDP, TCP, and Circus (ms per call)";
  Printf.printf "%-12s | %18s | %18s | %18s | %18s\n" "replication" "real time"
    "total cpu" "user cpu" "kernel cpu";
  Printf.printf "%-12s | %8s  %8s | %8s  %8s | %8s  %8s | %8s  %8s\n" "" "paper" "here"
    "paper" "here" "paper" "here" "paper" "here";
  List.iter
    (fun (row : Workloads.cpu_row) ->
      let paper_real, paper_total, paper_user, paper_kernel =
        match Table_json.paper_4_1_row row.Workloads.label with
        | Some (r, t, u, k) -> (r, t, u, k)
        | None -> (nan, nan, nan, nan)
      in
      Printf.printf "%-12s | %8.1f  %8.1f | %8.1f  %8.1f | %8.1f  %8.1f | %8.1f  %8.1f\n"
        row.Workloads.label paper_real row.Workloads.real_ms paper_total
        row.Workloads.total_cpu_ms paper_user row.Workloads.user_cpu_ms paper_kernel
        row.Workloads.kernel_cpu_ms)
    rows;
  print_endline
    "shape checks: TCP beats UDP; Circus(1) ~2x UDP; every added member adds a\n\
     roughly constant increment to each column (linear growth, Figure 4.8)."

(* ------------------------------------------------------------------ *)
(* Table 4.2 *)

let paper_4_2 =
  [ ("sendmsg", 8.1); ("recvmsg", 2.8); ("select", 1.8); ("setitimer", 1.2);
    ("gettimeofday", 0.7); ("sigblock", 0.4) ]

let print_table_4_2 measured =
  section "Table 4.2 — CPU time for 4.2BSD system calls used in Circus (ms per call)";
  Printf.printf "%-14s | %8s | %8s\n" "system call" "paper" "here";
  List.iter
    (fun (name, paper) ->
      let here = match List.assoc_opt name measured with Some v -> v | None -> nan in
      Printf.printf "%-14s | %8.1f | %8.1f\n" name paper here)
    paper_4_2

(* ------------------------------------------------------------------ *)
(* Table 4.3 *)

(* Published percentages for the sendmsg column (the dominant cost; the
   paper's point is that these six calls account for more than half of
   the total CPU time, with sendmsg the biggest share, growing with the
   degree of replication). *)
let paper_4_3_sendmsg = [ (1, 27.2); (2, 28.8); (3, 32.5); (4, 32.9); (5, 33.0) ]

let print_table_4_3 (circus_rows : Workloads.cpu_row list) =
  section "Table 4.3 — Execution profile for Circus replicated procedure calls";
  Printf.printf "%-12s | %8s %8s | %10s | %s\n" "replication" "sendmsg%" "paper"
    "six calls%" "top syscalls (% of total cpu)";
  List.iteri
    (fun i (row : Workloads.cpu_row) ->
      let full = row.Workloads.total_cpu_ms in
      let shares =
        List.map
          (fun (name, seconds, _) ->
            (name, 100.0 *. (1000.0 *. seconds) /. (full *. 60.0)))
          row.Workloads.profile
      in
      (* profile accumulates over 60 measured iterations; hoist the
         per-syscall shares into one table rather than a List.assoc
         scan per lookup below *)
      let share_tbl = Hashtbl.create 16 in
      List.iter (fun (name, v) -> Hashtbl.replace share_tbl name v) shares;
      let share name =
        match Hashtbl.find_opt share_tbl name with Some v -> v | None -> 0.0
      in
      let six =
        List.fold_left
          (fun acc name -> acc +. share name)
          0.0
          [ "sendmsg"; "recvmsg"; "select"; "setitimer"; "gettimeofday"; "sigblock" ]
      in
      let top =
        List.sort (fun (_, a) (_, b) -> Float.compare b a) shares
        |> List.filteri (fun i _ -> i < 4)
        |> List.map (fun (n, v) -> Printf.sprintf "%s %.1f" n v)
        |> String.concat ", "
      in
      let paper = match List.assoc_opt (i + 1) paper_4_3_sendmsg with Some v -> v | None -> nan in
      Printf.printf "%-12s | %8.1f %8.1f | %10.1f | %s\n" row.Workloads.label
        (share "sendmsg") paper six top)
    circus_rows;
  print_endline
    "shape checks: the six system calls account for more than half the CPU time;\n\
     sendmsg is the largest single cost and its share grows with the troupe size."

(* ------------------------------------------------------------------ *)
(* Figure 4.8 *)

let print_figure_4_8 unicast multicast =
  section "Figure 4.8 — Performance of Circus replicated procedure calls (ms per call)";
  Printf.printf "%-12s | %16s | %16s | %16s\n" "troupe size" "point-to-point"
    "multicast" "Hn model (§4.4.2)";
  let r =
    (* calibrate the theoretical curve to the measured one-member round trip *)
    match unicast with
    | (row : Workloads.cpu_row) :: _ -> row.Workloads.real_ms
    | [] -> nan
  in
  List.iteri
    (fun i ((u : Workloads.cpu_row), (m : Workloads.cpu_row)) ->
      let n = i + 1 in
      let hn = Circus_analysis.Analysis.harmonic n *. r in
      Printf.printf "%-12d | %16.1f | %16.1f | %16.1f\n" n u.Workloads.real_ms
        m.Workloads.real_ms hn)
    (List.combine unicast multicast);
  print_endline
    "shape checks: point-to-point grows linearly with the troupe size (the paper's\n\
     measured curve); multicast removes the per-member sendmsg and grows much more\n\
     slowly; the idealized model of SS4.4.2 grows only logarithmically (Hn x r)."

(* ------------------------------------------------------------------ *)
(* §4.4.2 *)

let print_theorem_4_3 rows =
  section "SS4.4.2 — E[max of n exponential round trips] = Hn x r (Theorem 4.3)";
  Printf.printf "%-6s | %14s | %14s | %8s\n" "n" "Hn x r (ms)" "simulated (ms)" "error";
  List.iter
    (fun (n, expected, measured) ->
      Printf.printf "%-6d | %14.2f | %14.2f | %7.2f%%\n" n expected measured
        (100.0 *. abs_float (measured -. expected) /. expected))
    rows

(* ------------------------------------------------------------------ *)
(* Eq. 5.1 *)

let print_eq_5_1 rows =
  section "Eq. 5.1 — P[deadlock] = 1 - (1/k!)^(n-1) for the troupe commit protocol";
  Printf.printf "%-10s %-12s | %10s | %10s\n" "members n" "conflicts k" "formula" "simulated";
  List.iter
    (fun (members, conflicts, formula, measured) ->
      Printf.printf "%-10d %-12d | %10.4f | %10.4f\n" members conflicts formula measured)
    rows;
  print_endline
    "shape check: the probability rises steeply with both n and k — the paper's\n\
     starvation warning for the optimistic protocol under conflict (SS5.3.1)."

(* ------------------------------------------------------------------ *)
(* Figure 5.1 *)

let print_ordered_broadcast (r : Workloads.broadcast_result) =
  section "Figure 5.1 — the ordered broadcast protocol";
  Printf.printf
    "%d members with skewed clocks, %d concurrent broadcasters, %d messages\n"
    r.Workloads.members r.Workloads.broadcasters r.Workloads.messages;
  Printf.printf "identical delivery order at every member: %b\n" r.Workloads.identical_order;
  Printf.printf "mean broadcast latency: %.2f ms (two replicated-call phases)\n"
    r.Workloads.mean_latency_ms

(* ------------------------------------------------------------------ *)
(* Figure 6.3 *)

let print_availability rows replacements =
  section "Figure 6.3 / Eq. 6.1 — troupe availability (birth-death model)";
  print_endline "member lifetime 1/lambda = 1000 s, replacement time 1/mu = 100 s:";
  Printf.printf "%-8s | %12s | %12s\n" "members" "Eq. 6.1" "simulated";
  List.iter
    (fun (n, analytic, simulated) ->
      Printf.printf "%-8d | %12.6f | %12.6f\n" n analytic simulated)
    rows;
  section "Eq. 6.2 — replacement time needed for 99.9% availability (lifetime 1 h)";
  Printf.printf "%-8s | %16s | %s\n" "members" "max repair (s)" "note";
  List.iter
    (fun (n, repair) ->
      let note =
        match n with
        | 3 -> "the paper's example: 6 min 40 s = lifetime/9"
        | 5 -> "the paper's example: 20 min = lifetime/3"
        | _ -> ""
      in
      Printf.printf "%-8d | %16.1f | %s\n" n repair note)
    replacements

(* ------------------------------------------------------------------ *)
(* Ablations *)

let print_waiting_policy_ablation rows =
  section "Ablation — client waiting policies with one slow member (§4.3.4)";
  print_endline "troupe of 3 echo servers; member 2 takes an extra 50 ms per call:";
  Printf.printf "%-28s | %16s\n" "collator" "mean latency";
  List.iter
    (fun (r : Workloads.policy_row) ->
      Printf.printf "%-28s | %13.1f ms\n" r.Workloads.policy_name r.Workloads.mean_latency_ms_p)
    rows;
  print_endline
    "shape checks: with unanimous collation the execution time of the program as a\n\
     whole is determined by the slowest member of each troupe; first-come is\n\
     governed by the fastest member (SS4.3.4)."

let print_cc_ablation rows =
  section "Ablation — troupe commit protocol vs ordered broadcast under conflict (§5.5)";
  print_endline "k concurrent transactions incrementing one hot key, 2-member troupe:";
  Printf.printf "%-26s | %8s | %12s | %18s | %10s\n" "scheme" "k" "makespan (s)"
    "attempts/commit" "consistent";
  List.iter
    (fun (r : Workloads.cc_row) ->
      let attempts =
        if Float.is_nan r.Workloads.cc_attempts_per_commit then "      n/a"
        else Printf.sprintf "%9.1f" r.Workloads.cc_attempts_per_commit
      in
      Printf.printf "%-26s | %8d | %12.2f | %18s | %10b\n" r.Workloads.cc_name
        r.Workloads.cc_clients r.Workloads.cc_makespan_s attempts r.Workloads.cc_consistent)
    rows;
  print_endline
    "shape checks: the optimistic commit protocol is cheap when conflict is rare\n\
     (k=1) but aborts multiply as k grows (the starvation of SS5.3.1, Eq. 5.1);\n\
     the ordered broadcast alternative is starvation-free with steady cost but\n\
     serializes everything — the choice the paper leaves to\n\
     programming-in-the-large (SS5.5)."

(* ------------------------------------------------------------------ *)
(* Smoke mode: Table 4.1 with reduced iteration counts, exported as
   JSON for the CI artifact.  Deterministic — the simulation is seeded
   — so two runs of the same build produce byte-identical files; the
   exact bytes are also pinned by test/fixtures/table_4_1_smoke.json
   (the golden determinism test).  JSON generation lives in
   Table_json, shared with that test. *)

let run_smoke ~json_path =
  print_endline "Circus benchmark smoke pass (reduced iterations; Table 4.1 only).";
  let all_rows, json = Table_json.smoke_json () in
  print_table_4_1 all_rows;
  match json_path with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc json;
    close_out oc;
    Printf.printf "\nwrote %s\n" path

let main smoke json_path =
  if smoke then run_smoke ~json_path
  else begin
    print_endline "Circus benchmark harness: regenerating the paper's tables and figures.";
    print_endline "(simulated 1985 testbed: VAX-class CPUs, 10 Mb/s Ethernet)";
    let all_rows, circus_rows = Workloads.table_4_1 () in
    print_table_4_1 all_rows;
    print_table_4_2 (Workloads.table_4_2 ());
    print_table_4_3 circus_rows;
    let multicast_rows =
      List.init 5 (fun i -> Workloads.circus_row ~multicast:true ~n:(i + 1) ())
    in
    print_figure_4_8 circus_rows multicast_rows;
    print_theorem_4_3 (Workloads.theorem_4_3 ());
    print_eq_5_1 (Workloads.eq_5_1 ());
    print_ordered_broadcast (Workloads.ordered_broadcast_run ());
    print_availability (Workloads.availability_rows ()) (Workloads.replacement_time_examples ());
    print_waiting_policy_ablation (Workloads.waiting_policy_ablation ());
    print_cc_ablation (Workloads.concurrency_control_ablation ());
    print_endline "\nall experiments complete."
  end

let () =
  let open Cmdliner in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Table 4.1 only, with reduced iteration counts.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"With $(b,--smoke), write the Table 4.1 rows as JSON.")
  in
  let doc = "regenerate the paper's tables and figures on the simulated testbed" in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "main" ~doc)
          Term.(const main $ smoke $ json)))
