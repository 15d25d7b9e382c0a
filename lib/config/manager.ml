open Circus_net

type t = {
  spec : Ast.spec;
  universe : unit -> Solver.machine list;
  start_member : Addr.host_id -> unit;
}

let create ~spec ~universe ~start_member () = { spec; universe; start_member }

let ids machines = List.map (fun m -> m.Solver.machine_id) machines

let instantiate t =
  match Solver.instantiate t.spec ~universe:(t.universe ()) with
  | Some machines ->
    let chosen = ids machines in
    List.iter t.start_member chosen;
    Ok chosen
  | None -> Error (Format.asprintf "unsatisfiable: %a" Ast.pp_spec t.spec)

let repair t ~current =
  match Solver.extend t.spec ~universe:(t.universe ()) ~current with
  | Some machines ->
    let chosen = ids machines in
    let fresh = List.filter (fun id -> not (List.mem id current)) chosen in
    List.iter t.start_member fresh;
    Ok chosen
  | None -> Error (Format.asprintf "no satisfying extension: %a" Ast.pp_spec t.spec)

let watch t host ~current_members ?(period = 3.0) () =
  Host.spawn host ~label:"config.manager" (fun () ->
      while Host.is_alive host do
        Circus_sim.Fiber.sleep period;
        match current_members () with
        | Some current when List.length current < Ast.arity t.spec ->
          ignore (repair t ~current)
        | Some _ | None -> ()
      done)
