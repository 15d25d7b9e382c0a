(* The per-syscall profile is kept in fixed slots, one per system call
   name.  Names are interned once ([syscall], at module initialisation
   in [Syscall]) into a process-wide registry that numbers them densely,
   so a charge indexes its slot directly: no name lookup and no string
   compare.  There are only ever a handful of names (Table 4.2 lists
   six; [Syscall] interns eight) and [charge_kernel] runs ~20 times per
   simulated RPC.

   Times live in a [Float.Array.t] and the two totals in a record of
   floats only, so every charge is a few unboxed float stores and an
   int increment — no allocation and no write barrier. *)

type syscall = {
  name : string;
  index : int;  (* the slot, dense from 0 in interning order *)
  key : string;  (* ["syscall." ^ name], the trace counter's name *)
}

(* Interned names, in index order.  Appended to under [lock] by copy,
   so a reader on another domain sees a whole array; a meter reads it
   only in [create] and [by_syscall]. *)
let registry : syscall array Atomic.t = Atomic.make [||]
let lock = Mutex.create ()

let syscall name =
  Mutex.protect lock (fun () ->
      let known = Atomic.get registry in
      match Array.find_opt (fun sc -> String.equal sc.name name) known with
      | Some sc -> sc
      | None ->
        let sc = { name; index = Array.length known; key = "syscall." ^ name } in
        Atomic.set registry (Array.append known [| sc |]);
        sc)

let syscall_name sc = sc.name
let syscall_key sc = sc.key

type totals = { mutable user : float; mutable kernel : float }

type t = {
  totals : totals;
  (* Indexed by [syscall.index]; a name interned after the meter was
     made grows them on its first charge. *)
  mutable times : Float.Array.t;
  mutable counts : int array;
}

let create () =
  let n = Array.length (Atomic.get registry) in
  { totals = { user = 0.0; kernel = 0.0 }; times = Float.Array.make n 0.0; counts = Array.make n 0 }

let reset t =
  t.totals.user <- 0.0;
  t.totals.kernel <- 0.0;
  Float.Array.fill t.times 0 (Float.Array.length t.times) 0.0;
  Array.fill t.counts 0 (Array.length t.counts) 0

let charge_user t cost = t.totals.user <- t.totals.user +. cost

let grow t index =
  let n = Array.length t.counts and cap = index + 1 in
  let times = Float.Array.make cap 0.0 in
  Float.Array.blit t.times 0 times 0 n;
  let counts = Array.make cap 0 in
  Array.blit t.counts 0 counts 0 n;
  t.times <- times;
  t.counts <- counts

let charge_kernel t sc cost =
  t.totals.kernel <- t.totals.kernel +. cost;
  let i = sc.index in
  if i >= Array.length t.counts then grow t i;
  Float.Array.set t.times i (Float.Array.get t.times i +. cost);
  t.counts.(i) <- t.counts.(i) + 1

let user t = t.totals.user
let kernel t = t.totals.kernel
let total t = t.totals.user +. t.totals.kernel

(* The syscalls charged at least once, as the profile's rows. *)
let by_syscall t =
  let known = Atomic.get registry in
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then
      acc := (known.(i).name, Float.Array.get t.times i, t.counts.(i)) :: !acc
  done;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !acc
