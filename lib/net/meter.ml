(* The per-syscall profile is kept as flat parallel arrays (names,
   times, counts) rather than a hashtable: there are only ever a handful
   of distinct syscall names (Table 4.2 lists six) and [charge_kernel]
   runs ~20 times per simulated RPC.  Most charge sites are in
   [Syscall] and pass that module's string literal for the call, so a
   linear scan that tries physical equality first usually hits on a
   pointer compare; a site with its own copy of a name (pairmsg's
   [Endpoint] passes its own "gettimeofday") falls through to
   [String.equal] and lands on the same entry.

   Times live in a [Float.Array.t] and the two totals in a record of
   floats only, so every charge is a few unboxed float stores and an
   int increment — no allocation and no write barrier. *)

type totals = { mutable user : float; mutable kernel : float }

type t = {
  totals : totals;
  (* Dense prefix [0, n_cells) of the three arrays holds the live
     entries. *)
  mutable names : string array;
  mutable times : Float.Array.t;
  mutable counts : int array;
  mutable n_cells : int;
}

let create () =
  { totals = { user = 0.0; kernel = 0.0 };
    names = [||];
    times = Float.Array.create 0;
    counts = [||];
    n_cells = 0 }

let reset t =
  t.totals.user <- 0.0;
  t.totals.kernel <- 0.0;
  t.names <- [||];
  t.times <- Float.Array.create 0;
  t.counts <- [||];
  t.n_cells <- 0

let charge_user t cost = t.totals.user <- t.totals.user +. cost

let add_cell t name cost =
  let n = t.n_cells in
  if n >= Array.length t.names then begin
    let cap = if n = 0 then 8 else 2 * n in
    let names = Array.make cap "" in
    Array.blit t.names 0 names 0 n;
    let times = Float.Array.make cap 0.0 in
    Float.Array.blit t.times 0 times 0 n;
    let counts = Array.make cap 0 in
    Array.blit t.counts 0 counts 0 n;
    t.names <- names;
    t.times <- times;
    t.counts <- counts
  end;
  t.names.(n) <- name;
  Float.Array.set t.times n cost;
  t.counts.(n) <- 1;
  t.n_cells <- n + 1

(* Index of [name] in [names.(i .. n-1)], or -1.  Top level, with
   everything passed in, so a charge builds no closure. *)
let rec find_cell names n name i =
  if i >= n then -1
  else
    let c = names.(i) in
    if c == name || String.equal c name then i else find_cell names n name (i + 1)

let charge_kernel t ~name cost =
  t.totals.kernel <- t.totals.kernel +. cost;
  let i = find_cell t.names t.n_cells name 0 in
  if i < 0 then add_cell t name cost
  else begin
    Float.Array.set t.times i (Float.Array.get t.times i +. cost);
    t.counts.(i) <- t.counts.(i) + 1
  end

let user t = t.totals.user
let kernel t = t.totals.kernel
let total t = t.totals.user +. t.totals.kernel

let by_syscall t =
  let acc = ref [] in
  for i = t.n_cells - 1 downto 0 do
    acc := (t.names.(i), Float.Array.get t.times i, t.counts.(i)) :: !acc
  done;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !acc
