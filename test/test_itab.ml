(* Tests for [Itab], the flat int-keyed table under the protocol
   stack's per-call state: a model test against [Hashtbl], and a check
   that the table retains exactly its live values. *)

open Circus_sim

(* ------------------------------------------------------------------ *)
(* Model test.  Keys come from three clusters: small consecutive ints,
   multiples of 2^24 (which all hash to one slot at any capacity the
   runs reach, so they build long probe chains) and a few large keys.
   Long runs of inserts and removes over them go through tombstone
   sweeps at the same capacity and several doublings.  Values are
   floats, the element type a flat float array could not hold beside
   the table's filler. *)

type op =
  | Replace of int * float
  | Remove of int
  | Find of int
  | Mem of int
  | Iter
  | Fold
  | Length

let show_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %g" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Iter -> "iter"
  | Fold -> "fold"
  | Length -> "length"

let gen_key =
  QCheck.Gen.(
    frequency
      [ (5, int_bound 63);
        (3, map (fun a -> a lsl 24) (int_bound 40));
        (1, map (fun a -> (a lsl 50) lor 7) (int_bound 7)) ])

let gen_op =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun k v -> Replace (k, float_of_int v)) gen_key (int_bound 1000));
        (4, map (fun k -> Remove k) gen_key);
        (2, map (fun k -> Find k) gen_key);
        (1, map (fun k -> Mem k) gen_key);
        (1, return Iter);
        (1, return Fold);
        (1, return Length) ])

let bindings_of_itab t =
  let acc = ref [] in
  Itab.iter (fun k v -> acc := (k, v) :: !acc) t;
  List.sort compare !acc

let bindings_of_model m = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])

let run_ops ops =
  let t = Itab.create ~initial:8 () in
  let m = Hashtbl.create 16 in
  List.for_all
    (fun op ->
      match op with
      | Replace (k, v) ->
        Itab.replace t k v;
        Hashtbl.replace m k v;
        Itab.length t = Hashtbl.length m
      | Remove k ->
        Itab.remove t k;
        Hashtbl.remove m k;
        Itab.length t = Hashtbl.length m
      | Find k -> Itab.find_opt t k = Hashtbl.find_opt m k
      | Mem k -> Itab.mem t k = Hashtbl.mem m k
      | Iter -> bindings_of_itab t = bindings_of_model m
      | Fold ->
        List.sort compare (Itab.fold (fun k v acc -> (k, v) :: acc) t []) = bindings_of_model m
      | Length -> Itab.length t = Hashtbl.length m)
    ops
  && bindings_of_itab t = bindings_of_model m

let prop_matches_hashtbl =
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show_op ops))
      QCheck.Gen.(list_size (int_range 0 600) gen_op)
  in
  QCheck.Test.make ~name:"itab matches Hashtbl model" ~count:300 arb run_ops

(* ------------------------------------------------------------------ *)
(* Order.  [iter], [fold] and slot scans visit bindings in slot order,
   and the pairmsg trace events that come out of such scans
   ([implicit_acks]'s "msg_acked", [close]'s "wd_disarm") are pinned by
   goldens.  Sweeping tombstones in place must therefore leave
   exactly the layout of the original resize, which allocated fresh
   arrays and re-inserted the live bindings in old-slot order.  That
   resize is kept here, verbatim, as the model; random insert/remove
   runs drive both tables through same-capacity sweeps (of tables from
   8 to 4,096 slots) and doublings, and every fold, and the final slot
   layout, must agree. *)

module Rebuild_model = struct
  type 'a t = { mutable keys : int array; mutable vals : 'a array; mutable live : int; mutable fill : int }

  let empty_slot = -1
  let tombstone = -2
  let filler : 'a. 'a = Obj.magic 0
  let create () = { keys = Array.make 8 empty_slot; vals = [||]; live = 0; fill = 0 }

  let slot_of t key =
    let mask = Array.length t.keys - 1 in
    (key * 0x2545F4914F6CDD1D) land mask

  let next_slot t i = (i + 1) land (Array.length t.keys - 1)

  let rec find_slot t key i =
    let k = t.keys.(i) in
    if k = key then i else if k = empty_slot then -1 else find_slot t key (next_slot t i)

  let rec insert_fresh t key v i =
    let k = t.keys.(i) in
    if k = empty_slot || k = tombstone then begin
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      if k = empty_slot then t.fill <- t.fill + 1;
      t.live <- t.live + 1
    end
    else insert_fresh t key v (next_slot t i)

  let resize t =
    let old_keys = t.keys and old_vals = t.vals in
    let cap = Array.length old_keys in
    let cap = if 2 * t.live >= cap then 2 * cap else cap in
    t.keys <- Array.make cap empty_slot;
    t.vals <- (if t.live = 0 then [||] else Array.make cap filler);
    t.fill <- 0;
    let live = t.live in
    t.live <- 0;
    Array.iteri
      (fun i k -> if k >= 0 then insert_fresh t k old_vals.(i) (slot_of t k))
      old_keys;
    assert (t.live = live)

  let replace t key v =
    if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) filler;
    let i = if t.live = 0 then -1 else find_slot t key (slot_of t key) in
    if i >= 0 then t.vals.(i) <- v
    else begin
      if 2 * (t.fill + 1) > Array.length t.keys then begin
        resize t;
        if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys) filler
      end;
      insert_fresh t key v (slot_of t key)
    end

  let remove t key =
    if t.live > 0 then begin
      let i = find_slot t key (slot_of t key) in
      if i >= 0 then begin
        t.keys.(i) <- tombstone;
        t.vals.(i) <- filler;
        t.live <- t.live - 1
      end
    end

  let fold f t init =
    let acc = ref init in
    Array.iteri (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc) t.keys;
    !acc
end

type order_op =
  | Put of int * int
  | Del of int
  | Order

(* Most runs stay below 1,024 slots.  One in eight draws its keys from
   a range wide enough that the table doubles to 4,096 slots, where it
   settles with about 1,700 live keys and sweeps at that capacity over
   and over; such a run checks the order more sparsely. *)
let gen_order_ops =
  QCheck.Gen.(
    let ops ~range ~size ~order =
      let key =
        frequency [ (6, int_bound range); (1, map (fun a -> a lsl 24) (int_bound 20)) ]
      in
      list_size size
        (frequency
           [ (10, map2 (fun k v -> Put (k, v)) key (int_bound 1000));
             (8, map (fun k -> Del k) key);
             (order, return Order) ])
    in
    frequency
      [ (7, ops ~range:300 ~size:(int_range 0 2000) ~order:1);
        (1, ops ~range:3000 ~size:(int_range 12_000 16_000) ~order:0) ])

let fold_list fold t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let run_order ops =
  let t = Itab.create ~initial:8 () and m = Rebuild_model.create () in
  let same () = fold_list Itab.fold t = fold_list Rebuild_model.fold m in
  List.for_all
    (function
      | Put (k, v) ->
        Itab.replace t k v;
        Rebuild_model.replace m k v;
        true
      | Del k ->
        Itab.remove t k;
        Rebuild_model.remove m k;
        true
      | Order -> same ())
    ops
  && same ()
  && Itab.slots t = Array.length m.Rebuild_model.keys
  && List.for_all
       (fun i -> Itab.slot_key t i = m.Rebuild_model.keys.(i))
       (List.init (Itab.slots t) Fun.id)

let prop_order_matches_rebuild =
  let arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat "; "
          (List.map
             (function
               | Put (k, v) -> Printf.sprintf "put %d %d" k v
               | Del k -> Printf.sprintf "del %d" k
               | Order -> "order")
             ops))
      gen_order_ops
  in
  QCheck.Test.make ~name:"itab order matches the allocate-and-rebuild resize" ~count:200 arb
    run_order

(* ------------------------------------------------------------------ *)
(* Release.  A value removed from the table, or overwritten by
   [replace], must be collectable at once, not when its slot happens to
   be reused or the table next resizes; live values must stay. *)

let test_release () =
  let n = 48 in
  let t = Itab.create () in
  let weak = Weak.create (2 * n) in
  (* Fresh heap blocks, reachable only from the table and [weak]. *)
  let fill () =
    for k = 0 to n - 1 do
      let v = Bytes.make 16 (Char.chr k) in
      Weak.set weak k (Some v);
      Itab.replace t k v
    done;
    for k = 0 to n - 1 do
      if k mod 3 = 0 then Itab.remove t k
      else if k mod 3 = 1 then begin
        let v = Bytes.make 16 'o' in
        Weak.set weak (n + k) (Some v);
        Itab.replace t k v
      end
    done
  in
  fill ();
  let check what =
    Gc.full_major ();
    for k = 0 to n - 1 do
      let collected = not (Weak.check weak k) in
      let expect = k mod 3 <> 2 in
      if collected <> expect then
        Alcotest.failf "%s: first value of key %d %s" what k
          (if expect then "is still reachable" else "was collected");
      if k mod 3 = 1 && not (Weak.check weak (n + k)) then
        Alcotest.failf "%s: replacing value of key %d was collected" what k
    done
  in
  check "after remove/replace";
  (* Grow the table through two doublings; the new slots must not be
     filled from a value the table no longer holds. *)
  for k = 1000 to 1000 + (4 * n) do
    Itab.replace t k (Bytes.make 1 'x')
  done;
  for k = 1000 to 1000 + (4 * n) do
    Itab.remove t k
  done;
  check "after growth";
  for k = 0 to n - 1 do
    let expect =
      if k mod 3 = 0 then None
      else if k mod 3 = 1 then Some (Bytes.make 16 'o')
      else Some (Bytes.make 16 (Char.chr k))
    in
    Alcotest.(check (option bytes)) (Printf.sprintf "key %d" k) expect (Itab.find_opt t k)
  done;
  ignore (Sys.opaque_identity t)

(* ------------------------------------------------------------------ *)
(* Allocation.  A same-capacity sweep works in place through a scratch
   kept per domain.  Once the scratch has grown to the table's live
   count, churn that sweeps a 1,024-slot table again and again
   allocates nothing: no minor words, and no words directly in the
   major heap, where arrays of that size would go. *)

(* Minor words and direct major words (major minus promoted) that [f]
   allocates, less what reading the counters allocates. *)
let alloc_of f =
  let measure f =
    Gc.minor ();
    let mi0, pr0, ma0 = Gc.counters () in
    f ();
    let mi1, pr1, ma1 = Gc.counters () in
    (mi1 -. mi0, ma1 -. pr1 -. (ma0 -. pr0))
  in
  let mi_e, ma_e = measure ignore in
  let mi, ma = measure f in
  (mi -. mi_e, ma -. ma_e)

let test_sweep_allocates_nothing () =
  let live = 400 in
  let values = Array.init 4096 string_of_int in
  let t = Itab.create () in
  for k = 0 to live - 1 do
    Itab.replace t k values.(k)
  done;
  Alcotest.(check int) "slots after the fill" 1024 (Itab.slots t);
  (* Each step removes the oldest key and adds a new one: the fill
     climbs by fresh slots until a sweep resets it, every ~150 steps. *)
  let next = ref live in
  let churn n =
    for _ = 1 to n do
      let k = !next in
      Itab.remove t (k - live);
      Itab.replace t k values.(k land 4095);
      incr next
    done
  in
  churn 1_000;
  let minor, major = alloc_of (fun () -> churn 3_000) in
  Alcotest.(check int) "slots after the churn" 1024 (Itab.slots t);
  Alcotest.(check int) "live after the churn" live (Itab.length t);
  Alcotest.(check (float 0.0)) "minor words" 0.0 minor;
  Alcotest.(check (float 0.0)) "direct major words" 0.0 major

let () =
  Alcotest.run "circus_itab"
    [ ( "itab",
        Alcotest.test_case "removed and overwritten values are released" `Quick test_release
        :: Alcotest.test_case "a same-capacity sweep allocates nothing" `Quick
             test_sweep_allocates_nothing
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_matches_hashtbl; prop_order_matches_rebuild ] ) ]
