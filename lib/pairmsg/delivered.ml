(* The delivered-return set, in one [Itab] of immediates whose keys
   carry what an entry is (shown before [spread]):

   - a peer's run: [peer lsl 28 lor 1 lsl 27] -> the run packed as
     [hi lsl 31 lor (hi - lo)]: [hi] in the top 32 bits of the 63, the
     length in the low 31.  A run never grows to [max_len], so no
     packed run equals [none] (-1);
   - a bitmap block: [peer lsl 28 lor (cn lsr 5)] -> a 32-bit bitmap;
   - a segment count other than 1: [1 lsl 59 lor peer lsl 32 lor cn].

   [Itab] places a key by its low bits, and a front end's blocks for
   one stretch of call numbers, or all its runs, differ only in [peer],
   so they would share one probe chain.  The low bits of every key are
   therefore XORed with a hash of its peer ([spread], below the run
   tag), which the peer bits above them undo.

   One table, not three, because most endpoints hold few returns: a
   table per part would triple each endpoint's fixed cost and the
   arrays its growth leaves behind.

   Invariants: a number is in its peer's run or in a block, never both,
   and no block is 0.  A run starts where two adjacent numbers meet in
   the blocks, so a peer whose numbers are sparse (one in every few)
   has no run and costs what a plain bitmap costs.  It grows upward as
   numbers arrive in order; each new [hi + 1] absorbs whatever the
   blocks hold just above it, so a number that overtook its
   predecessor rejoins the run once the gap fills.  A gap that never
   fills (a return never delivered) would strand the run, so two
   adjacent numbers more than [jump] past [hi] start a new one: the old
   run goes to the blocks, word by word, and the new one absorbs the
   blocked numbers next to it on both sides. *)

open Circus_sim

type t = int Itab.t

let block_bits = 5
let block_mask = (1 lsl block_bits) - 1
let idx_bits = 32 - block_bits
let run_tag = 1 lsl idx_bits
let peer_shift = idx_bits + 1
let peer_mask = (1 lsl 27) - 1
let total_tag = 1 lsl 59
let len_bits = 31
let len_mask = (1 lsl len_bits) - 1
let max_len = len_mask - 1
let none = -1
let jump = 64
let cn_max = 0xFFFFFFFF

let[@inline] pack lo hi = (hi lsl len_bits) lor (hi - lo)
let[@inline] run_hi r = r lsr len_bits
let[@inline] run_lo r = run_hi r - (r land len_mask)
(* The top bits of a multiplicative hash: unlike its low bits, which
   only see the peer's port, they depend on every bit of the peer. *)
let[@inline] spread peer = (peer * 0x2545F4914F6CDD1D) lsr 36 land (run_tag - 1)
let[@inline] run_key peer = (peer lsl peer_shift) lor (run_tag lxor spread peer)
let[@inline] block_key peer cn = (peer lsl peer_shift) lor ((cn lsr block_bits) lxor spread peer)
let[@inline] bit cn = 1 lsl (cn land block_mask)
let[@inline] total_key peer cn = total_tag lor (peer lsl 32) lor (cn lxor spread peer)

let create () : t = Itab.create ~initial:8 ()

let[@inline] in_blocks t peer cn = Itab.find_or t (block_key peer cn) 0 land bit cn <> 0

let set_bit t peer cn =
  let k = block_key peer cn in
  Itab.replace t k (Itab.find_or t k 0 lor bit cn)

let clear_bit t peer cn =
  let k = block_key peer cn in
  let b = Itab.find_or t k 0 land lnot (bit cn) in
  if b = 0 then Itab.remove t k else Itab.replace t k b

(* Grow the run [lo, hi] over the blocked numbers just above it; the
   new [hi]. *)
let rec absorb_up t peer lo hi =
  if hi < cn_max && hi - lo < max_len && in_blocks t peer (hi + 1) then begin
    clear_bit t peer (hi + 1);
    absorb_up t peer lo (hi + 1)
  end
  else hi

let rec absorb_down t peer lo hi =
  if lo > 0 && hi - lo < max_len && in_blocks t peer (lo - 1) then begin
    clear_bit t peer (lo - 1);
    absorb_down t peer (lo - 1) hi
  end
  else lo

(* Move the run [lo, hi] into the blocks, one block at a time. *)
let demote t peer lo hi =
  for b = lo lsr block_bits to hi lsr block_bits do
    let base = b lsl block_bits in
    let first = max lo base and last = min hi (base + block_mask) in
    let mask = ((1 lsl (last - first + 1)) - 1) lsl (first - base) in
    let k = block_key peer base in
    Itab.replace t k (Itab.find_or t k 0 lor mask)
  done

let add t ~peer ~cn ~total =
  if total <> 1 then Itab.replace t (total_key peer cn) total;
  let r = Itab.find_or t (run_key peer) none in
  if r <> none && cn = run_hi r + 1 && cn - run_lo r <= max_len then
    Itab.replace t (run_key peer) (pack (run_lo r) (absorb_up t peer (run_lo r) cn))
  else if cn > 0 && in_blocks t peer (cn - 1) && (r = none || cn > run_hi r + jump) then begin
    if r <> none then demote t peer (run_lo r) (run_hi r);
    let lo = absorb_down t peer cn cn in
    Itab.replace t (run_key peer) (pack lo (absorb_up t peer lo cn))
  end
  else set_bit t peer cn

let total t ~peer ~cn =
  let r = Itab.find_or t (run_key peer) none in
  if (r <> none && cn <= run_hi r && cn >= run_lo r) || in_blocks t peer cn then
    Itab.find_or t (total_key peer cn) 1
  else 0

(* One pass in slot order; replacing the value of the slot being
   visited, like removing its binding, is safe. *)
let prune t ~horizon =
  for i = 0 to Itab.slots t - 1 do
    let k = Itab.slot_key t i in
    if k >= total_tag then begin
      let peer = (k lsr 32) land peer_mask in
      if (k lxor spread peer) land cn_max < horizon peer then Itab.remove t k
    end
    else if k >= 0 then begin
      let peer = k lsr peer_shift in
      let idx = k lxor spread peer and h = horizon peer and v = Itab.slot_value t i in
      if idx land run_tag <> 0 then begin
        if run_hi v < h then Itab.remove t k
        else if run_lo v < h then Itab.replace t k (pack h (run_hi v))
      end
      else begin
        let base = (idx land (run_tag - 1)) lsl block_bits in
        if base + block_mask < h then Itab.remove t k
        else if base < h then begin
          let b = v land lnot ((1 lsl (h - base)) - 1) in
          if b = 0 then Itab.remove t k else Itab.replace t k b
        end
      end
    end
  done

let rec popcount b = if b = 0 then 0 else 1 + popcount (b land (b - 1))

let length t =
  Itab.fold
    (fun k v n ->
      if k >= total_tag then n
      else if k land run_tag <> 0 then n + run_hi v - run_lo v + 1
      else n + popcount v)
    t 0
