(* Lines are keyed by their integer line number (addr lsr line_shift).
   Addresses up to 2^62 are representable this way in a native int; the
   int64 entry points mask the sign bit first, which matches the old
   behaviour of folding the address into a non-negative line number
   before set selection. Keeping the keys unboxed matters: the softcore
   probes the I-cache once per retired instruction and the D-hierarchy
   on every memory operation, so a boxed key or a closure-allocating
   probe loop shows up directly in minor-heap churn. *)

type t = {
  cname : string;
  sets : int array;
      (* flat, [set * ways + way]: the line number held there, -1 = invalid *)
  lru : int array;  (* same layout; higher = more recently used *)
  line_bytes : int;
  line_shift : int;
  set_mask : int;  (* set_count - 1; set count is a power of two *)
  set_count : int;
  ways : int;
  mutable hits : int;
  mutable misses : int;
  mutable clock : int;
  (* Sequential-fetch memo: the line returned by the last {!access_fetch}.
     Fetch streams run straight-line within a 32-byte line most of the
     time; while the fetch stays in this line the LRU machinery is
     skipped entirely. Only {!access_fetch} reads or writes it. *)
  mutable fetch_line : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~name ~size_bytes ~ways ~line_bytes =
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of ways * line size";
  let set_count = size_bytes / (ways * line_bytes) in
  if set_count land (set_count - 1) <> 0 then invalid_arg "Cache.create: set count must be a power of two";
  {
    cname = name;
    sets = Array.make (set_count * ways) (-1);
    lru = Array.make (set_count * ways) 0;
    line_bytes;
    line_shift = log2 line_bytes;
    set_mask = set_count - 1;
    set_count;
    ways;
    hits = 0;
    misses = 0;
    clock = 0;
    fetch_line = -1;
  }

let name t = t.cname

(* Closure-free probe of slots [i, stop): the slot holding [line], or -1. *)
let rec probe (sets : int array) line i stop =
  if i >= stop then -1 else if Array.unsafe_get sets i = line then i else probe sets line (i + 1) stop

(* The least recently used slot of [victim, stop). *)
let rec oldest (lru : int array) victim i stop =
  if i >= stop then victim
  else oldest lru (if Array.unsafe_get lru i < Array.unsafe_get lru victim then i else victim) (i + 1) stop

(* A miss: the least recently used way of the set at [base] takes the
   line. Out of line, so the inlined hit path of [access_line] stays
   short. Every index lies in [base, base + ways), inside both arrays. *)
let miss t line base =
  let clock = t.clock + 1 in
  t.clock <- clock;
  t.misses <- t.misses + 1;
  let victim = oldest t.lru base (base + 1) (base + t.ways) in
  Array.unsafe_set t.sets victim line;
  Array.unsafe_set t.lru victim clock

(* The first way is tested inline and [probe] takes the rest, so a hit
   in way 0 (and every probe of a direct-mapped cache) reads one slot.
   Inlined into its callers: on a hit the probe, the clock, the hit
   count and the LRU stamp are all an access does. *)
let[@inline] access_line t line =
  let base = (line land t.set_mask) * t.ways in
  let slot =
    if Array.unsafe_get t.sets base = line then base else probe t.sets line (base + 1) (base + t.ways)
  in
  if slot >= 0 then begin
    let clock = t.clock + 1 in
    t.clock <- clock;
    t.hits <- t.hits + 1;
    Array.unsafe_set t.lru slot clock;
    true
  end
  else begin
    miss t line base;
    false
  end

let[@inline] access_int t addr = access_line t (addr lsr t.line_shift)

let access t addr =
  (* mask the sign bit so the int64->int truncation keeps the old
     non-negative line numbering *)
  access_int t (Int64.to_int (Int64.logand addr Int64.max_int))

(* The I-stream fast path. Timing-equivalent to {!access_int}: a memo
   hit means the line was the immediately preceding fetch, hence
   resident and most-recently-used in its set, so a full probe would
   also hit. Skipping the redundant LRU bump preserves every eviction
   decision — lines in a set stay ordered by the time the fetch stream
   last *entered* them, and entry order equals last-touch order because
   fetch runs within a line are contiguous. Repeat touches are not
   re-counted in [hits] (the hit/miss counters of the I-cache are not
   part of the architectural statistics). *)
let[@inline] access_fetch t addr =
  let line = addr lsr t.line_shift in
  if line = t.fetch_line then true
  else begin
    t.fetch_line <- line;
    access_line t line
  end

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let flush t =
  Array.fill t.sets 0 (Array.length t.sets) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.fetch_line <- -1

(* -- snapshot state ------------------------------------------------------ *)
(* The mutable model state as one flat int array: counters first, then
   every set's line numbers, then every set's LRU stamps — the layout of
   [sets] and [lru] themselves, so both directions are two blits.
   Geometry (set count, ways, line size) is configuration, not state —
   restore into a cache of the same geometry only. *)

let snapshot_words t = 4 + (2 * t.set_count * t.ways)

let snapshot_state t =
  let n = t.set_count * t.ways in
  let a = Array.make (snapshot_words t) 0 in
  a.(0) <- t.clock;
  a.(1) <- t.hits;
  a.(2) <- t.misses;
  a.(3) <- t.fetch_line;
  Array.blit t.sets 0 a 4 n;
  Array.blit t.lru 0 a (4 + n) n;
  a

let restore_state t a =
  if Array.length a <> snapshot_words t then
    invalid_arg "Cache.restore_state: state does not match this cache's geometry";
  let n = t.set_count * t.ways in
  t.clock <- a.(0);
  t.hits <- a.(1);
  t.misses <- a.(2);
  t.fetch_line <- a.(3);
  Array.blit a 4 t.sets 0 n;
  Array.blit a (4 + n) t.lru 0 n

module Timing = struct
  type config = {
    l1_size : int;
    l1_ways : int;
    l2_size : int;
    l2_ways : int;
    line_bytes : int;
    l1_hit_cycles : int;
    l2_hit_cycles : int;
    memory_cycles : int;
  }

  type hierarchy = { cfg : config; l1 : t; l2 : t }

  let paper_config =
    {
      l1_size = 16 * 1024;
      l1_ways = 2;
      l2_size = 64 * 1024;
      l2_ways = 4;
      line_bytes = 32;
      l1_hit_cycles = 1;
      l2_hit_cycles = 6;
      memory_cycles = 24;
    }

  let create cfg =
    {
      cfg;
      l1 = create ~name:"L1" ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways ~line_bytes:cfg.line_bytes;
      l2 = create ~name:"L2" ~size_bytes:cfg.l2_size ~ways:cfg.l2_ways ~line_bytes:cfg.line_bytes;
    }

  let config h = h.cfg
  let l1 h = h.l1
  let l2 h = h.l2

  (* An L1 miss: the line goes on to L2, and on to memory if L2 misses
     too. Out of line, so the inlined L1 hit path stays short. *)
  let miss_cycles h addr =
    if access_int h.l2 addr then h.cfg.l1_hit_cycles + h.cfg.l2_hit_cycles
    else h.cfg.l1_hit_cycles + h.cfg.l2_hit_cycles + h.cfg.memory_cycles

  let[@inline] line_cycles_int h addr =
    if access_int h.l1 addr then h.cfg.l1_hit_cycles else miss_cycles h addr

  (* An access that straddles two lines costs each line in turn. *)
  let[@inline] access_cycles_int h addr ~size =
    let first = line_cycles_int h addr in
    if size > 1 && (addr + size - 1) lsr h.l1.line_shift <> addr lsr h.l1.line_shift then
      first + line_cycles_int h (addr + size - 1)
    else first

  let access_cycles h addr ~size =
    access_cycles_int h (Int64.to_int (Int64.logand addr Int64.max_int)) ~size

  let reset_stats h =
    reset_stats h.l1;
    reset_stats h.l2
end
