(* The cache model against its unoptimised predecessor.

   [Cache] keeps every set's lines and LRU stamps in two flat arrays
   indexed [set * ways + way]. The reference below is the nested-array
   model it replaced (one row per set, a [for] loop for the victim, the
   polymorphic [max] in the timing path), kept verbatim in behaviour.
   Random access streams run through both — [access], [access_int],
   [access_fetch] and [Timing.access_cycles] — and every hit/miss, every
   cycle count, the counters and [snapshot_state] must agree. *)

module Cache = Cheri_isa.Cache

(* -- the reference model ------------------------------------------------- *)

module Ref = struct
  type t = {
    sets : int array array;  (* sets.(set).(way) = line number, -1 = invalid *)
    lru : int array array;  (* higher = more recently used *)
    line_shift : int;
    set_mask : int;
    set_count : int;
    ways : int;
    mutable hits : int;
    mutable misses : int;
    mutable clock : int;
    mutable fetch_line : int;
  }

  let log2 n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n

  let create ~size_bytes ~ways ~line_bytes =
    let set_count = size_bytes / (ways * line_bytes) in
    {
      sets = Array.make_matrix set_count ways (-1);
      lru = Array.make_matrix set_count ways 0;
      line_shift = log2 line_bytes;
      set_mask = set_count - 1;
      set_count;
      ways;
      hits = 0;
      misses = 0;
      clock = 0;
      fetch_line = -1;
    }

  let access_line t line =
    t.clock <- t.clock + 1;
    let set = line land t.set_mask in
    let row = t.sets.(set) in
    let rec probe i = if i >= t.ways then -1 else if row.(i) = line then i else probe (i + 1) in
    let way = probe 0 in
    if way >= 0 then begin
      t.hits <- t.hits + 1;
      t.lru.(set).(way) <- t.clock;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let lru_row = t.lru.(set) in
      let victim = ref 0 in
      for w = 1 to t.ways - 1 do
        if lru_row.(w) < lru_row.(!victim) then victim := w
      done;
      row.(!victim) <- line;
      lru_row.(!victim) <- t.clock;
      false
    end

  let access_int t addr = access_line t (addr lsr t.line_shift)
  let access t addr = access_int t (Int64.to_int (Int64.logand addr Int64.max_int))

  let access_fetch t addr =
    let line = addr lsr t.line_shift in
    if line = t.fetch_line then true
    else begin
      t.fetch_line <- line;
      access_line t line
    end

  let snapshot_state t =
    let a = Array.make (4 + (2 * t.set_count * t.ways)) 0 in
    a.(0) <- t.clock;
    a.(1) <- t.hits;
    a.(2) <- t.misses;
    a.(3) <- t.fetch_line;
    let k = ref 4 in
    for s = 0 to t.set_count - 1 do
      for w = 0 to t.ways - 1 do
        a.(!k) <- t.sets.(s).(w);
        a.(!k + (t.set_count * t.ways)) <- t.lru.(s).(w);
        incr k
      done
    done;
    a

  type hierarchy = { cfg : Cache.Timing.config; l1 : t; l2 : t }

  let timing (cfg : Cache.Timing.config) =
    {
      cfg;
      l1 = create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways ~line_bytes:cfg.line_bytes;
      l2 = create ~size_bytes:cfg.l2_size ~ways:cfg.l2_ways ~line_bytes:cfg.line_bytes;
    }

  let line_cycles h addr =
    if access_int h.l1 addr then h.cfg.l1_hit_cycles
    else if access_int h.l2 addr then h.cfg.l1_hit_cycles + h.cfg.l2_hit_cycles
    else h.cfg.l1_hit_cycles + h.cfg.l2_hit_cycles + h.cfg.memory_cycles

  let access_cycles h addr ~size =
    let addr = Int64.to_int (Int64.logand addr Int64.max_int) in
    let first = line_cycles h addr in
    let last_byte = addr + max 0 (size - 1) in
    if size > 0 && last_byte lsr h.l1.line_shift <> addr lsr h.l1.line_shift then
      first + line_cycles h last_byte
    else first
end

(* -- random streams ------------------------------------------------------ *)

type op = Access of int64 | Access_int of int | Fetch of int | Cycles of int64 * int

let pp_op = function
  | Access a -> Printf.sprintf "access %Ld" a
  | Access_int a -> Printf.sprintf "access_int %d" a
  | Fetch a -> Printf.sprintf "fetch %d" a
  | Cycles (a, n) -> Printf.sprintf "cycles %Ld/%d" a n

(* Addresses cluster in a few KiB, so the small geometries below see
   hits, conflict misses and evictions; a few land far away or carry
   the sign bit, which [access] and [access_cycles] mask. *)
let gen_addr =
  QCheck.Gen.(
    frequency
      [
        (8, int_bound 4095);
        (1, map (fun k -> (k * 4096) + 8) (int_bound 64));
        (1, map (fun a -> a lor (1 lsl 40)) (int_bound 4095));
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun a -> Access_int a) gen_addr);
        (3, map (fun a -> Fetch a) gen_addr);
        ( 1,
          map2
            (fun a neg -> Access (if neg then Int64.logor (Int64.of_int a) Int64.min_int else Int64.of_int a))
            gen_addr bool );
        ( 3,
          map2
            (fun a n -> Cycles (Int64.of_int a, n))
            gen_addr
            (oneofl [ 0; 1; 2; 4; 8; 32; 40 ]) );
      ])

(* (ways, sets): 32-byte lines, so each cache is [ways * sets * 32] bytes *)
let gen_geometry = QCheck.Gen.(pair (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 2; 4; 8 ]))

let print_stream ((w, s), (w2, s2), ops) =
  Printf.sprintf "L1 %dx%d, L2 %dx%d: %s" w s w2 s2 (String.concat "; " (List.map pp_op ops))

let arb_stream =
  QCheck.make ~print:print_stream
    QCheck.Gen.(triple gen_geometry gen_geometry (list_size (int_range 1 300) gen_op))

let config (w1, s1) (w2, s2) =
  {
    Cache.Timing.paper_config with
    l1_size = w1 * s1 * 32;
    l1_ways = w1;
    l2_size = w2 * s2 * 32;
    l2_ways = w2;
    line_bytes = 32;
  }

(* One single cache takes the [access*] ops and a hierarchy the
   [Cycles] ops, on both sides; after every op the results, the
   counters and the complete snapshot state must be equal. *)
let agrees_with_ref (g1, g2, ops) =
  let cfg = config g1 g2 in
  let c = Cache.create ~name:"c" ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways ~line_bytes:32 in
  let rc = Ref.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways ~line_bytes:32 in
  let h = Cache.Timing.create cfg and rh = Ref.timing cfg in
  let same_state () =
    Cache.snapshot_state c = Ref.snapshot_state rc
    && Cache.snapshot_state (Cache.Timing.l1 h) = Ref.snapshot_state rh.Ref.l1
    && Cache.snapshot_state (Cache.Timing.l2 h) = Ref.snapshot_state rh.Ref.l2
    && Cache.hits c = rc.Ref.hits
    && Cache.misses c = rc.Ref.misses
  in
  List.for_all
    (fun op ->
      let agree =
        match op with
        | Access a -> Cache.access c a = Ref.access rc a
        | Access_int a -> Cache.access_int c a = Ref.access_int rc a
        | Fetch a -> Cache.access_fetch c a = Ref.access_fetch rc a
        | Cycles (a, size) -> Cache.Timing.access_cycles h a ~size = Ref.access_cycles rh a ~size
      in
      if not agree then QCheck.Test.fail_reportf "%s disagrees" (pp_op op);
      same_state () || QCheck.Test.fail_reportf "state differs after %s" (pp_op op))
    ops

let prop_flat_equals_nested =
  QCheck.Test.make ~name:"flat cache equals the nested-array reference" ~count:300 arb_stream
    agrees_with_ref

(* The L1 hit path of [Timing.access_cycles]: data accesses of 1 to 8
   bytes, 15 in 16 of them inside a working set the size of L1, so
   that after the first touch of each line nearly every probe hits in
   whichever way holds it; the rest land in the same sets from further
   away and make the evictions that the hit path's LRU stamps decide. *)
let gen_hit_heavy =
  QCheck.Gen.(
    gen_geometry >>= fun ((w, s) as g1) ->
    gen_geometry >>= fun g2 ->
    let l1_bytes = w * s * 32 in
    let addr =
      frequency [ (15, int_bound (l1_bytes - 1)); (1, map (fun k -> (k * l1_bytes) + 16) (int_range 1 8)) ]
    in
    let op = map2 (fun a n -> Cycles (Int64.of_int a, n)) addr (oneofl [ 1; 2; 4; 8 ]) in
    map (fun ops -> (g1, g2, ops)) (list_size (int_range 1 300) op))

let prop_hit_path_equals_nested =
  QCheck.Test.make ~name:"L1 hit path equals the nested-array reference" ~count:300
    (QCheck.make ~print:print_stream gen_hit_heavy)
    agrees_with_ref

(* [restore_state] is the inverse of [snapshot_state]: a cache restored
   from a midpoint replays the rest of the stream exactly as the
   original does. *)
let prop_restore_replays =
  QCheck.Test.make ~name:"a restored cache replays the stream" ~count:200 arb_stream
    (fun ((w, s), _, ops) ->
      let make () = Cache.create ~name:"c" ~size_bytes:(w * s * 32) ~ways:w ~line_bytes:32 in
      let c = make () in
      let step c = function
        | Access a | Cycles (a, _) -> Cache.access c a
        | Access_int a -> Cache.access_int c a
        | Fetch a -> Cache.access_fetch c a
      in
      let half = List.length ops / 2 in
      List.iteri (fun i op -> if i < half then ignore (step c op)) ops;
      let c' = make () in
      Cache.restore_state c' (Cache.snapshot_state c);
      List.for_all (fun op -> step c op = step c' op) (List.filteri (fun i _ -> i >= half) ops)
      && Cache.snapshot_state c = Cache.snapshot_state c')

let suite =
  [
    QCheck_alcotest.to_alcotest prop_flat_equals_nested;
    QCheck_alcotest.to_alcotest prop_hit_path_equals_nested;
    QCheck_alcotest.to_alcotest prop_restore_replays;
  ]
