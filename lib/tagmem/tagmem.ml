module Telemetry = Cheri_telemetry.Telemetry

type t = {
  data : Bytes.t;
  tags : Bytes.t;  (* one bit per granule, packed *)
  granule : int;
  granule_shift : int;
  size64 : int64;  (* Bytes.length data, precomputed for the i64 range check *)
  mutable sink : Telemetry.Sink.t;
  dirty : Bytes.t;
      (* one byte per [chunk_bytes] of data, nonzero once the chunk may
         hold a nonzero byte or the base of a tagged granule; see the
         snapshot hooks below *)
  mutable scanned : int;  (* pages [snapshot_pages] has zero-scanned *)
}

(* Same-module copy of Bits.uge: -opaque in the dev profile defeats
   cross-module inlining, and the range check runs once per memory
   access. *)
let[@inline] uge a b = not (Int64.add a Int64.min_int < Int64.add b Int64.min_int)

exception Bus_error of int64

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let chunk_shift = 12
let chunk_bytes = 1 lsl chunk_shift

let create ?(granule = 32) ~size_bytes () =
  if granule <= 0 || granule land (granule - 1) <> 0 then
    invalid_arg "Tagmem.create: granule must be a power of two";
  if size_bytes <= 0 || size_bytes mod granule <> 0 then
    invalid_arg "Tagmem.create: size must be a positive multiple of the granule";
  let granules = size_bytes / granule in
  {
    data = Bytes.make size_bytes '\000';
    tags = Bytes.make ((granules + 7) / 8) '\000';
    granule;
    granule_shift = log2 granule;
    size64 = Int64.of_int size_bytes;
    sink = Telemetry.Sink.null;
    dirty = Bytes.make ((size_bytes + chunk_bytes - 1) / chunk_bytes) '\000';
    scanned = 0;
  }

let size t = Bytes.length t.data
let granule t = t.granule
let set_sink t sink = t.sink <- sink
let sink t = t.sink

(* The core API is int-addressed: the softcore computes addresses as
   unboxed int64s and narrows once, so taking a native int here keeps
   the address out of a heap box at the module boundary (the dev
   profile compiles with -opaque, which defeats cross-module inlining,
   so an int64 argument would cost one allocation per call). *)
let[@inline] check_range t a len =
  if a < 0 || len < 0 || a + len > size t then raise (Bus_error (Int64.of_int a))

let[@inline] granule_index t a = a lsr t.granule_shift

(* Mark the chunk holding in-range address [a] as possibly nonzero.
   Every writer below calls this (a multi-byte store marks its first
   and last byte, which covers any store of <= [chunk_bytes]), so an
   unmarked chunk is zero by construction and the snapshot scan can
   skip it without reading it. *)
let[@inline] mark t a = Bytes.unsafe_set t.dirty (a lsr chunk_shift) '\001'

let mark_range t a len =
  if len > 0 then
    Bytes.fill t.dirty (a lsr chunk_shift)
      (((a + len - 1) lsr chunk_shift) - (a lsr chunk_shift) + 1)
      '\001'

let[@inline] tag_bit t gi = Char.code (Bytes.get t.tags (gi lsr 3)) land (1 lsl (gi land 7)) <> 0

(* Setting a tag marks the chunk holding the granule's base, so a
   tagged capability whose data bytes are all zero still travels. *)
let set_tag_bit t gi v =
  if v then mark t (gi lsl t.granule_shift);
  let byte = Char.code (Bytes.get t.tags (gi lsr 3)) in
  let mask = 1 lsl (gi land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.tags (gi lsr 3) (Char.chr byte)

(* Clear the tags of every granule [a, a+len) touches. [collateral] is
   true on the data path — a plain store detagging a live capability is
   the §4.2 integrity rule firing, and telemetry counts those — and
   false when {!store_cap} intentionally overwrites a granule.

   Fast path: plain data stores to untagged memory are the single most
   common memory operation, so first check whether the covering tag
   byte(s) hold any set bit at all. When they are already zero there is
   nothing to clear (and nothing for telemetry to report), and the
   per-granule loop is skipped entirely. A store of <= 8*granule bytes
   covers granules within one or two tag bytes, so the check is one or
   two byte loads. *)
let clear_tags_in_range ?(collateral = true) t a len =
  if len > 0 then begin
    let first = granule_index t a and last = granule_index t (a + len - 1) in
    let fb = first lsr 3 and lb = last lsr 3 in
    let untouched =
      if fb = lb then
        (* all covered granules fall in one tag byte: mask out exactly
           the bits [first..last] (at most 8, so the shift is safe) *)
        let m = ((1 lsl (last - first + 1)) - 1) lsl (first land 7) in
        Char.code (Bytes.unsafe_get t.tags fb) land m = 0
      else
        (* conservative multi-byte check: any set bit in a covering
           byte — even outside the range — takes the slow path *)
        let rec all_zero i =
          i > lb || (Char.code (Bytes.unsafe_get t.tags i) = 0 && all_zero (i + 1))
        in
        all_zero fb
    in
    if not untouched then
      if Telemetry.Sink.is_null t.sink then
        for gi = first to last do
          set_tag_bit t gi false
        done
      else
        for gi = first to last do
          if tag_bit t gi then begin
            if collateral then
              Telemetry.Sink.record t.sink
                (Telemetry.Tag_clear { addr = Int64.of_int (gi lsl t.granule_shift) });
            set_tag_bit t gi false
          end
        done
  end

(* -- data path ----------------------------------------------------------- *)

let load_byte t a =
  check_range t a 1;
  Char.code (Bytes.get t.data a)

let store_byte t a v =
  check_range t a 1;
  Bytes.set t.data a (Char.chr (v land 0xff));
  mark t a;
  clear_tags_in_range t a 1

let[@inline] load_int t a ~size:sz =
  check_range t a sz;
  match sz with
  | 1 -> Int64.of_int (Char.code (Bytes.get t.data a))
  | 2 -> Int64.of_int (Bytes.get_uint16_le t.data a)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data a)) 0xffffffffL
  | 8 -> Bytes.get_int64_le t.data a
  | _ -> invalid_arg "Tagmem.load_int: size must be 1, 2, 4 or 8"

let[@inline] store_int t a ~size:sz v =
  check_range t a sz;
  (match sz with
  | 1 -> Bytes.set t.data a (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
  | 2 -> Bytes.set_uint16_le t.data a (Int64.to_int (Int64.logand v 0xffffL))
  | 4 -> Bytes.set_int32_le t.data a (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le t.data a v
  | _ -> invalid_arg "Tagmem.store_int: size must be 1, 2, 4 or 8");
  mark t a;
  mark t (a + sz - 1);
  clear_tags_in_range t a sz

(* Width-specialized word path: the 8-byte case is the overwhelming
   majority of scalar traffic, so give the softcore a variant with no
   size dispatch. Semantics identical to [load_int]/[store_int] at
   [~size:8]. *)
let[@inline] load_word t a =
  check_range t a 8;
  Bytes.get_int64_le t.data a

let[@inline] store_word t a v =
  check_range t a 8;
  Bytes.set_int64_le t.data a v;
  mark t a;
  mark t (a + 7);
  clear_tags_in_range t a 8

let load_bytes t a ~len =
  check_range t a len;
  Bytes.sub t.data a len

let store_bytes t a b =
  let len = Bytes.length b in
  check_range t a len;
  Bytes.blit b 0 t.data a len;
  mark_range t a len;
  clear_tags_in_range t a len

let cap_width = Cheri_core.Capability.byte_width

(* The capability spill/fill paths move the four 64-bit words directly
   between the byte store and the capability record — no intermediate
   array, no closure: these run once per CLC/CSC retired. *)

(* The meta word only carries bits 0-47 (perms, sealed, otype), so read
   the six live bytes into a native int instead of boxing an Int64.
   [a] has already been bounds-checked for the full 32-byte capability,
   so the byte reads at a+24 .. a+29 are in range. *)
let[@inline] meta_int t a =
  let g i = Char.code (Bytes.unsafe_get t.data (a + 24 + i)) in
  g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24) lor (g 4 lsl 32) lor (g 5 lsl 40)

let load_cap t a =
  if a land (cap_width - 1) <> 0 then
    invalid_arg "Tagmem.load_cap: address must be capability-aligned";
  check_range t a cap_width;
  Cheri_core.Capability.of_raw_words
    ~tag:(tag_bit t (granule_index t a))
    ~base:(Bytes.get_int64_le t.data a)
    ~length:(Bytes.get_int64_le t.data (a + 8))
    ~offset:(Bytes.get_int64_le t.data (a + 16))
    ~meta:(meta_int t a)

let store_cap t a cap =
  if a land (cap_width - 1) <> 0 then
    invalid_arg "Tagmem.store_cap: address must be capability-aligned";
  check_range t a cap_width;
  Bytes.set_int64_le t.data a cap.Cheri_core.Capability.base;
  Bytes.set_int64_le t.data (a + 8) cap.Cheri_core.Capability.length;
  Bytes.set_int64_le t.data (a + 16) cap.Cheri_core.Capability.offset;
  Bytes.set_int64_le t.data (a + 24) (Cheri_core.Capability.meta_word cap);
  mark t a;
  (* A capability store touches exactly one granule when the granule is
     >= the capability width; clear everything it covers first, then
     set the capability's own tag on its granule. *)
  clear_tags_in_range ~collateral:false t a cap_width;
  set_tag_bit t (granule_index t a) cap.Cheri_core.Capability.tag;
  if not (Telemetry.Sink.is_null t.sink) then
    Telemetry.Sink.record t.sink
      (Telemetry.Tag_write
         { addr = Int64.of_int a; tag = cap.Cheri_core.Capability.tag })

(* Record-free capability transfer for the softcore's struct-of-arrays
   register file: the three payload words move between the byte store
   and caller-owned 64-bit lanes at [pos], and the book-keeping bits
   travel as one native int (perms in bits 0-7 and sealed in bit 8 —
   the spill encoding — plus the granule tag in bit 9), so a CLC/CSC
   never materializes a [Capability.t]. Bit-identical to
   {!load_cap}/{!store_cap} composed with the record constructors. *)

let load_cap_fields t a ~base ~len ~off ~otype ~pos =
  if a land (cap_width - 1) <> 0 then
    invalid_arg "Tagmem.load_cap: address must be capability-aligned";
  check_range t a cap_width;
  Bytes.set_int64_le base pos (Bytes.get_int64_le t.data a);
  Bytes.set_int64_le len pos (Bytes.get_int64_le t.data (a + 8));
  Bytes.set_int64_le off pos (Bytes.get_int64_le t.data (a + 16));
  let m = meta_int t a in
  Bytes.set_int64_le otype pos (Int64.of_int ((m lsr 16) land 0xffffffff));
  (m land 0x1ff) lor (if tag_bit t (granule_index t a) then 0x200 else 0)

let store_cap_fields t a ~base ~len ~off ~pos ~meta ~otype =
  if a land (cap_width - 1) <> 0 then
    invalid_arg "Tagmem.store_cap: address must be capability-aligned";
  check_range t a cap_width;
  Bytes.set_int64_le t.data a (Bytes.get_int64_le base pos);
  Bytes.set_int64_le t.data (a + 8) (Bytes.get_int64_le len pos);
  Bytes.set_int64_le t.data (a + 16) (Bytes.get_int64_le off pos);
  (* spill meta word: perms + sealed in the low 9 bits, otype's low 32
     bits in bits 16-47 — exactly [Capability.meta_word] *)
  Bytes.set_int64_le t.data (a + 24)
    (Int64.of_int ((meta land 0x1ff) lor ((otype land 0xffffffff) lsl 16)));
  mark t a;
  clear_tags_in_range ~collateral:false t a cap_width;
  let tag = meta land 0x200 <> 0 in
  set_tag_bit t (granule_index t a) tag;
  if not (Telemetry.Sink.is_null t.sink) then
    Telemetry.Sink.record t.sink (Telemetry.Tag_write { addr = Int64.of_int a; tag })

let tag_at t a =
  check_range t a 1;
  tag_bit t (granule_index t a)

let clear_tag_at t a =
  check_range t a 1;
  set_tag_bit t (granule_index t a) false

(* -- fault-injection hooks ---------------------------------------------- *)
(* These two deliberately bypass the integrity rule: they model faults
   below the architecture (tag-line SEUs, tag loss during paging), not
   stores. Nothing on the execution path calls them. *)

let set_tag_at t a =
  check_range t a 1;
  set_tag_bit t (granule_index t a) true

let poke_raw t a v =
  check_range t a 1;
  Bytes.set t.data a (Char.chr (v land 0xff));
  mark t a

(* -- legacy int64-addressed wrappers ------------------------------------- *)
(* Compatibility layer for callers that still hold addresses as int64
   (campaign harnesses, GC root scans, tests). Each wrapper re-checks
   the unsigned range against the store size before narrowing, so a
   huge/negative int64 address raises [Bus_error addr] with the
   original address — exactly the behavior of the pre-collapse dual
   API. New code should narrow once and use the int-addressed core
   above; these exist only until the remaining callers migrate. *)

let[@inline] narrow t addr =
  if uge addr t.size64 then raise (Bus_error addr);
  Int64.to_int addr

let load_byte_i64 t addr = load_byte t (narrow t addr)
let store_byte_i64 t addr v = store_byte t (narrow t addr) v
let load_int_i64 t ~addr ~size:sz = load_int t (narrow t addr) ~size:sz
let store_int_i64 t ~addr ~size:sz v = store_int t (narrow t addr) ~size:sz v
let load_bytes_i64 t ~addr ~len = load_bytes t (narrow t addr) ~len
let store_bytes_i64 t ~addr b = store_bytes t (narrow t addr) b
let load_cap_i64 t ~addr = load_cap t (narrow t addr)
let store_cap_i64 t ~addr cap = store_cap t (narrow t addr) cap
let tag_at_i64 t addr = tag_at t (narrow t addr)
let clear_tag_at_i64 t addr = clear_tag_at t (narrow t addr)
let set_tag_at_i64 t addr = set_tag_at t (narrow t addr)
let poke_raw_i64 t addr v = poke_raw t (narrow t addr) v

(* -- snapshot hooks ------------------------------------------------------ *)
(* Raw page-granular dump/load of the two underlying stores, bypassing
   the integrity rule (a restore must reproduce tags exactly, not clear
   them). Only the snapshot subsystem calls these. Both cost
   O(marked chunks), not O(store): the dirty bitmap says which chunks
   may be nonzero, and everything else is zero by construction. *)

(* Does any chunk overlapping data bytes [lo, hi] carry a mark? *)
let any_marked t lo hi =
  let rec go c last = c <= last && (Bytes.unsafe_get t.dirty c <> '\000' || go (c + 1) last) in
  go (lo lsr chunk_shift) (hi lsr chunk_shift)

(* Is [buf.[off .. off+len)] all zero? Scan 8 bytes at a time; [len] is
   a whole page except possibly the last page of an odd-sized store. *)
let page_is_zero buf off len =
  let words = len / 8 in
  let rec go i =
    if i < words then Bytes.get_int64_le buf (off + (i * 8)) = 0L && go (i + 1)
    else
      let rec tail j = j >= len || (Bytes.get buf (off + j) = '\000' && tail (j + 1)) in
      tail (words * 8)
  in
  go 0

(* The nonzero pages of [buf], zero-scanning only those for which
   [live off len] holds — the rest are zero by the dirty invariant. *)
let dump_pages t buf ~page_bytes ~live =
  let n = Bytes.length buf in
  let acc = ref [] in
  for idx = ((n + page_bytes - 1) / page_bytes) - 1 downto 0 do
    let off = idx * page_bytes in
    let len = min page_bytes (n - off) in
    if live off len then begin
      t.scanned <- t.scanned + 1;
      if not (page_is_zero buf off len) then
        acc := (idx, Bytes.sub_string buf off len) :: !acc
    end
  done;
  !acc

let check_page_bytes who page_bytes =
  if page_bytes <= 0 || page_bytes mod 8 <> 0 then
    invalid_arg (who ^ ": page size must be a positive multiple of 8")

let snapshot_pages t ~page_bytes =
  check_page_bytes "Tagmem.snapshot_pages" page_bytes;
  let n = size t in
  (* tag byte [i] holds the bits of the 8 granules from [i * 8] *)
  let tag_data_range off len =
    let lo = (off * 8) lsl t.granule_shift in
    any_marked t lo (min (((off + len) * 8) lsl t.granule_shift) n - 1)
  in
  ( dump_pages t t.data ~page_bytes ~live:(fun off len -> any_marked t off (off + len - 1)),
    dump_pages t t.tags ~page_bytes ~live:tag_data_range )

let pages_scanned t = t.scanned

let restore_pages t ~page_bytes ~data ~tags =
  check_page_bytes "Tagmem.restore_pages" page_bytes;
  let fits buf =
    List.for_all (fun (idx, (page : string)) ->
        idx >= 0 && (idx * page_bytes) + String.length page <= Bytes.length buf)
  in
  if not (fits t.data data && fits t.tags tags) then
    invalid_arg "Tagmem.restore_pages: page outside the store";
  (* Zero every marked chunk — its data and the tag bytes of the
     granules it overlaps — and unmark it. A whole tag byte may reach
     into a neighbouring chunk; if that chunk is unmarked its tags are
     clear already, and if it is marked it is zeroed here too. *)
  let n = size t in
  for c = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty c <> '\000' then begin
      let lo = c lsl chunk_shift in
      let len = min chunk_bytes (n - lo) in
      Bytes.fill t.data lo len '\000';
      let fb = granule_index t lo lsr 3 and lb = granule_index t (lo + len - 1) lsr 3 in
      Bytes.fill t.tags fb (lb - fb + 1) '\000';
      Bytes.unsafe_set t.dirty c '\000'
    end
  done;
  List.iter
    (fun (idx, page) ->
      let off = idx * page_bytes in
      Bytes.blit_string page 0 t.data off (String.length page);
      mark_range t off (String.length page))
    data;
  (* mark the base chunk of every restored tag; a padding bit past the
     last granule marks the last granule's chunk instead *)
  let last = (n lsr t.granule_shift) - 1 in
  List.iter
    (fun (idx, page) ->
      let off = idx * page_bytes in
      Bytes.blit_string page 0 t.tags off (String.length page);
      String.iteri
        (fun i c ->
          if c <> '\000' then
            for bit = 0 to 7 do
              if Char.code c land (1 lsl bit) <> 0 then
                mark t (min (((off + i) * 8) + bit) last lsl t.granule_shift)
            done)
        page)
    tags

let count_tags t =
  let n = ref 0 in
  let granules = size t / t.granule in
  for gi = 0 to granules - 1 do
    if tag_bit t gi then incr n
  done;
  !n

let iter_tagged t f =
  let granules = size t / t.granule in
  for gi = 0 to granules - 1 do
    if tag_bit t gi then f (Int64.of_int (gi * t.granule))
  done
