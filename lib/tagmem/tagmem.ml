module Telemetry = Cheri_telemetry.Telemetry

type store = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  data : store;
      (* a private mapping of /dev/zero: the kernel hands out a zero page
         on first touch, so an untouched page costs nothing *)
  tags : Bytes.t;  (* one bit per granule, packed *)
  granule : int;
  granule_shift : int;
  size64 : int64;  (* the data size, precomputed for the i64 range check *)
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

(* Int-typed [min]: [Stdlib.min] is polymorphic and compiles to a call
   into the runtime's generic compare. *)
let[@inline] imin (a : int) b = if a <= b then a else b

let chunk_shift = 12
let chunk_bytes = 1 lsl chunk_shift

(* Unchecked native-endian accessors: every call site sits behind
   [check_range] (or copies within a range already validated), and
   [le64]/[le32]/[le16] put the bytes in the little-endian order the
   store is defined in. [Sys.big_endian] is a constant, so on a
   little-endian host the swap compiles away. *)
external get16 : store -> int -> int = "%caml_bigstring_get16u"
external get32 : store -> int -> int32 = "%caml_bigstring_get32u"
external get64 : store -> int -> int64 = "%caml_bigstring_get64u"
external set16 : store -> int -> int -> unit = "%caml_bigstring_set16u"
external set32 : store -> int -> int32 -> unit = "%caml_bigstring_set32u"
external set64 : store -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external string_get64 : string -> int -> int64 = "%caml_string_get64u"

let[@inline] le16 v = if Sys.big_endian then bswap16 v else v
let[@inline] le32 v = if Sys.big_endian then bswap32 v else v
let[@inline] le64 v = if Sys.big_endian then bswap64 v else v
(* Typed as [store] so the compiler emits a direct byte load or store:
   an accessor whose kind and layout are left polymorphic compiles to
   the generic [caml_ba_get_1]/[caml_ba_set_1] C calls. *)
let[@inline] get_byte (d : store) a = Bigarray.Array1.unsafe_get d a
let[@inline] set_byte (d : store) a c = Bigarray.Array1.unsafe_set d a c

(* Copies between the store and OCaml bytes move 8 bytes at a time, in
   native order on both sides (so no swap); only a tail shorter than a
   word goes byte by byte. The caller has validated both ranges. *)
let blit_out d off buf pos len =
  let words = len lsr 3 in
  for i = 0 to words - 1 do
    bytes_set64 buf (pos + (i lsl 3)) (get64 d (off + (i lsl 3)))
  done;
  for j = words lsl 3 to len - 1 do
    Bytes.unsafe_set buf (pos + j) (get_byte d (off + j))
  done

let blit_in src pos d off len =
  let words = len lsr 3 in
  for i = 0 to words - 1 do
    set64 d (off + (i lsl 3)) (string_get64 src (pos + (i lsl 3)))
  done;
  for j = words lsl 3 to len - 1 do
    set_byte d (off + j) (String.unsafe_get src (pos + j))
  done

(* A private (copy-on-write) mapping of /dev/zero: the kernel supplies
   zero pages on first touch, so creating a memory costs O(1) and a
   program pays only for the pages it uses. [Unix.map_file] grows the
   "file" to the requested size by writing its last byte, which
   /dev/zero accepts and discards — hence O_RDWR. The descriptor is not
   needed once the mapping exists; the GC unmaps it with the bigarray. *)
let map_zeroed size =
  match Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      failwith ("Tagmem.create: cannot open /dev/zero: " ^ Unix.error_message e)
  | fd -> (
      match
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])
      with
      | exception Unix.Unix_error (e, _, _) ->
          failwith ("Tagmem.create: cannot map /dev/zero: " ^ Unix.error_message e)
      | g -> Bigarray.array1_of_genarray g)

let create ?(granule = 32) ~size_bytes () =
  if granule <= 0 || granule land (granule - 1) <> 0 then
    invalid_arg "Tagmem.create: granule must be a power of two";
  if size_bytes <= 0 || size_bytes mod granule <> 0 then
    invalid_arg "Tagmem.create: size must be a positive multiple of the granule";
  let granules = size_bytes / granule in
  {
    data = map_zeroed size_bytes;
    tags = Bytes.make ((granules + 7) / 8) '\000';
    granule;
    granule_shift = log2 granule;
    size64 = Int64.of_int size_bytes;
    sink = Telemetry.Sink.null;
    dirty = Bytes.make ((size_bytes + chunk_bytes - 1) / chunk_bytes) '\000';
    scanned = 0;
  }

let size t = Bigarray.Array1.dim t.data
let granule t = t.granule
let set_sink t sink = t.sink <- sink
let sink t = t.sink

(* The core API is int-addressed: the softcore computes addresses as
   unboxed int64s and narrows once, so taking a native int here keeps
   the address out of a heap box at the module boundary (the dev
   profile compiles with -opaque, which defeats cross-module inlining,
   so an int64 argument would cost one allocation per call). *)
let[@inline] check_range t a len =
  if a < 0 || len < 0 || a > size t - len then raise (Bus_error (Int64.of_int a))

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
  Bytes.set t.tags (gi lsr 3) (Char.unsafe_chr byte)

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
  Char.code (get_byte t.data a)

let store_byte t a v =
  check_range t a 1;
  set_byte t.data a (Char.unsafe_chr (v land 0xff));
  mark t a;
  clear_tags_in_range t a 1

let[@inline] load_int t a ~size:sz =
  check_range t a sz;
  match sz with
  | 1 -> Int64.of_int (Char.code (get_byte t.data a))
  | 2 -> Int64.of_int (le16 (get16 t.data a))
  | 4 -> Int64.logand (Int64.of_int32 (le32 (get32 t.data a))) 0xffffffffL
  | 8 -> le64 (get64 t.data a)
  | _ -> invalid_arg "Tagmem.load_int: size must be 1, 2, 4 or 8"

let[@inline] store_int t a ~size:sz v =
  check_range t a sz;
  (match sz with
  | 1 -> set_byte t.data a (Char.unsafe_chr (Int64.to_int (Int64.logand v 0xffL)))
  | 2 -> set16 t.data a (le16 (Int64.to_int (Int64.logand v 0xffffL)))
  | 4 -> set32 t.data a (le32 (Int64.to_int32 v))
  | 8 -> set64 t.data a (le64 v)
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
  le64 (get64 t.data a)

let[@inline] store_word t a v =
  check_range t a 8;
  set64 t.data a (le64 v);
  mark t a;
  mark t (a + 7);
  clear_tags_in_range t a 8

let load_bytes t a ~len =
  check_range t a len;
  let b = Bytes.create len in
  blit_out t.data a b 0 len;
  b

let store_bytes t a b =
  let len = Bytes.length b in
  check_range t a len;
  blit_in (Bytes.unsafe_to_string b) 0 t.data a len;
  mark_range t a len;
  clear_tags_in_range t a len

let cap_width = Cheri_core.Capability.byte_width

(* The capability spill/fill paths move the four 64-bit words directly
   between the byte store and the capability record — no intermediate
   array, no closure: these run once per CLC/CSC retired. *)

(* The meta word only carries bits 0-47 (perms, sealed, otype), so read
   it as one 64-bit load and keep the low 48 bits as a native int
   instead of boxing an Int64. [a] has already been bounds-checked for
   the full 32-byte capability, so the word at a+24 is in range. *)
let[@inline] meta_int t a = Int64.to_int (le64 (get64 t.data (a + 24))) land 0xffff_ffff_ffff

let load_cap t a =
  if a land (cap_width - 1) <> 0 then
    invalid_arg "Tagmem.load_cap: address must be capability-aligned";
  check_range t a cap_width;
  Cheri_core.Capability.of_raw_words
    ~tag:(tag_bit t (granule_index t a))
    ~base:(le64 (get64 t.data a))
    ~length:(le64 (get64 t.data (a + 8)))
    ~offset:(le64 (get64 t.data (a + 16)))
    ~meta:(meta_int t a)

let store_cap t a cap =
  if a land (cap_width - 1) <> 0 then
    invalid_arg "Tagmem.store_cap: address must be capability-aligned";
  check_range t a cap_width;
  set64 t.data a (le64 cap.Cheri_core.Capability.base);
  set64 t.data (a + 8) (le64 cap.Cheri_core.Capability.length);
  set64 t.data (a + 16) (le64 cap.Cheri_core.Capability.offset);
  set64 t.data (a + 24) (le64 (Cheri_core.Capability.meta_word cap));
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
  Bytes.set_int64_le base pos (le64 (get64 t.data a));
  Bytes.set_int64_le len pos (le64 (get64 t.data (a + 8)));
  Bytes.set_int64_le off pos (le64 (get64 t.data (a + 16)));
  let m = meta_int t a in
  Bytes.set_int64_le otype pos (Int64.of_int ((m lsr 16) land 0xffffffff));
  (m land 0x1ff) lor (if tag_bit t (granule_index t a) then 0x200 else 0)

let store_cap_fields t a ~base ~len ~off ~pos ~meta ~otype =
  if a land (cap_width - 1) <> 0 then
    invalid_arg "Tagmem.store_cap: address must be capability-aligned";
  check_range t a cap_width;
  set64 t.data a (le64 (Bytes.get_int64_le base pos));
  set64 t.data (a + 8) (le64 (Bytes.get_int64_le len pos));
  set64 t.data (a + 16) (le64 (Bytes.get_int64_le off pos));
  (* spill meta word: perms + sealed in the low 9 bits, otype's low 32
     bits in bits 16-47 — exactly [Capability.meta_word] *)
  set64 t.data (a + 24)
    (le64 (Int64.of_int ((meta land 0x1ff) lor ((otype land 0xffffffff) lsl 16))));
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
  set_byte t.data a (Char.unsafe_chr (v land 0xff));
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

(* Is [off .. off+len) all zero? Scan 8 bytes at a time; [len] is a
   whole page except possibly the last page of an odd-sized store. *)
let data_is_zero d off len =
  let words = len lsr 3 in
  let rec go i =
    if i < words then get64 d (off + (i lsl 3)) = 0L && go (i + 1)
    else
      let rec tail j = j >= len || (get_byte d (off + j) = '\000' && tail (j + 1)) in
      tail (words lsl 3)
  in
  go 0

(* The tag store is 1/256 of the data, and a save scans one or two of
   its pages: byte by byte is fast enough. *)
let bytes_is_zero buf off len =
  let rec go j = j >= len || (Bytes.unsafe_get buf (off + j) = '\000' && go (j + 1)) in
  go 0

(* The (index, length) of every nonzero page of an [n]-byte store,
   ascending, zero-scanning only those for which [live off len] holds —
   the rest are zero by the dirty invariant. *)
let nonzero_pages t n ~page_bytes ~live ~is_zero =
  let acc = ref [] in
  for idx = ((n + page_bytes - 1) / page_bytes) - 1 downto 0 do
    let off = idx * page_bytes in
    let len = imin page_bytes (n - off) in
    if live off len then begin
      t.scanned <- t.scanned + 1;
      if not (is_zero off len) then acc := (idx, len) :: !acc
    end
  done;
  !acc

let check_page_bytes who page_bytes =
  if page_bytes <= 0 || page_bytes mod 8 <> 0 then
    invalid_arg (who ^ ": page size must be a positive multiple of 8")

let scan_pages t ~page_bytes =
  check_page_bytes "Tagmem.scan_pages" page_bytes;
  let n = size t in
  (* tag byte [i] holds the bits of the 8 granules from [i * 8] *)
  let tag_data_range off len =
    let lo = (off * 8) lsl t.granule_shift in
    any_marked t lo (imin (((off + len) * 8) lsl t.granule_shift) n - 1)
  in
  let data =
    nonzero_pages t n ~page_bytes
      ~live:(fun off len -> any_marked t off (off + len - 1))
      ~is_zero:(data_is_zero t.data)
  in
  let tags =
    nonzero_pages t (Bytes.length t.tags) ~page_bytes ~live:tag_data_range
      ~is_zero:(bytes_is_zero t.tags)
  in
  (data, List.map (fun (idx, len) -> (idx, Bytes.sub_string t.tags (idx * page_bytes) len)) tags)

let blit_data_page t ~page_bytes idx buf pos =
  check_page_bytes "Tagmem.blit_data_page" page_bytes;
  let n = size t in
  if idx < 0 || idx > (n - 1) / page_bytes then
    invalid_arg "Tagmem.blit_data_page: page outside the store";
  let off = idx * page_bytes in
  let len = imin page_bytes (n - off) in
  if pos < 0 || pos > Bytes.length buf - len then
    invalid_arg "Tagmem.blit_data_page: page does not fit the buffer";
  blit_out t.data off buf pos len

let snapshot_pages t ~page_bytes =
  let data, tags = scan_pages t ~page_bytes in
  let copy (idx, len) =
    let b = Bytes.create len in
    blit_out t.data (idx * page_bytes) b 0 len;
    (idx, Bytes.unsafe_to_string b)
  in
  (List.map copy data, tags)

let pages_scanned t = t.scanned

(* Does page [idx] of [len] bytes lie inside a store of [n] bytes?
   Subtraction form: [idx * page_bytes + len] can wrap for a huge
   [idx], and a wrapped sum would pass. *)
let page_fits ~page_bytes n (idx, page) =
  let len = String.length page in
  idx >= 0 && len <= n && idx <= (n - len) / page_bytes

let restore_pages t ~page_bytes ~data ~tags =
  check_page_bytes "Tagmem.restore_pages" page_bytes;
  let n = size t in
  if
    not
      (List.for_all (page_fits ~page_bytes n) data
      && List.for_all (page_fits ~page_bytes (Bytes.length t.tags)) tags)
  then invalid_arg "Tagmem.restore_pages: page outside the store";
  (* Zero every marked chunk — its data and the tag bytes of the
     granules it overlaps — and unmark it. A whole tag byte may reach
     into a neighbouring chunk; if that chunk is unmarked its tags are
     clear already, and if it is marked it is zeroed here too. *)
  for c = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty c <> '\000' then begin
      let lo = c lsl chunk_shift in
      let len = imin chunk_bytes (n - lo) in
      Bigarray.Array1.(fill (sub t.data lo len) '\000');
      let fb = granule_index t lo lsr 3 and lb = granule_index t (lo + len - 1) lsr 3 in
      Bytes.fill t.tags fb (lb - fb + 1) '\000';
      Bytes.unsafe_set t.dirty c '\000'
    end
  done;
  List.iter
    (fun (idx, page) ->
      let off = idx * page_bytes in
      blit_in page 0 t.data off (String.length page);
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
                mark t (imin (((off + i) * 8) + bit) last lsl t.granule_shift)
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
