(** Tagged physical memory.

    A flat byte store with one out-of-band tag bit per naturally
    aligned granule (256 bits by default, matching the paper's "a
    single tag bit per 256 bits of memory"). The tag marks the granule
    as holding a valid capability. The integrity rule is enforced
    here: any plain data store that touches a granule clears its tag,
    so a capability corrupted through the data path can never be
    dereferenced again (§4.2: "Conventional stores to an in-memory
    capability cause the tag bit to be cleared").

    Addresses are virtual addresses starting at 0; the simulator does
    not model translation (the paper's abstract machine always means
    virtual memory, §3). The core API takes addresses as native ints —
    the softcore computes addresses as unboxed int64s and narrows once,
    and an int argument never crosses the module boundary in a heap box
    (the dev profile compiles with -opaque, defeating cross-module
    inlining, so an int64 argument would cost one allocation per call).
    Accesses outside the configured size raise {!Bus_error} — that is a
    simulator configuration error, not a modelled trap. Callers still
    holding int64 addresses use the [_i64] wrappers in the legacy
    section below. *)

type t

exception Bus_error of int64

val create : ?granule:int -> size_bytes:int -> unit -> t
(** [create ~size_bytes ()] allocates zeroed memory with clear tags.
    [granule] is the tag granularity in bytes (default 32; must be a
    power of two and at least {!Cheri_core.Capability.byte_width} for
    capability stores to be representable).

    {b Backing and cost.} The data store is a private (copy-on-write)
    mapping of [/dev/zero], outside the OCaml heap: the kernel supplies
    a zero page on first touch, so [create] costs O(1) in the data size
    and a program pays only for the pages it touches. The descriptor is
    closed before [create] returns, and the mapping goes when the GC
    collects the memory. Only the tag store (one bit per granule) and
    the dirty bitmap (one byte per 4 KiB) live on the OCaml heap —
    136 KiB for 32 MiB. Tags stay out of band: a data page the kernel
    has never materialized is zero with clear tags, exactly like one
    that was written and zeroed, and the dirty invariant of the
    snapshot hooks below is unchanged. Raises [Failure] naming
    [/dev/zero] if it cannot be opened or mapped. *)

val size : t -> int
val granule : t -> int

val set_sink : t -> Cheri_telemetry.Telemetry.Sink.t -> unit
(** Attach a telemetry sink. A live sink receives a [Tag_write] event
    for every capability store and a [Tag_clear] event whenever a
    plain data store detags a granule that held a valid capability
    (the collateral invalidation the tag-granularity ablation
    measures). The default {!Cheri_telemetry.Telemetry.Sink.null}
    keeps the data path on its uninstrumented fast loop. *)

val sink : t -> Cheri_telemetry.Telemetry.Sink.t

(** {1 Data path} — every write clears the tags of all touched granules. *)

val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

val load_int : t -> int -> size:int -> int64
(** Little-endian load of [size] bytes (1, 2, 4 or 8), zero-extended. *)

val store_int : t -> int -> size:int -> int64 -> unit

val load_word : t -> int -> int64
(** [load_int ~size:8] without the size dispatch. *)

val store_word : t -> int -> int64 -> unit
(** [store_int ~size:8] without the size dispatch. *)

val load_bytes : t -> int -> len:int -> bytes
val store_bytes : t -> int -> bytes -> unit

(** {1 Capability path} *)

val load_cap : t -> int -> Cheri_core.Capability.t
(** Load 32 bytes plus the granule tag as a capability. The address
    must be capability-aligned; misalignment raises [Invalid_argument]
    (alignment is checked by the ISA before reaching memory). If the
    granule's tag is clear the result is the untagged bit pattern. *)

val store_cap : t -> int -> Cheri_core.Capability.t -> unit
(** Store 32 bytes and set/clear the granule tag from the capability's
    own tag. *)

val load_cap_fields :
  t -> int ->
  base:Bytes.t -> len:Bytes.t -> off:Bytes.t -> otype:Bytes.t -> pos:int ->
  int
(** Record-free [load_cap] for a struct-of-arrays register file: the
    base/length/offset words are written little-endian into the given
    lanes at byte offset [pos], the otype word (zero-extended from the
    spill's 32 bits) into [otype], and the return value packs perms in
    bits 0-7, sealed in bit 8 and the granule tag in bit 9.
    Bit-identical to [load_cap] followed by field projection. *)

val store_cap_fields :
  t -> int ->
  base:Bytes.t -> len:Bytes.t -> off:Bytes.t -> pos:int ->
  meta:int -> otype:int ->
  unit
(** Record-free [store_cap]: reads the three payload words from the
    lanes at [pos]; [meta] uses the [load_cap_fields] packing (bit 9 is
    the tag to store) and [otype]'s low 32 bits land in spill bits
    16-47. *)

val tag_at : t -> int -> bool
(** The tag of the granule containing this address. *)

val clear_tag_at : t -> int -> unit

(** {1 Fault-injection hooks}

    Used only by {!Cheri_inject} to model faults that happen *below*
    the architecture — a tag line flipping in SRAM, tag bits lost while
    a page is swapped (the failure mode of "Pitfalls in VM
    Implementation on CHERI"), a DMA write that bypasses the tag
    controller. They deliberately skip the §4.2 integrity rule and the
    telemetry events; no instruction-execution path calls them. *)

val set_tag_at : t -> int -> unit
(** Force the tag of the granule containing this address — forging
    validity onto whatever bytes are there. *)

val poke_raw : t -> int -> int -> unit
(** Overwrite one data byte {e without} clearing the granule tag: the
    hardware-fault analogue of {!store_byte}. A capability corrupted
    this way keeps its tag — exactly the corruption CHERI's tag bit
    does {e not} defend against (tags are not a checksum). *)

(** {1 LEGACY int64-addressed wrappers}

    The pre-collapse API took every address as an [int64]; these
    wrappers keep those callers compiling. Each re-checks the unsigned
    range against the store size before narrowing, so a huge or
    negative address raises [Bus_error] carrying the {e original}
    int64, byte-identical to the old behavior. New code should narrow
    once and call the int-addressed core; this section is slated for
    removal once the remaining campaign/GC/test callers migrate. *)

val load_byte_i64 : t -> int64 -> int
val store_byte_i64 : t -> int64 -> int -> unit
val load_int_i64 : t -> addr:int64 -> size:int -> int64
val store_int_i64 : t -> addr:int64 -> size:int -> int64 -> unit
val load_bytes_i64 : t -> addr:int64 -> len:int -> bytes
val store_bytes_i64 : t -> addr:int64 -> bytes -> unit
val load_cap_i64 : t -> addr:int64 -> Cheri_core.Capability.t
val store_cap_i64 : t -> addr:int64 -> Cheri_core.Capability.t -> unit
val tag_at_i64 : t -> int64 -> bool
val clear_tag_at_i64 : t -> int64 -> unit
val set_tag_at_i64 : t -> int64 -> unit
val poke_raw_i64 : t -> int64 -> int -> unit

(** {1 Snapshot hooks}

    Page-granular raw dump/load of the data and tag stores for the
    snapshot subsystem ({!Cheri_snapshot}). Like the fault-injection
    hooks these sit {e below} the architecture: [restore_pages]
    reinstates tag bits verbatim instead of letting the §4.2 integrity
    rule clear them, and neither path emits telemetry. A freshly
    created memory is all-zero with clear tags, so only nonzero pages
    need to travel — a 32 MiB address space with 2 MiB touched dumps
    as ~2 MiB.

    {b Cost model.} The memory keeps a dirty bitmap of one byte per
    4 KiB data chunk. Every writer in this module marks the chunks it
    touches, and setting a tag marks the chunk holding the granule's
    base. The invariant is: {e an unmarked chunk holds only zero bytes,
    and no granule based in it is tagged}. Both hooks rely on it, so
    their cost is proportional to the marked chunks plus the pages they
    move, not to the store: [snapshot_pages] zero-scans only pages
    overlapping a marked chunk, and [restore_pages] zeroes only marked
    chunks. Marks are cleared only by [restore_pages]; a chunk that was
    written and later zeroed stays marked and is scanned (and found
    zero) on every snapshot until then. *)

val snapshot_pages : t -> page_bytes:int -> (int * string) list * (int * string) list
(** [(data_pages, tag_pages)]: every page (index, contents) of the
    respective store holding at least one nonzero byte, ascending by
    index. The final page of an odd-sized store may be short. A data
    page is zero-scanned only if it overlaps a marked chunk, a tag page
    only if the data its granules cover does. [page_bytes] must be a
    positive multiple of 8 (the zero scan reads whole words); raises
    [Invalid_argument] otherwise. *)

val scan_pages : t -> page_bytes:int -> (int * int) list * (int * string) list
(** {!snapshot_pages} without copying the data pages out: the
    (index, length) of every nonzero data page, ascending, beside the
    tag pages with their contents. Scans (and counts toward
    {!pages_scanned}) exactly what [snapshot_pages] does. A streaming
    writer copies each listed page with {!blit_data_page} while the
    memory is unchanged. *)

val blit_data_page : t -> page_bytes:int -> int -> Bytes.t -> int -> unit
(** [blit_data_page t ~page_bytes idx buf pos] copies data page [idx]
    — [page_bytes] long, shorter only for the last page of an
    odd-sized store — into [buf] at [pos], 8 bytes at a time. Raises
    [Invalid_argument] if the page lies outside the store or does not
    fit [buf] at [pos]. *)

val pages_scanned : t -> int
(** Total pages (data and tag) that {!snapshot_pages} has zero-scanned
    on this memory since it was created: the deterministic work proxy
    of a checkpoint. *)

val restore_pages :
  t -> page_bytes:int -> data:(int * string) list -> tags:(int * string) list -> unit
(** Zero both stores, then blit the given pages back — the exact
    inverse of {!snapshot_pages} under the same [page_bytes]. Zeroing
    touches only the marked chunks, which are then unmarked; the
    restored data pages, and the base chunk of every restored tag, are
    marked afresh. Every page is validated first: if one falls outside
    its store (a snapshot for a differently sized memory) it raises
    [Invalid_argument] and the memory is left unchanged. *)

val count_tags : t -> int
(** Number of set tag bits — used by the garbage collector's root scan
    and by tests. *)

val iter_tagged : t -> (int64 -> unit) -> unit
(** Iterate the base address of every tagged granule, ascending. *)
