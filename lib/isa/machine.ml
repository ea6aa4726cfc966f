open Cheri_util
module Cap = Cheri_core.Capability
module Ops = Cheri_core.Cap_ops
module Fault = Cheri_core.Cap_fault
module Perms = Cheri_core.Perms
module Mem = Cheri_tagmem.Tagmem
module Telemetry = Cheri_telemetry.Telemetry

type config = {
  revision : Ops.revision;
  mem_size : int;
  data_base : int64;
  stack_bytes : int;
  timing : Cache.Timing.config;
  trap_on_signed_overflow : bool;
}

let default_config revision =
  {
    revision;
    mem_size = 32 * 1024 * 1024;
    data_base = 0x10000L;
    stack_bytes = 1024 * 1024;
    timing = Cache.Timing.paper_config;
    trap_on_signed_overflow = false;
  }

type trap =
  | Cap_trap of Fault.t
  | Overflow_trap
  | Div_by_zero
  | Bus_trap of int64
  | Unresolved_operand
  | Invalid_syscall of int64
  | Out_of_memory
  | Invalid_free of int64
  | Pc_out_of_range of int

type outcome =
  | Exit of int64
  | Trap of { trap : trap; pc : int }
  | Fuel_exhausted
  | Deadline_exceeded
  | Yielded

let pp_trap ppf = function
  | Cap_trap f -> Format.fprintf ppf "capability trap: %a" Fault.pp f
  | Overflow_trap -> Format.pp_print_string ppf "signed overflow trap"
  | Div_by_zero -> Format.pp_print_string ppf "division by zero"
  | Bus_trap a -> Format.fprintf ppf "bus error at 0x%Lx" a
  | Unresolved_operand -> Format.pp_print_string ppf "unresolved symbolic operand"
  | Invalid_syscall n -> Format.fprintf ppf "invalid syscall %Ld" n
  | Out_of_memory -> Format.pp_print_string ppf "allocator out of memory"
  | Invalid_free a -> Format.fprintf ppf "invalid free of 0x%Lx" a
  | Pc_out_of_range pc -> Format.fprintf ppf "pc out of range: %d" pc

let pp_outcome ppf = function
  | Exit c -> Format.fprintf ppf "exit(%Ld)" c
  | Trap { trap; pc } -> Format.fprintf ppf "trap at pc=%d: %a" pc pp_trap trap
  | Fuel_exhausted -> Format.pp_print_string ppf "fuel exhausted"
  | Deadline_exceeded -> Format.pp_print_string ppf "wall-clock deadline exceeded"
  | Yielded -> Format.pp_print_string ppf "yielded (slice spent, machine still valid)"

(* Capability register file, struct-of-arrays: the payload words live in
   byte buffers ([Bytes.get/set_int64_le] move unboxed int64s, exactly
   like the GPR file) and the book-keeping bits live in one native int
   per register — perms in bits 0-7 (the spill encoding), sealed in bit
   8, tag in bit 9. The otype keeps its own 64-bit lane so snapshot
   restore reproduces arbitrary fault-injected values. Capability moves,
   offset arithmetic and dereference checks — the bulk of the CHERI
   instruction mix — then never materialize a [Capability.t] record;
   only the rare paths (CSC spill, CSeal, snapshots, the public [cap]
   accessor) do. *)
let meta_sealed = 0x100
let meta_tag = 0x200

(* Unchecked 64-bit register-file accesses (the stdlib keeps these
   primitives private behind bounds-checked wrappers). Soundness:
   {!Decoded.compile} validates every register operand to 0..31 at
   decode time, so the byte offsets the execute stage feeds here are
   within the fixed-size files by construction; the public accessors
   below bounds-check explicitly before reaching these. *)
external b64_get_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64_set_ne : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] b64_get b o = if Sys.big_endian then bswap64 (b64_get_ne b o) else b64_get_ne b o
let[@inline] b64_set b o v = b64_set_ne b o (if Sys.big_endian then bswap64 v else v)

type t = {
  cfg : config;
  prog : Decoded.program;
  (* the decoded program's rows, unpacked once so {!run}'s loop loads
     each through one indirection *)
  ops : Decoded.op array;
  xs : int array;
  ys : int array;
  zs : int array;
  imms : Bytes.t;
  classes : Telemetry.opcode_class array;
  code_len : int;
  memory : Mem.t;
  (* 32 x 64-bit GPRs packed little-endian in a byte buffer rather than
     an [int64 array]: storing a freshly computed Int64 into an array
     first boxes it (3 words per retired ALU op), while
     [Bytes.set_int64_le] takes the unboxed value straight from the
     register allocator. Slot 32 is the write sink the decoded table
     redirects r0 destinations to. *)
  gprs : Bytes.t;
  cap_base : Bytes.t;
  cap_len : Bytes.t;
  cap_off : Bytes.t;
  cap_otype : Bytes.t;
  cap_meta : int array;
  mutable pcc : Cap.t;
  mutable pc : int;
  mutable cycles : int;
  mutable instret : int;
  mutable loads : int;
  mutable stores : int;
  mutable cap_loads : int;
  mutable cap_stores : int;
  mutable heap_allocated : int64;
  dcache : Cache.Timing.hierarchy;
  icache : Cache.t;
  out : Buffer.t;
  allocated : (int64, int64) Hashtbl.t;  (* block base -> size *)
  mutable free_list : (int64 * int64) list;  (* (base, size), sorted by base *)
  heap_base : int64;
  stack_top : int64;
  mutable sink : Telemetry.Sink.t;
  (* [Sink.is_null sink], cached so {!run}'s loop pays one mutable-bool
     test per retired instruction when telemetry is off *)
  mutable trace_on : bool;
  (* config bits read on the per-instruction path, cached out of cfg *)
  is_v3 : bool;
  trapv : bool;
  mutable allocs : int;
  mutable frees : int;
  (* total syscalls retired; part of {!Snap} *)
  mutable syscalls : int;
  (* fault-injection arming (Cheri_inject): when [Some n], the n-th
     next malloc/free traps as if the allocator failed *)
  mutable alloc_fail_after : int option;
  mutable free_fail_after : int option;
  (* Outcome staged for {!run}'s loop to return after retiring the
     instruction: [Exit] from the exit syscall or HALT, or
     [Deadline_exceeded] from any other syscall once an armed deadline
     has passed. Writing [Some _] here is the once-per-run event; every
     other retired instruction leaves it [None], which is what keeps
     the loop allocation-free. *)
  mutable pending : outcome option;
  (* Fetch cost of the instruction currently in flight. {!run}'s loop
     keeps its exception handler *outside* the loop (one trap frame
     per call instead of one per retired instruction); when a trap
     unwinds to it, the handler reads back here the icost the epilogue
     would have charged. *)
  mutable last_icost : int;
  (* Wall-clock expiry (Unix time) of {!run}'s [deadline_s];
     [infinity] when none is armed. Set and cleared by {!run} only, so
     it is not machine state and stays out of {!Snap}. *)
  mutable deadline : float;
}

exception Trapped of trap

let syscall_exit = 1L
let syscall_print_int = 2L
let syscall_print_char = 3L
let syscall_malloc = 4L
let syscall_free = 5L
let syscall_clock = 6L
let syscall_print_bytes = 7L
let syscall_print_cstr = 8L

(* -- capability register file accessors ---------------------------------- *)

let[@inline] cap_get_idx t i =
  (* [cap_meta.(i)] first: its bounds check raises the same
     [Invalid_argument] a bad register index raised against the old
     record array *)
  let m = t.cap_meta.(i) in
  Cap.of_fields_unchecked
    ~tag:(m land meta_tag <> 0)
    ~base:(b64_get t.cap_base (i lsl 3))
    ~length:(b64_get t.cap_len (i lsl 3))
    ~offset:(b64_get t.cap_off (i lsl 3))
    ~perms:(Perms.of_bits_int m)
    ~sealed:(m land meta_sealed <> 0)
    ~otype:(b64_get t.cap_otype (i lsl 3))

let set_cap_idx t i (c : Cap.t) =
  t.cap_meta.(i) <-
    Perms.to_bits_int c.Cap.perms
    lor (if c.Cap.sealed then meta_sealed else 0)
    lor (if c.Cap.tag then meta_tag else 0);
  let o = i lsl 3 in
  b64_set t.cap_base o c.Cap.base;
  b64_set t.cap_len o c.Cap.length;
  b64_set t.cap_off o c.Cap.offset;
  b64_set t.cap_otype o c.Cap.otype

(* Register-to-register capability copy: three payload blits plus the
   meta/otype lanes, no record in between. *)
let[@inline] cap_copy t ~dst ~src =
  let s = src lsl 3 and d = dst lsl 3 in
  b64_set t.cap_base d (b64_get t.cap_base s);
  b64_set t.cap_len d (b64_get t.cap_len s);
  b64_set t.cap_off d (b64_get t.cap_off s);
  b64_set t.cap_otype d (b64_get t.cap_otype s);
  t.cap_meta.(dst) <- t.cap_meta.(src)

let[@inline] cap_cursor t i =
  Int64.add (b64_get t.cap_base (i lsl 3)) (b64_get t.cap_off (i lsl 3))

let set_cap_null t i =
  t.cap_meta.(i) <- 0;
  let o = i lsl 3 in
  b64_set t.cap_base o 0L;
  b64_set t.cap_len o 0L;
  b64_set t.cap_off o 0L;
  b64_set t.cap_otype o 0L

(* Precomputed permission masks against the meta word's low byte. *)
let p_load = 1 lsl Perms.bit_of Perms.Load
let p_store = 1 lsl Perms.bit_of Perms.Store
let p_exec = 1 lsl Perms.bit_of Perms.Execute
let p_load_cap = 1 lsl Perms.bit_of Perms.Load_cap
let p_store_cap = 1 lsl Perms.bit_of Perms.Store_cap

let create cfg ~program =
  let code_len = Decoded.length program in
  let memory = Mem.create ~size_bytes:cfg.mem_size () in
  let stack_top = Int64.of_int cfg.mem_size in
  let stack_base = Int64.sub stack_top (Int64.of_int cfg.stack_bytes) in
  let all_mem = Cap.make ~base:0L ~length:(Int64.of_int cfg.mem_size) ~perms:Perms.all in
  let stack_cap =
    (* cursor starts at the top of the stack region, mirroring GPR 29 *)
    Cap.with_offset_unchecked
      (Cap.make ~base:stack_base ~length:(Int64.of_int cfg.stack_bytes) ~perms:Perms.all)
      (Int64.of_int cfg.stack_bytes)
  in
  let gprs = Bytes.make ((32 + 1) * 8) '\000' in
  Bytes.set_int64_le gprs (29 * 8) stack_top;
  (* The heap starts above the data segment; the loader bumps this via
     [reserve_data]. *)
  let heap_base = cfg.data_base in
  let t =
    {
      cfg;
      prog = program;
      ops = program.Decoded.ops;
      xs = program.Decoded.xs;
      ys = program.Decoded.ys;
      zs = program.Decoded.zs;
      imms = program.Decoded.imms;
      classes = program.Decoded.classes;
      code_len;
      memory;
      gprs;
      cap_base = Bytes.make (32 * 8) '\000';
      cap_len = Bytes.make (32 * 8) '\000';
      cap_off = Bytes.make (32 * 8) '\000';
      cap_otype = Bytes.make (32 * 8) '\000';
      cap_meta = Array.make 32 0;
      pcc =
        Cap.make ~base:0L
          ~length:(Int64.of_int (if code_len > 1 then code_len else 1))
          ~perms:(Perms.of_list Perms.Execute [ Perms.Global ]);
      pc = 0;
      cycles = 0;
      instret = 0;
      loads = 0;
      stores = 0;
      cap_loads = 0;
      cap_stores = 0;
      heap_allocated = 0L;
      dcache = Cache.Timing.create cfg.timing;
      icache = Cache.create ~name:"L1I" ~size_bytes:(16 * 1024) ~ways:2 ~line_bytes:32;
      out = Buffer.create 256;
      allocated = Hashtbl.create 64;
      free_list = [ (cfg.data_base, Int64.sub stack_base cfg.data_base) ];
      heap_base;
      stack_top;
      sink = Telemetry.Sink.null;
      trace_on = false;
      is_v3 = (cfg.revision = Ops.V3);
      trapv = cfg.trap_on_signed_overflow;
      allocs = 0;
      frees = 0;
      syscalls = 0;
      alloc_fail_after = None;
      free_fail_after = None;
      pending = None;
      last_icost = 0;
      deadline = infinity;
    }
  in
  set_cap_idx t 0 all_mem;
  set_cap_idx t 11 stack_cap;
  t

let create_code cfg ~code = create cfg ~program:(Decoded.compile code)
let config t = t.cfg
let mem t = t.memory

(* Reads are a bare load with no r0 conditional: [set_gpr] never writes
   index 0, so its backing bytes stay zero and the read needs no
   special case — a branch join here would force the loaded value back
   into a box. *)
let[@inline] gpr t i = Bytes.get_int64_le t.gprs (i lsl 3)
let[@inline] set_gpr t i v = if i <> 0 then Bytes.set_int64_le t.gprs (i lsl 3) v
let cap t i = cap_get_idx t i
let set_cap t i c = set_cap_idx t i c
let pc t = t.pc
let cycles t = t.cycles
let instret t = t.instret
let output t = Buffer.contents t.out
let heap_base t = t.heap_base
let stack_top t = t.stack_top

let set_sink t sink =
  t.sink <- sink;
  t.trace_on <- not (Telemetry.Sink.is_null sink);
  Mem.set_sink t.memory sink

let sink t = t.sink

let fault_kind_of_trap = function
  | Cap_trap f -> Telemetry.fault_kind_of_cap f
  | Overflow_trap -> Telemetry.F_overflow
  | Div_by_zero -> Telemetry.F_div_zero
  | Bus_trap _ -> Telemetry.F_bus
  | Unresolved_operand -> Telemetry.F_unresolved
  | Invalid_syscall _ -> Telemetry.F_bad_syscall
  | Out_of_memory -> Telemetry.F_oom
  | Invalid_free _ -> Telemetry.F_bad_free
  | Pc_out_of_range _ -> Telemetry.F_pc_range

let record_trap t ~pc trap =
  Telemetry.Sink.record t.sink ~ts:t.cycles
    (Telemetry.Fault
       { pc; kind = fault_kind_of_trap trap; detail = Format.asprintf "%a" pp_trap trap })

(* -- allocator ---------------------------------------------------------- *)

let alloc_align = 32

let heap_reserve t base size =
  (* Carve [base, base+size) out of the free list; used by the loader to
     protect the data segment. *)
  let reserved_end = Int64.add base size in
  t.free_list <-
    List.concat_map
      (fun (b, s) ->
        let e = Int64.add b s in
        if Bits.ule e base || Bits.uge b reserved_end then [ (b, s) ]
        else
          let before = if Bits.ult b base then [ (b, Int64.sub base b) ] else [] in
          let after =
            if Bits.ugt e reserved_end then [ (reserved_end, Int64.sub e reserved_end) ] else []
          in
          before @ after)
      t.free_list

let malloc t request =
  t.allocs <- t.allocs + 1;
  (match t.alloc_fail_after with
  | Some 0 ->
      t.alloc_fail_after <- None;
      raise (Trapped Out_of_memory)
  | Some n -> t.alloc_fail_after <- Some (n - 1)
  | None -> ());
  let request = if Int64.compare request 1L < 0 then 1L else request in
  let padded = Bits.align_up request alloc_align in
  let rec take acc = function
    | [] -> None
    | (b, s) :: rest ->
        (* capability stores require 32-byte-aligned blocks *)
        let aligned = Bits.align_up b alloc_align in
        let lead = Int64.sub aligned b in
        if Bits.uge s (Int64.add lead padded) then begin
          let remainder = Int64.sub s (Int64.add lead padded) in
          let rest' =
            if remainder = 0L then rest else (Int64.add aligned padded, remainder) :: rest
          in
          let rest' = if lead = 0L then rest' else (b, lead) :: rest' in
          Some (aligned, List.rev_append acc rest')
        end
        else take ((b, s) :: acc) rest
  in
  match take [] t.free_list with
  | None -> raise (Trapped Out_of_memory)
  | Some (base, free_list) ->
      t.free_list <- free_list;
      Hashtbl.replace t.allocated base padded;
      t.heap_allocated <- Int64.add t.heap_allocated padded;
      (base, request)

let free t addr =
  t.frees <- t.frees + 1;
  (match t.free_fail_after with
  | Some 0 ->
      t.free_fail_after <- None;
      raise (Trapped (Invalid_free addr))
  | Some n -> t.free_fail_after <- Some (n - 1)
  | None -> ());
  match Hashtbl.find_opt t.allocated addr with
  | None -> raise (Trapped (Invalid_free addr))
  | Some size ->
      Hashtbl.remove t.allocated addr;
      (* reinsert sorted, then merge adjacent ranges in one pass *)
      let entries = List.sort (fun (a, _) (b, _) -> Bits.ucompare a b) ((addr, size) :: t.free_list) in
      let merged =
        List.fold_left
          (fun acc (b, s) ->
            match acc with
            | (pb, ps) :: rest when Int64.add pb ps = b -> (pb, Int64.add ps s) :: rest
            | _ -> (b, s) :: acc)
          [] entries
      in
      t.free_list <- List.rev merged

(* -- execution helpers -------------------------------------------------- *)

let unwrap = function Ok v -> v | Error f -> raise (Trapped (Cap_trap f))

(* Same-module copy of the unsigned compare (the dev profile's -opaque
   defeats cross-module inlining and this runs several times per
   retired memory instruction). *)
let[@inline] m_ult a b = Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* The dereference-time capability check against the SoA register file,
   raising [Trapped] directly. The check order (tag, seal, permission,
   bounds) matches [Capability.check_access] exactly so the reported
   fault is identical; [pmask] is the precomputed bit of [perm], which
   travels only for fault reporting. *)
let[@inline] soa_check t cb addr size pmask perm =
  let m = t.cap_meta.(cb) in
  if m land meta_tag = 0 then raise (Trapped (Cap_trap Fault.Tag_violation));
  if m land meta_sealed <> 0 then
    raise (Trapped (Cap_trap (Fault.Seal_violation "dereference of a sealed capability")));
  if m land pmask = 0 then raise (Trapped (Cap_trap (Fault.Perm_violation perm)));
  let base = b64_get t.cap_base (cb lsl 3) in
  let top = Int64.add base (b64_get t.cap_len (cb lsl 3)) in
  let last = Int64.add addr (Int64.of_int size) in
  if m_ult addr base || m_ult top last || m_ult last addr then
    raise (Trapped (Cap_trap (Fault.Bounds_violation { addr; base; top })))

(* [a] has passed the capability bounds check against a capability
   whose region lies inside data memory, so the int64->int conversion
   at the call sites is exact. *)
let dmem_cost t a size =
  if not t.trace_on then Cache.Timing.access_cycles_int t.dcache a ~size
  else begin
    let l1 = Cache.Timing.l1 t.dcache and l2 = Cache.Timing.l2 t.dcache in
    let m1 = Cache.misses l1 and m2 = Cache.misses l2 in
    let c = Cache.Timing.access_cycles_int t.dcache a ~size in
    let addr = Int64.of_int a in
    if Cache.misses l1 > m1 then
      Telemetry.Sink.record t.sink ~ts:t.cycles (Telemetry.Cache_miss { level = 1; addr });
    if Cache.misses l2 > m2 then
      Telemetry.Sink.record t.sink ~ts:t.cycles (Telemetry.Cache_miss { level = 2; addr });
    c
  end

let[@inline] check_cap_alignment addr =
  if Int64.to_int addr land (Cap.byte_width - 1) <> 0 then
    raise (Trapped (Cap_trap (Fault.Alignment_violation { addr; required = Cap.byte_width })))

(* Executes the syscall in GPR 2 and returns its cycle cost. A
   terminating syscall (exit) stages its outcome in [t.pending] rather
   than returning it, so the per-instruction path carries plain ints. *)
let syscall t =
  t.syscalls <- t.syscalls + 1;
  let n = gpr t 2 in
  let a0 = gpr t 4 and a1 = gpr t 5 in
  if t.trace_on then
    Telemetry.Sink.record t.sink ~ts:t.cycles (Telemetry.Syscall { pc = t.pc; number = n });
  if n = syscall_exit then (
    t.pending <- Some (Exit a0);
    10)
  else if n = syscall_print_int then (
    Buffer.add_string t.out (Int64.to_string a0);
    10)
  else if n = syscall_print_char then (
    Buffer.add_char t.out (Char.chr (Int64.to_int (Int64.logand a0 0xffL)));
    10)
  else if n = syscall_malloc then (
    let base, size = malloc t a0 in
    if t.trace_on then
      Telemetry.Sink.record t.sink ~ts:t.cycles (Telemetry.Alloc { base; size });
    set_gpr t 2 base;
    set_cap_idx t 1 (Cap.make ~base ~length:size ~perms:Perms.all);
    40)
  else if n = syscall_free then (
    free t a0;
    if t.trace_on then Telemetry.Sink.record t.sink ~ts:t.cycles (Telemetry.Free { base = a0 });
    30)
  else if n = syscall_clock then (
    set_gpr t 2 (Int64.of_int t.cycles);
    10)
  else if n = syscall_print_bytes then (
    let len = Int64.to_int a1 in
    unwrap (Ops.load_check (cap_get_idx t 0) ~addr:a0 ~size:len);
    let b =
      try Mem.load_bytes_i64 t.memory ~addr:a0 ~len
      with Mem.Bus_error a -> raise (Trapped (Bus_trap a))
    in
    Buffer.add_bytes t.out b;
    10 + (len / 8))
  else if n = syscall_print_cstr then (
    (* NUL-terminated string at legacy address a0. The capability check
       runs once: validate access to the first byte (tag, seal,
       permission and initial bounds — none of which change during the
       scan), then bound the scan by the capability's remaining extent
       instead of re-running Ops.load_check per character. Walking past
       the extent reproduces exactly the bounds fault the per-byte
       check would have raised at that address. *)
    let ddc = cap_get_idx t 0 in
    unwrap (Ops.load_check ddc ~addr:a0 ~size:1);
    let cap_top = Cap.top ddc in
    let rec go addr count =
      if count > 65536 then raise (Trapped (Bus_trap addr))
      else if Bits.uge addr cap_top then
        raise
          (Trapped
             (Cap_trap (Fault.Bounds_violation { addr; base = Ops.c_get_base ddc; top = cap_top })))
      else begin
        let c =
          try Mem.load_int_i64 t.memory ~addr ~size:1
          with Mem.Bus_error a -> raise (Trapped (Bus_trap a))
        in
        if c <> 0L then begin
          Buffer.add_char t.out (Char.chr (Int64.to_int c));
          go (Int64.add addr 1L) (count + 1)
        end
        else count
      end
    in
    let n_chars = go a0 0 in
    10 + n_chars)
  else raise (Trapped (Invalid_syscall n))

(* [syscall], plus the wall-clock sample of an armed deadline: syscall
   paths retire few instructions per host second, so a syscall-looping
   workload would otherwise overshoot the deadline by a stride's worth
   of syscalls. A non-terminating syscall past the deadline stages
   [Deadline_exceeded], which {!run} returns once the syscall has
   retired. Simulated cycle counts are unaffected either way. *)
let do_syscall t =
  let cost = syscall t in
  if t.deadline < infinity && t.pending == None && Unix.gettimeofday () > t.deadline then
    t.pending <- Some Deadline_exceeded;
  cost

(* -- the execute stage --------------------------------------------------- *)

(* Shorthands over the register-file byte buffer. The decoded table
   already carries byte offsets (pre-shifted, r0 destinations redirected
   to the sink slot), so the arms below index [t.gprs] directly. *)
let[@inline] rg t o = b64_get t.gprs o
let[@inline] wg t o v = b64_set t.gprs o v
let[@inline] imm64 t pc = b64_get t.imms (pc lsl 3)

(* Capability pointer comparison against the SoA file; same result sign
   classes as [Cap_ops.c_ptr_cmp]. *)
let[@inline] soa_ptr_cmp t a b =
  let ta = t.cap_meta.(a) land meta_tag and tb = t.cap_meta.(b) land meta_tag in
  if ta <> tb then (if ta = 0 then -1 else 1)
  else
    let aa = cap_cursor t a and ab = cap_cursor t b in
    if m_ult aa ab then -1 else if aa = ab then 0 else 1

(* Execute the decoded instruction at [pc] and return its cycle cost
   (the fetch cost is the caller's). Each arm writes [t.pc] itself —
   strictly after every operation that can raise [Trapped], so a
   trapping instruction leaves the pc at the faulting instruction.
   Terminal outcomes (exit syscall, HALT) are staged in [t.pending]
   and drained by the caller after retiring.

   [op] is a constant constructor, so this match is one jump table —
   the whole fetch+decode+cost computation the old loop redid per
   retire is a handful of flat-array loads here. *)
let exec t pc (op : Decoded.op) =
  match op with
  | Decoded.O_nop ->
      t.pc <- pc + 1;
      1
  | O_li ->
      wg t (Array.unsafe_get t.xs pc) (imm64 t pc);
      t.pc <- pc + 1;
      1
  (* ALU, register form *)
  | O_add ->
      wg t (Array.unsafe_get t.xs pc) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (rg t (Array.unsafe_get t.zs pc)));
      t.pc <- pc + 1;
      1
  | O_addt ->
      let a = rg t (Array.unsafe_get t.ys pc) and b = rg t (Array.unsafe_get t.zs pc) in
      let r = Int64.add a b in
      (* overflow iff operands share a sign that differs from the result *)
      if t.trapv && Int64.logand (Int64.logxor r a) (Int64.logxor r b) < 0L then
        raise (Trapped Overflow_trap);
      wg t (Array.unsafe_get t.xs pc) r;
      t.pc <- pc + 1;
      1
  | O_sub ->
      wg t (Array.unsafe_get t.xs pc) (Int64.sub (rg t (Array.unsafe_get t.ys pc)) (rg t (Array.unsafe_get t.zs pc)));
      t.pc <- pc + 1;
      1
  | O_mul ->
      wg t (Array.unsafe_get t.xs pc) (Int64.mul (rg t (Array.unsafe_get t.ys pc)) (rg t (Array.unsafe_get t.zs pc)));
      t.pc <- pc + 1;
      4
  | O_div ->
      let b = rg t (Array.unsafe_get t.zs pc) in
      if b = 0L then raise (Trapped Div_by_zero);
      wg t (Array.unsafe_get t.xs pc) (Int64.div (rg t (Array.unsafe_get t.ys pc)) b);
      t.pc <- pc + 1;
      16
  | O_divu ->
      let b = rg t (Array.unsafe_get t.zs pc) in
      if b = 0L then raise (Trapped Div_by_zero);
      wg t (Array.unsafe_get t.xs pc) (Int64.unsigned_div (rg t (Array.unsafe_get t.ys pc)) b);
      t.pc <- pc + 1;
      16
  | O_rem ->
      let b = rg t (Array.unsafe_get t.zs pc) in
      if b = 0L then raise (Trapped Div_by_zero);
      wg t (Array.unsafe_get t.xs pc) (Int64.rem (rg t (Array.unsafe_get t.ys pc)) b);
      t.pc <- pc + 1;
      16
  | O_remu ->
      let b = rg t (Array.unsafe_get t.zs pc) in
      if b = 0L then raise (Trapped Div_by_zero);
      wg t (Array.unsafe_get t.xs pc) (Int64.unsigned_rem (rg t (Array.unsafe_get t.ys pc)) b);
      t.pc <- pc + 1;
      16
  | O_and ->
      wg t (Array.unsafe_get t.xs pc) (Int64.logand (rg t (Array.unsafe_get t.ys pc)) (rg t (Array.unsafe_get t.zs pc)));
      t.pc <- pc + 1;
      1
  | O_or ->
      wg t (Array.unsafe_get t.xs pc) (Int64.logor (rg t (Array.unsafe_get t.ys pc)) (rg t (Array.unsafe_get t.zs pc)));
      t.pc <- pc + 1;
      1
  | O_xor ->
      wg t (Array.unsafe_get t.xs pc) (Int64.logxor (rg t (Array.unsafe_get t.ys pc)) (rg t (Array.unsafe_get t.zs pc)));
      t.pc <- pc + 1;
      1
  | O_nor ->
      wg t (Array.unsafe_get t.xs pc) (Int64.lognot (Int64.logor (rg t (Array.unsafe_get t.ys pc)) (rg t (Array.unsafe_get t.zs pc))));
      t.pc <- pc + 1;
      1
  | O_sll ->
      wg t (Array.unsafe_get t.xs pc) (Int64.shift_left (rg t (Array.unsafe_get t.ys pc)) (Int64.to_int (rg t (Array.unsafe_get t.zs pc)) land 63));
      t.pc <- pc + 1;
      1
  | O_srl ->
      wg t (Array.unsafe_get t.xs pc)
        (Int64.shift_right_logical (rg t (Array.unsafe_get t.ys pc)) (Int64.to_int (rg t (Array.unsafe_get t.zs pc)) land 63));
      t.pc <- pc + 1;
      1
  | O_sra ->
      wg t (Array.unsafe_get t.xs pc) (Int64.shift_right (rg t (Array.unsafe_get t.ys pc)) (Int64.to_int (rg t (Array.unsafe_get t.zs pc)) land 63));
      t.pc <- pc + 1;
      1
  | O_slt ->
      wg t (Array.unsafe_get t.xs pc) (if rg t (Array.unsafe_get t.ys pc) < rg t (Array.unsafe_get t.zs pc) then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_sltu ->
      wg t (Array.unsafe_get t.xs pc) (if m_ult (rg t (Array.unsafe_get t.ys pc)) (rg t (Array.unsafe_get t.zs pc)) then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_seq ->
      wg t (Array.unsafe_get t.xs pc) (if rg t (Array.unsafe_get t.ys pc) = rg t (Array.unsafe_get t.zs pc) then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_sne ->
      wg t (Array.unsafe_get t.xs pc) (if rg t (Array.unsafe_get t.ys pc) <> rg t (Array.unsafe_get t.zs pc) then 1L else 0L);
      t.pc <- pc + 1;
      1
  (* ALU, immediate form: the operand comes straight out of the decoded
     table — nothing is staged through a scratch register *)
  | O_addi ->
      wg t (Array.unsafe_get t.xs pc) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc));
      t.pc <- pc + 1;
      1
  | O_addti ->
      let a = rg t (Array.unsafe_get t.ys pc) and b = imm64 t pc in
      let r = Int64.add a b in
      if t.trapv && Int64.logand (Int64.logxor r a) (Int64.logxor r b) < 0L then
        raise (Trapped Overflow_trap);
      wg t (Array.unsafe_get t.xs pc) r;
      t.pc <- pc + 1;
      1
  | O_subi ->
      wg t (Array.unsafe_get t.xs pc) (Int64.sub (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc));
      t.pc <- pc + 1;
      1
  | O_muli ->
      wg t (Array.unsafe_get t.xs pc) (Int64.mul (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc));
      t.pc <- pc + 1;
      4
  | O_divi ->
      let b = imm64 t pc in
      if b = 0L then raise (Trapped Div_by_zero);
      wg t (Array.unsafe_get t.xs pc) (Int64.div (rg t (Array.unsafe_get t.ys pc)) b);
      t.pc <- pc + 1;
      16
  | O_divui ->
      let b = imm64 t pc in
      if b = 0L then raise (Trapped Div_by_zero);
      wg t (Array.unsafe_get t.xs pc) (Int64.unsigned_div (rg t (Array.unsafe_get t.ys pc)) b);
      t.pc <- pc + 1;
      16
  | O_remi ->
      let b = imm64 t pc in
      if b = 0L then raise (Trapped Div_by_zero);
      wg t (Array.unsafe_get t.xs pc) (Int64.rem (rg t (Array.unsafe_get t.ys pc)) b);
      t.pc <- pc + 1;
      16
  | O_remui ->
      let b = imm64 t pc in
      if b = 0L then raise (Trapped Div_by_zero);
      wg t (Array.unsafe_get t.xs pc) (Int64.unsigned_rem (rg t (Array.unsafe_get t.ys pc)) b);
      t.pc <- pc + 1;
      16
  | O_andi ->
      wg t (Array.unsafe_get t.xs pc) (Int64.logand (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc));
      t.pc <- pc + 1;
      1
  | O_ori ->
      wg t (Array.unsafe_get t.xs pc) (Int64.logor (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc));
      t.pc <- pc + 1;
      1
  | O_xori ->
      wg t (Array.unsafe_get t.xs pc) (Int64.logxor (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc));
      t.pc <- pc + 1;
      1
  | O_nori ->
      wg t (Array.unsafe_get t.xs pc) (Int64.lognot (Int64.logor (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc)));
      t.pc <- pc + 1;
      1
  | O_slli ->
      wg t (Array.unsafe_get t.xs pc) (Int64.shift_left (rg t (Array.unsafe_get t.ys pc)) (Int64.to_int (imm64 t pc) land 63));
      t.pc <- pc + 1;
      1
  | O_srli ->
      wg t (Array.unsafe_get t.xs pc)
        (Int64.shift_right_logical (rg t (Array.unsafe_get t.ys pc)) (Int64.to_int (imm64 t pc) land 63));
      t.pc <- pc + 1;
      1
  | O_srai ->
      wg t (Array.unsafe_get t.xs pc) (Int64.shift_right (rg t (Array.unsafe_get t.ys pc)) (Int64.to_int (imm64 t pc) land 63));
      t.pc <- pc + 1;
      1
  | O_slti ->
      wg t (Array.unsafe_get t.xs pc) (if rg t (Array.unsafe_get t.ys pc) < imm64 t pc then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_sltui ->
      wg t (Array.unsafe_get t.xs pc) (if m_ult (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc) then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_seqi ->
      wg t (Array.unsafe_get t.xs pc) (if rg t (Array.unsafe_get t.ys pc) = imm64 t pc then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_snei ->
      wg t (Array.unsafe_get t.xs pc) (if rg t (Array.unsafe_get t.ys pc) <> imm64 t pc then 1L else 0L);
      t.pc <- pc + 1;
      1
  (* memory: legacy addressing through the DDC (capability register 0) *)
  | O_load_s ->
      let addr = Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc) in
      let size = (Array.unsafe_get t.zs pc) in
      soa_check t 0 addr size p_load Perms.Load;
      let a = Int64.to_int addr in
      let raw = Mem.load_int t.memory a ~size in
      let sh = 64 - (size lsl 3) in
      wg t (Array.unsafe_get t.xs pc) (Int64.shift_right (Int64.shift_left raw sh) sh);
      t.loads <- t.loads + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a size
  | O_load_u ->
      let addr = Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc) in
      let size = (Array.unsafe_get t.zs pc) in
      soa_check t 0 addr size p_load Perms.Load;
      let a = Int64.to_int addr in
      let raw = Mem.load_int t.memory a ~size in
      wg t (Array.unsafe_get t.xs pc) raw;
      t.loads <- t.loads + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a size
  | O_load8 ->
      let addr = Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc) in
      soa_check t 0 addr 8 p_load Perms.Load;
      let a = Int64.to_int addr in
      wg t (Array.unsafe_get t.xs pc) (Mem.load_word t.memory a);
      t.loads <- t.loads + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a 8
  | O_store ->
      let addr = Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc) in
      let size = (Array.unsafe_get t.zs pc) in
      soa_check t 0 addr size p_store Perms.Store;
      let a = Int64.to_int addr in
      Mem.store_int t.memory a ~size (rg t (Array.unsafe_get t.xs pc));
      t.stores <- t.stores + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a size
  | O_store8 ->
      let addr = Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc) in
      soa_check t 0 addr 8 p_store Perms.Store;
      let a = Int64.to_int addr in
      Mem.store_word t.memory a (rg t (Array.unsafe_get t.xs pc));
      t.stores <- t.stores + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a 8
  (* memory: capability-relative *)
  | O_cload_s ->
      let zv = (Array.unsafe_get t.zs pc) in
      let cb = zv land 0xff and size = zv lsr 8 in
      let addr = Int64.add (cap_cursor t cb) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc)) in
      soa_check t cb addr size p_load Perms.Load;
      let a = Int64.to_int addr in
      let raw = Mem.load_int t.memory a ~size in
      let sh = 64 - (size lsl 3) in
      wg t (Array.unsafe_get t.xs pc) (Int64.shift_right (Int64.shift_left raw sh) sh);
      t.loads <- t.loads + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a size
  | O_cload_u ->
      let zv = (Array.unsafe_get t.zs pc) in
      let cb = zv land 0xff and size = zv lsr 8 in
      let addr = Int64.add (cap_cursor t cb) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc)) in
      soa_check t cb addr size p_load Perms.Load;
      let a = Int64.to_int addr in
      let raw = Mem.load_int t.memory a ~size in
      wg t (Array.unsafe_get t.xs pc) raw;
      t.loads <- t.loads + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a size
  | O_cload8 ->
      let cb = (Array.unsafe_get t.zs pc) land 0xff in
      let addr = Int64.add (cap_cursor t cb) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc)) in
      soa_check t cb addr 8 p_load Perms.Load;
      let a = Int64.to_int addr in
      wg t (Array.unsafe_get t.xs pc) (Mem.load_word t.memory a);
      t.loads <- t.loads + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a 8
  | O_cstore ->
      let zv = (Array.unsafe_get t.zs pc) in
      let cb = zv land 0xff and size = zv lsr 8 in
      let addr = Int64.add (cap_cursor t cb) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc)) in
      soa_check t cb addr size p_store Perms.Store;
      let a = Int64.to_int addr in
      Mem.store_int t.memory a ~size (rg t (Array.unsafe_get t.xs pc));
      t.stores <- t.stores + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a size
  | O_cstore8 ->
      let cb = (Array.unsafe_get t.zs pc) land 0xff in
      let addr = Int64.add (cap_cursor t cb) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc)) in
      soa_check t cb addr 8 p_store Perms.Store;
      let a = Int64.to_int addr in
      Mem.store_word t.memory a (rg t (Array.unsafe_get t.xs pc));
      t.stores <- t.stores + 1;
      t.pc <- pc + 1;
      1 + dmem_cost t a 8
  | O_clc ->
      let cb = (Array.unsafe_get t.zs pc) in
      let addr = Int64.add (cap_cursor t cb) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc)) in
      check_cap_alignment addr;
      soa_check t cb addr Cap.byte_width p_load_cap Perms.Load_cap;
      let a = Int64.to_int addr in
      let cd = Array.unsafe_get t.xs pc in
      t.cap_meta.(cd) <-
        Mem.load_cap_fields t.memory a ~base:t.cap_base ~len:t.cap_len
          ~off:t.cap_off ~otype:t.cap_otype ~pos:(cd lsl 3);
      t.cap_loads <- t.cap_loads + 1;
      let cost = 1 + dmem_cost t a Cap.byte_width in
      t.pc <- pc + 1;
      cost
  | O_csc ->
      let cb = (Array.unsafe_get t.zs pc) in
      let addr = Int64.add (cap_cursor t cb) (Int64.add (rg t (Array.unsafe_get t.ys pc)) (imm64 t pc)) in
      check_cap_alignment addr;
      soa_check t cb addr Cap.byte_width p_store_cap Perms.Store_cap;
      let a = Int64.to_int addr in
      let cs = Array.unsafe_get t.xs pc in
      Mem.store_cap_fields t.memory a ~base:t.cap_base ~len:t.cap_len
        ~off:t.cap_off ~pos:(cs lsl 3) ~meta:t.cap_meta.(cs)
        ~otype:(Int64.to_int (b64_get t.cap_otype (cs lsl 3)));
      t.cap_stores <- t.cap_stores + 1;
      let cost = 1 + dmem_cost t a Cap.byte_width in
      t.pc <- pc + 1;
      cost
  (* capability queries: straight SoA lane reads *)
  | O_cgetbase ->
      wg t (Array.unsafe_get t.xs pc) (b64_get t.cap_base ((Array.unsafe_get t.ys pc) lsl 3));
      t.pc <- pc + 1;
      1
  | O_cgetlen ->
      wg t (Array.unsafe_get t.xs pc) (b64_get t.cap_len ((Array.unsafe_get t.ys pc) lsl 3));
      t.pc <- pc + 1;
      1
  | O_cgetoffset ->
      wg t (Array.unsafe_get t.xs pc) (b64_get t.cap_off ((Array.unsafe_get t.ys pc) lsl 3));
      t.pc <- pc + 1;
      1
  | O_cgettag ->
      wg t (Array.unsafe_get t.xs pc) (if t.cap_meta.((Array.unsafe_get t.ys pc)) land meta_tag <> 0 then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_cgetperm ->
      wg t (Array.unsafe_get t.xs pc) (Int64.of_int (t.cap_meta.((Array.unsafe_get t.ys pc)) land 0xff));
      t.pc <- pc + 1;
      1
  (* capability modifies: copy the SoA lanes, then patch the changed
     one — no record materializes. The offset-moving ops dominate the
     CHERIv3 instruction mix (~13% of Dhrystone). *)
  | O_cincoffset ->
      let cb = (Array.unsafe_get t.ys pc) in
      if t.is_v3 then begin
        let m = t.cap_meta.(cb) in
        if m land (meta_sealed lor meta_tag) = meta_sealed lor meta_tag then
          raise (Trapped (Cap_trap (Fault.Seal_violation "CIncOffset on a sealed capability")));
        let newoff = Int64.add (b64_get t.cap_off (cb lsl 3)) (rg t (Array.unsafe_get t.zs pc)) in
        let cd = (Array.unsafe_get t.xs pc) in
        cap_copy t ~dst:cd ~src:cb;
        b64_set t.cap_off (cd lsl 3) newoff
      end
      else raise (Trapped (Cap_trap (Fault.Unsupported "CIncOffset (CHERIv3 only)")));
      t.pc <- pc + 1;
      1
  | O_cincoffsetimm ->
      let cb = (Array.unsafe_get t.ys pc) in
      if t.is_v3 then begin
        let m = t.cap_meta.(cb) in
        if m land (meta_sealed lor meta_tag) = meta_sealed lor meta_tag then
          raise (Trapped (Cap_trap (Fault.Seal_violation "CIncOffset on a sealed capability")));
        let newoff = Int64.add (b64_get t.cap_off (cb lsl 3)) (imm64 t pc) in
        let cd = (Array.unsafe_get t.xs pc) in
        cap_copy t ~dst:cd ~src:cb;
        b64_set t.cap_off (cd lsl 3) newoff
      end
      else raise (Trapped (Cap_trap (Fault.Unsupported "CIncOffset (CHERIv3 only)")));
      t.pc <- pc + 1;
      1
  | O_csetoffset ->
      let cb = (Array.unsafe_get t.ys pc) in
      if t.is_v3 then begin
        let m = t.cap_meta.(cb) in
        if m land (meta_sealed lor meta_tag) = meta_sealed lor meta_tag then
          raise (Trapped (Cap_trap (Fault.Seal_violation "CSetOffset on a sealed capability")));
        let newoff = rg t (Array.unsafe_get t.zs pc) in
        let cd = (Array.unsafe_get t.xs pc) in
        cap_copy t ~dst:cd ~src:cb;
        b64_set t.cap_off (cd lsl 3) newoff
      end
      else raise (Trapped (Cap_trap (Fault.Unsupported "CSetOffset (CHERIv3 only)")));
      t.pc <- pc + 1;
      1
  | O_cincbase ->
      let cb = (Array.unsafe_get t.ys pc) in
      let m = t.cap_meta.(cb) in
      if m land meta_tag = 0 then raise (Trapped (Cap_trap Fault.Tag_violation));
      if m land meta_sealed <> 0 then
        raise (Trapped (Cap_trap (Fault.Seal_violation "CIncBase on a sealed capability")));
      let delta = rg t (Array.unsafe_get t.zs pc) in
      let len = b64_get t.cap_len (cb lsl 3) in
      if m_ult len delta then raise (Trapped (Cap_trap Fault.Length_violation));
      let base = b64_get t.cap_base (cb lsl 3) in
      let off = b64_get t.cap_off (cb lsl 3) in
      let cd = (Array.unsafe_get t.xs pc) in
      cap_copy t ~dst:cd ~src:cb;
      let d = cd lsl 3 in
      b64_set t.cap_base d (Int64.add base delta);
      b64_set t.cap_len d (Int64.sub len delta);
      b64_set t.cap_off d (if t.is_v3 then Int64.sub off delta else 0L);
      t.pc <- pc + 1;
      1
  | O_csetlen ->
      let cb = (Array.unsafe_get t.ys pc) in
      let m = t.cap_meta.(cb) in
      if m land meta_tag = 0 then raise (Trapped (Cap_trap Fault.Tag_violation));
      if m land meta_sealed <> 0 then
        raise (Trapped (Cap_trap (Fault.Seal_violation "CSetLen on a sealed capability")));
      let len = rg t (Array.unsafe_get t.zs pc) in
      if m_ult (b64_get t.cap_len (cb lsl 3)) len then
        raise (Trapped (Cap_trap Fault.Length_violation));
      let cd = (Array.unsafe_get t.xs pc) in
      cap_copy t ~dst:cd ~src:cb;
      b64_set t.cap_len (cd lsl 3) len;
      t.pc <- pc + 1;
      1
  | O_candperm ->
      (* [Cap_ops.c_and_perm] is a bare permission intersection with no
         tag/seal checks; the mask was pre-narrowed at decode time *)
      let cb = (Array.unsafe_get t.ys pc) and cd = (Array.unsafe_get t.xs pc) in
      let m = t.cap_meta.(cb) in
      cap_copy t ~dst:cd ~src:cb;
      t.cap_meta.(cd) <- (m land (meta_sealed lor meta_tag)) lor (m land 0xff land (Array.unsafe_get t.zs pc));
      t.pc <- pc + 1;
      1
  | O_ccleartag ->
      let cb = (Array.unsafe_get t.ys pc) and cd = (Array.unsafe_get t.xs pc) in
      cap_copy t ~dst:cd ~src:cb;
      t.cap_meta.(cd) <- t.cap_meta.(cd) land lnot meta_tag;
      t.pc <- pc + 1;
      1
  | O_cmove ->
      cap_copy t ~dst:(Array.unsafe_get t.xs pc) ~src:(Array.unsafe_get t.ys pc);
      t.pc <- pc + 1;
      1
  | O_cseal ->
      set_cap_idx t (Array.unsafe_get t.xs pc)
        (unwrap (Ops.c_seal ~authority:(cap_get_idx t (Array.unsafe_get t.zs pc)) (cap_get_idx t (Array.unsafe_get t.ys pc))));
      t.pc <- pc + 1;
      1
  | O_cunseal ->
      set_cap_idx t (Array.unsafe_get t.xs pc)
        (unwrap (Ops.c_unseal ~authority:(cap_get_idx t (Array.unsafe_get t.zs pc)) (cap_get_idx t (Array.unsafe_get t.ys pc))));
      t.pc <- pc + 1;
      1
  | O_cptrcmp_eq ->
      wg t (Array.unsafe_get t.xs pc) (if soa_ptr_cmp t (Array.unsafe_get t.ys pc) (Array.unsafe_get t.zs pc) = 0 then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_cptrcmp_ne ->
      wg t (Array.unsafe_get t.xs pc) (if soa_ptr_cmp t (Array.unsafe_get t.ys pc) (Array.unsafe_get t.zs pc) <> 0 then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_cptrcmp_lt ->
      wg t (Array.unsafe_get t.xs pc) (if soa_ptr_cmp t (Array.unsafe_get t.ys pc) (Array.unsafe_get t.zs pc) < 0 then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_cptrcmp_le ->
      wg t (Array.unsafe_get t.xs pc) (if soa_ptr_cmp t (Array.unsafe_get t.ys pc) (Array.unsafe_get t.zs pc) <= 0 then 1L else 0L);
      t.pc <- pc + 1;
      1
  | O_cfromptr ->
      let cb = (Array.unsafe_get t.ys pc) in
      if t.cap_meta.(cb) land meta_tag = 0 then raise (Trapped (Cap_trap Fault.Tag_violation));
      let v = rg t (Array.unsafe_get t.zs pc) in
      let cd = (Array.unsafe_get t.xs pc) in
      if v = 0L then set_cap_null t cd
      else begin
        cap_copy t ~dst:cd ~src:cb;
        b64_set t.cap_off (cd lsl 3) v
      end;
      t.pc <- pc + 1;
      1
  | O_ctoptr ->
      let cs = (Array.unsafe_get t.ys pc) and cb = (Array.unsafe_get t.zs pc) in
      (if t.cap_meta.(cs) land meta_tag = 0 then wg t (Array.unsafe_get t.xs pc) 0L
       else begin
         let addr = cap_cursor t cs in
         let rb = b64_get t.cap_base (cb lsl 3) in
         let rtop = Int64.add rb (b64_get t.cap_len (cb lsl 3)) in
         wg t (Array.unsafe_get t.xs pc)
           (if (not (m_ult addr rb)) && not (m_ult rtop addr) then Int64.sub addr rb else 0L)
       end);
      t.pc <- pc + 1;
      1
  (* control flow: targets are pre-resolved absolute PCs *)
  | O_beq ->
      if rg t (Array.unsafe_get t.xs pc) = rg t (Array.unsafe_get t.ys pc) then begin
        t.pc <- (Array.unsafe_get t.zs pc);
        2
      end
      else begin
        t.pc <- pc + 1;
        1
      end
  | O_bne ->
      if rg t (Array.unsafe_get t.xs pc) <> rg t (Array.unsafe_get t.ys pc) then begin
        t.pc <- (Array.unsafe_get t.zs pc);
        2
      end
      else begin
        t.pc <- pc + 1;
        1
      end
  | O_bltz ->
      if rg t (Array.unsafe_get t.xs pc) < 0L then begin
        t.pc <- (Array.unsafe_get t.zs pc);
        2
      end
      else begin
        t.pc <- pc + 1;
        1
      end
  | O_blez ->
      if rg t (Array.unsafe_get t.xs pc) <= 0L then begin
        t.pc <- (Array.unsafe_get t.zs pc);
        2
      end
      else begin
        t.pc <- pc + 1;
        1
      end
  | O_bgtz ->
      if rg t (Array.unsafe_get t.xs pc) > 0L then begin
        t.pc <- (Array.unsafe_get t.zs pc);
        2
      end
      else begin
        t.pc <- pc + 1;
        1
      end
  | O_bgez ->
      if rg t (Array.unsafe_get t.xs pc) >= 0L then begin
        t.pc <- (Array.unsafe_get t.zs pc);
        2
      end
      else begin
        t.pc <- pc + 1;
        1
      end
  | O_beqz ->
      if rg t (Array.unsafe_get t.xs pc) = 0L then begin
        t.pc <- (Array.unsafe_get t.zs pc);
        2
      end
      else begin
        t.pc <- pc + 1;
        1
      end
  | O_bnez ->
      if rg t (Array.unsafe_get t.xs pc) <> 0L then begin
        t.pc <- (Array.unsafe_get t.zs pc);
        2
      end
      else begin
        t.pc <- pc + 1;
        1
      end
  | O_j ->
      t.pc <- (Array.unsafe_get t.zs pc);
      2
  | O_jal ->
      (* the link value (pc+1 as int64) was pre-staged at decode time *)
      b64_set t.gprs (31 * 8) (imm64 t pc);
      t.pc <- (Array.unsafe_get t.zs pc);
      2
  | O_jr ->
      t.pc <- Int64.to_int (rg t (Array.unsafe_get t.xs pc));
      2
  | O_jalr ->
      (* read the destination before writing the link: rs may be r31 *)
      let dest = Int64.to_int (rg t (Array.unsafe_get t.xs pc)) in
      b64_set t.gprs (31 * 8) (imm64 t pc);
      t.pc <- dest;
      2
  | O_cjalr ->
      let cb = (Array.unsafe_get t.ys pc) in
      let m = t.cap_meta.(cb) in
      if m land meta_tag = 0 then raise (Trapped (Cap_trap Fault.Tag_violation));
      if m land meta_sealed <> 0 then
        raise (Trapped (Cap_trap (Fault.Seal_violation "jump through a sealed capability")));
      if m land p_exec = 0 then raise (Trapped (Cap_trap (Fault.Perm_violation Perms.Execute)));
      (* materialize the destination before writing the link: cd may
         name the same register as cb *)
      let dest = cap_get_idx t cb in
      let link = Cap.with_offset_unchecked t.pcc (imm64 t pc) in
      set_cap_idx t (Array.unsafe_get t.xs pc) link;
      t.pcc <- dest;
      t.pc <- Int64.to_int (Int64.add dest.Cap.base dest.Cap.offset);
      2
  | O_cjr ->
      let cb = (Array.unsafe_get t.xs pc) in
      let m = t.cap_meta.(cb) in
      if m land meta_tag = 0 then raise (Trapped (Cap_trap Fault.Tag_violation));
      if m land p_exec = 0 then raise (Trapped (Cap_trap (Fault.Perm_violation Perms.Execute)));
      let dest = cap_get_idx t cb in
      t.pcc <- dest;
      t.pc <- Int64.to_int (Int64.add dest.Cap.base dest.Cap.offset);
      2
  (* system *)
  | O_syscall ->
      let cost = do_syscall t in
      t.pc <- pc + 1;
      cost
  | O_halt ->
      t.pending <- Some (Exit 0L);
      t.pc <- pc + 1;
      1
  | O_oor ->
      (* defense in depth: {!run}'s loop never dispatches the sentinel
         (its range test excludes index n), so reaching this arm means
         a caller indexed the table directly *)
      raise (Trapped (Pc_out_of_range pc))

(* How many instructions to retire between wall-clock reads when a
   deadline is armed: the check must be invisible next to the
   instruction cost. *)
let deadline_stride = 32_768

let default_fuel = 200_000_000

(* The instruction loop: retire instructions from [t.pc] until the
   program finishes, traps, or [fuel] instructions have retired, in
   which case it returns [spent].

   In-range test: one unsigned compare ([pc + min_int < len + min_int]
   ⟺ [0 <= pc < len]). The decoded table's sentinel row guarantees an
   index equal to [len] would still dispatch to a defined entry, so the
   single compare is also the only thing keeping the cold out-of-range
   path (which must not touch the icache or the cycle counter) out of
   the table.

   The exception handler is entered once per call, not once per
   retired instruction. The recursion is outside the [try], so [go]
   stays tail-recursive; a trap unwinds to the handler with [t.pc]
   still at the faulting instruction (every arm writes pc strictly
   after its last raising operation) and the in-flight fetch cost in
   [t.last_icost]. *)
let retire t fuel spent =
  let rec go remaining =
    if remaining <= 0 then spent
    else begin
      let pc = t.pc in
      if pc + min_int < t.code_len + min_int then begin
        let icost = if Cache.access_fetch t.icache (pc lsl 2) then 0 else 6 in
        t.last_icost <- icost;
        let cost = exec t pc (Array.unsafe_get t.ops pc) in
        t.instret <- t.instret + 1;
        t.cycles <- t.cycles + cost + icost;
        if t.trace_on then
          Telemetry.Sink.record t.sink ~ts:t.cycles
            (Telemetry.Instret { pc; cls = Array.unsafe_get t.classes pc });
        match t.pending with
        | None -> go (remaining - 1)
        | Some o ->
            t.pending <- None;
            o
      end
      else begin
        (* cold: no fetch, no cycles *)
        if t.trace_on then record_trap t ~pc (Pc_out_of_range pc);
        Trap { trap = Pc_out_of_range pc; pc }
      end
    end
  in
  let finish trap =
    t.cycles <- t.cycles + 1 + t.last_icost;
    if t.trace_on then record_trap t ~pc:t.pc trap;
    Trap { trap; pc = t.pc }
  in
  try go fuel with
  | Trapped trap -> finish trap
  | Ops.Cap_error f -> finish (Cap_trap f)
  | Mem.Bus_error a -> finish (Bus_trap a)

let run ?(fuel = default_fuel) ?deadline_s ?(yield = false) t =
  (* In yield mode an exhausted budget is an interruption, not a
     verdict: the machine is untouched past the last retired
     instruction, so [run] again (here or after restoring a snapshot)
     continues byte-identically — the loop stops *before* executing,
     never mid-instruction. *)
  let out_of_fuel = if yield then Yielded else Fuel_exhausted in
  match deadline_s with
  | None -> retire t fuel out_of_fuel
  | Some budget ->
      (* The same loop in chunks of [deadline_stride] instructions,
         with the clock sampled between chunks; [do_syscall] samples it
         too and stages [Deadline_exceeded] in [t.pending]. [Yielded]
         marks a spent chunk: [retire] returns it for nothing else. *)
      t.deadline <- Unix.gettimeofday () +. budget;
      let rec chunks remaining =
        let n = if remaining < deadline_stride then remaining else deadline_stride in
        match retire t n Yielded with
        | Yielded when remaining > n ->
            if Unix.gettimeofday () > t.deadline then Deadline_exceeded
            else chunks (remaining - n)
        | Yielded -> out_of_fuel
        | o -> o
      in
      (match Fun.protect ~finally:(fun () -> t.deadline <- infinity) (fun () -> chunks fuel) with
      | Deadline_exceeded when yield -> Yielded
      | o -> o)

type stats = {
  st_cycles : int;
  st_instret : int;
  st_loads : int;
  st_stores : int;
  st_cap_loads : int;
  st_cap_stores : int;
  st_l1_hits : int;
  st_l1_misses : int;
  st_l2_hits : int;
  st_l2_misses : int;
  st_heap_allocated : int64;
  st_allocs : int;
  st_frees : int;
}

let stats t =
  let l1 = Cache.Timing.l1 t.dcache and l2 = Cache.Timing.l2 t.dcache in
  {
    st_cycles = t.cycles;
    st_instret = t.instret;
    st_loads = t.loads;
    st_stores = t.stores;
    st_cap_loads = t.cap_loads;
    st_cap_stores = t.cap_stores;
    st_l1_hits = Cache.hits l1;
    st_l1_misses = Cache.misses l1;
    st_l2_hits = Cache.hits l2;
    st_l2_misses = Cache.misses l2;
    st_heap_allocated = t.heap_allocated;
    st_allocs = t.allocs;
    st_frees = t.frees;
  }

(* Exposed for the loader (Cheri_asm): remove the data segment from the
   allocator's free list. *)
let reserve_data = heap_reserve

let program t = t.prog
let code t = Decoded.source t.prog

(* -- snapshot / restore -------------------------------------------------- *)

module Snap = struct
  type t = {
    s_gprs : string;  (* the full register file, 33 x 8 bytes LE *)
    s_caps : Cap.t array;  (* the 32 capability registers *)
    s_pcc : Cap.t;
    s_pc : int;
    s_cycles : int;
    s_instret : int;
    s_loads : int;
    s_stores : int;
    s_cap_loads : int;
    s_cap_stores : int;
    s_heap_allocated : int64;
    s_allocs : int;
    s_frees : int;
    s_syscalls : int;
    s_alloc_fail_after : int option;
    s_free_fail_after : int option;
    s_output : string;
    s_allocated : (int64 * int64) list;  (* sorted by base *)
    s_free_list : (int64 * int64) list;
    s_icache : int array;
    s_l1 : int array;
    s_l2 : int array;
    s_data_pages : (int * string) list;
    s_tag_pages : (int * string) list;
  }

  let page_bytes = 4096
end

let state t ~data_pages ~tag_pages : Snap.t =
  {
    Snap.s_gprs = Bytes.to_string t.gprs;
    s_caps = Array.init 32 (fun i -> cap_get_idx t i);
    s_pcc = t.pcc;
    s_pc = t.pc;
    s_cycles = t.cycles;
    s_instret = t.instret;
    s_loads = t.loads;
    s_stores = t.stores;
    s_cap_loads = t.cap_loads;
    s_cap_stores = t.cap_stores;
    s_heap_allocated = t.heap_allocated;
    s_allocs = t.allocs;
    s_frees = t.frees;
    s_syscalls = t.syscalls;
    s_alloc_fail_after = t.alloc_fail_after;
    s_free_fail_after = t.free_fail_after;
    s_output = Buffer.contents t.out;
    s_allocated =
      Hashtbl.fold (fun base size acc -> (base, size) :: acc) t.allocated []
      |> List.sort (fun (a, _) (b, _) -> Bits.ucompare a b);
    s_free_list = t.free_list;
    s_icache = Cache.snapshot_state t.icache;
    s_l1 = Cache.snapshot_state (Cache.Timing.l1 t.dcache);
    s_l2 = Cache.snapshot_state (Cache.Timing.l2 t.dcache);
    s_data_pages = data_pages;
    s_tag_pages = tag_pages;
  }

let snapshot t =
  let data_pages, tag_pages = Mem.snapshot_pages t.memory ~page_bytes:Snap.page_bytes in
  state t ~data_pages ~tag_pages

let snapshot_sparse t =
  let data_pages, tag_pages = Mem.scan_pages t.memory ~page_bytes:Snap.page_bytes in
  (state t ~data_pages:[] ~tag_pages, data_pages)

let restore t (s : Snap.t) =
  if String.length s.Snap.s_gprs <> Bytes.length t.gprs then
    invalid_arg "Machine.restore: register file size mismatch";
  if Array.length s.Snap.s_caps <> 32 then
    invalid_arg "Machine.restore: capability register file size mismatch";
  Bytes.blit_string s.Snap.s_gprs 0 t.gprs 0 (Bytes.length t.gprs);
  Array.iteri (fun i c -> set_cap_idx t i c) s.Snap.s_caps;
  t.pcc <- s.Snap.s_pcc;
  t.pc <- s.Snap.s_pc;
  t.cycles <- s.Snap.s_cycles;
  t.instret <- s.Snap.s_instret;
  t.loads <- s.Snap.s_loads;
  t.stores <- s.Snap.s_stores;
  t.cap_loads <- s.Snap.s_cap_loads;
  t.cap_stores <- s.Snap.s_cap_stores;
  t.heap_allocated <- s.Snap.s_heap_allocated;
  t.allocs <- s.Snap.s_allocs;
  t.frees <- s.Snap.s_frees;
  t.syscalls <- s.Snap.s_syscalls;
  t.alloc_fail_after <- s.Snap.s_alloc_fail_after;
  t.free_fail_after <- s.Snap.s_free_fail_after;
  Buffer.clear t.out;
  Buffer.add_string t.out s.Snap.s_output;
  Hashtbl.reset t.allocated;
  List.iter (fun (base, size) -> Hashtbl.replace t.allocated base size) s.Snap.s_allocated;
  t.free_list <- s.Snap.s_free_list;
  Cache.restore_state t.icache s.Snap.s_icache;
  Cache.restore_state (Cache.Timing.l1 t.dcache) s.Snap.s_l1;
  Cache.restore_state (Cache.Timing.l2 t.dcache) s.Snap.s_l2;
  Mem.restore_pages t.memory ~page_bytes:Snap.page_bytes ~data:s.Snap.s_data_pages
    ~tags:s.Snap.s_tag_pages;
  (* [pending] is observable only within an instruction; between
     instructions it is always [None], which is where a snapshot is
     ever taken. *)
  t.pending <- None

(* -- fault-injection perturbation points (Cheri_inject) ------------------ *)

let allocated_blocks t =
  Hashtbl.fold (fun base size acc -> (base, size) :: acc) t.allocated []
  |> List.sort (fun (a, _) (b, _) -> Bits.ucompare a b)

let inject_alloc_failure t ~after = t.alloc_fail_after <- Some (if after > 0 then after else 0)
let inject_free_failure t ~after = t.free_fail_after <- Some (if after > 0 then after else 0)
