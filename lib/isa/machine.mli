(** The simulated CHERI softcore: architectural state, execution loop,
    allocator syscalls and the cycle-approximate timing model.

    One machine instance holds a code array (Harvard-style: instructions
    are not in the tagged data memory; the paper's results never depend
    on self-modifying code), a {!Cheri_tagmem} data memory, 32 general
    purpose registers, 32 capability registers, the program counter
    capability (PCC) and the cycle/instruction counters.

    The ISA revision ({!Cheri_core.Cap_ops.V2} or [V3]) selects the
    capability semantics; plain MIPS programs simply never touch the
    capability registers, so the same machine serves as the MIPS
    baseline. *)

type t

type config = {
  revision : Cheri_core.Cap_ops.revision;
  mem_size : int;  (** bytes of data memory *)
  data_base : int64;  (** where the assembler's data segment is loaded *)
  stack_bytes : int;  (** stack region at the top of memory *)
  timing : Cache.Timing.config;
  trap_on_signed_overflow : bool;
      (** enables the §3.1.1-style trap semantics of the ADDT opcode;
          plain ADD always wraps *)
}

val default_config : Cheri_core.Cap_ops.revision -> config

(** {1 Traps and outcomes} *)

type trap =
  | Cap_trap of Cheri_core.Cap_fault.t
  | Overflow_trap
  | Div_by_zero
  | Bus_trap of int64
  | Unresolved_operand
  | Invalid_syscall of int64
  | Out_of_memory
  | Invalid_free of int64
  | Pc_out_of_range of int

type outcome =
  | Exit of int64  (** the program called the exit syscall *)
  | Trap of { trap : trap; pc : int }
  | Fuel_exhausted  (** the per-run instruction budget ran out *)
  | Deadline_exceeded
      (** the wall-clock watchdog of {!run}'s [deadline_s] fired; like
          [Fuel_exhausted] this is a harness outcome (classified as a
          hang by the campaigns), not a modelled trap *)
  | Yielded
      (** only with {!run}'s [~yield:true]: the fuel slice was spent or
          the deadline fired, and the machine is still valid — call
          {!run} again (or {!snapshot} it) to continue exactly where it
          stopped *)

val pp_trap : Format.formatter -> trap -> unit
val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Construction and state access} *)

val create : config -> program:Decoded.program -> t
(** A machine at reset: PC 0, PCC spanning the code, DDC (capability
    register 0) spanning all of data memory with every permission,
    stack capability (register 11) over the stack region, stack
    pointer (GPR 29) at the top of memory.

    The machine executes a {e pre-decoded} program ({!Decoded.compile})
    and never writes to it, so several machines may share one table:
    the assembler's loader gives every machine of one linked program
    the same table (the injection engine's thousands-of-runs sweeps,
    resumes into fresh machines). *)

val create_code : config -> code:Insn.t array -> t
(** [create cfg ~program:(Decoded.compile code)] — the pre-decode-stage
    construction API. Raises [Invalid_argument] if any instruction is
    unresolved — link with {!Cheri_asm} first. *)

val config : t -> config
val mem : t -> Cheri_tagmem.Tagmem.t
val gpr : t -> int -> int64
val set_gpr : t -> int -> int64 -> unit
val cap : t -> int -> Cheri_core.Capability.t
val set_cap : t -> int -> Cheri_core.Capability.t -> unit
val pc : t -> int
val cycles : t -> int
val instret : t -> int
val output : t -> string
(** Everything the program printed via syscalls. *)

val heap_base : t -> int64
val stack_top : t -> int64

(** {1 Telemetry} *)

val set_sink : t -> Cheri_telemetry.Telemetry.Sink.t -> unit
(** Attach a telemetry sink to the machine (and to its tagged memory).
    A live sink receives one [Instret] event per retired instruction
    (pc and opcode class, timestamped with the cycle counter), [Fault]
    events on every trap, [Syscall]/[Alloc]/[Free] events from the
    syscall layer, [Cache_miss] events from the data-cache hierarchy,
    and the tag events of {!Cheri_tagmem.Tagmem.set_sink}. With the
    default {!Cheri_telemetry.Telemetry.Sink.null} {!run}'s loop pays
    a single predictable branch per instruction and records nothing;
    telemetry never changes the simulated cycle counts either way. *)

val sink : t -> Cheri_telemetry.Telemetry.Sink.t

val reserve_data : t -> int64 -> int64 -> unit
(** [reserve_data t base size] removes the loaded data segment from the
    allocator's free list. Called by the {!Cheri_asm} loader. *)

(** {1 Execution} *)

val default_fuel : int
(** {!run}'s default instruction budget (200 million). *)

val run : ?fuel:int -> ?deadline_s:float -> ?yield:bool -> t -> outcome
(** Run until exit, trap, or [fuel] instructions ({!default_fuel}).
    [deadline_s] arms a wall-clock watchdog: the one instruction loop
    then runs in chunks of 32k retired instructions, samples the clock
    between chunks {e and after every non-terminating syscall}
    (syscall paths are far slower per retired instruction, so a
    syscall-looping workload would otherwise overshoot the budget by a
    large factor), and stops with {!Deadline_exceeded} once the budget
    is spent, so one runaway task can be reaped without killing its
    worker domain. An armed deadline that never fires changes nothing:
    outcome, output, cycles, instret and {!stats} equal an unarmed
    run's. Fuel is the deterministic watchdog; the deadline is the
    defence against host-level pathology (a stuck syscall path, severe
    oversubscription).

    [~yield:true] turns both exhaustions into {!Yielded} and makes the
    interruption recoverable: the loop only ever stops {e between}
    instructions, so the machine remains architecturally valid and a
    subsequent [run] — in this process, or after {!restore} of a
    {!snapshot} in another — continues the execution byte-identically
    (same output, same cycles/instret) to a run that never stopped. *)

(** {1 Snapshot / restore}

    Complete, deterministic capture of the mutable machine state.
    Guarantee: for any machine [m] and fuel split [f = f1 + f2],
    running [m] for [f1] instructions with [~yield:true], taking
    [snapshot m], restoring it into a fresh machine [m'] built from the
    same config and code, and running [m'] for [f2] yields the same
    outcome, output, cycles, instret — and every other observable — as
    running [m] for [f] uninterrupted. The telemetry sink is host-side
    instrumentation, not machine state, and does not travel. *)

module Snap : sig
  type t = {
    s_gprs : string;  (** the full register file, 33 x 8 bytes LE *)
    s_caps : Cheri_core.Capability.t array;  (** the 32 capability registers *)
    s_pcc : Cheri_core.Capability.t;
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
    s_allocated : (int64 * int64) list;  (** live heap blocks, sorted by base *)
    s_free_list : (int64 * int64) list;
    s_icache : int array;  (** {!Cache.snapshot_state} of the I-cache *)
    s_l1 : int array;
    s_l2 : int array;
    s_data_pages : (int * string) list;  (** nonzero 4 KiB pages of data memory *)
    s_tag_pages : (int * string) list;  (** nonzero 4 KiB pages of the tag store *)
  }
  (** The fields are public so {!Cheri_snapshot} can serialize them;
      nothing else should construct one by hand. *)

  val page_bytes : int
  (** Sparse-encoding page size (4096). *)
end

val snapshot : t -> Snap.t
(** Capture every mutable architectural and model field. Never taken
    mid-instruction, so staged terminal outcomes are always empty. *)

val snapshot_sparse : t -> Snap.t * (int * int) list
(** {!snapshot} with the data pages left in memory: [s_data_pages] is
    empty, and the (index, length) of every nonzero data page comes
    back beside it, for the caller to copy out of {!mem} with
    {!Cheri_tagmem.Tagmem.blit_data_page} before the machine runs
    again. The one page scan of a streaming save. *)

val restore : t -> Snap.t -> unit
(** Overwrite [t]'s state with the snapshot's. [t] must have been
    created from the same config and code as the snapshotted machine
    (the on-disk format of {!Cheri_snapshot} enforces this; this
    in-memory entry only checks register-file shapes, raising
    [Invalid_argument]). The attached telemetry sink is kept. *)

val program : t -> Decoded.program
(** The pre-decoded program this machine executes. *)

val code : t -> Insn.t array
(** [Decoded.source (program t)]: the loaded (resolved) code image —
    used to fingerprint a machine for snapshot compatibility checks.
    Do not mutate. *)

(** {1 Statistics} *)

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
  st_heap_allocated : int64;  (** total bytes ever handed out by malloc *)
  st_allocs : int;  (** malloc syscalls (including injected failures) *)
  st_frees : int;  (** free syscalls (including injected failures) *)
}

val stats : t -> stats

(** {1 Fault-injection perturbation points}

    Used by {!Cheri_inject} to perturb a run at a chosen instruction
    index; no instruction-execution path touches these. *)

val allocated_blocks : t -> (int64 * int64) list
(** Live heap blocks as [(base, size)], sorted by base — the
    injection engine's map of where program data actually lives. *)

val inject_alloc_failure : t -> after:int -> unit
(** Arm allocator-failure injection: the [after]-th next malloc (0 =
    the very next one) traps with [Out_of_memory]. *)

val inject_free_failure : t -> after:int -> unit
(** Arm free-failure injection: the [after]-th next free traps with
    [Invalid_free]. *)

(** {1 Syscall ABI}

    Syscall number in GPR 2; arguments in GPRs 4-7; integer results in
    GPR 2; capability results in capability register 1.

    - 1 exit(code=r4)
    - 2 print_int(r4) — decimal, no newline
    - 3 print_char(r4)
    - 4 malloc(size=r4) → address in r2 and a tagged, exactly-bounded
      read/write capability in c1 (the paper's "it is the
      responsibility of the allocator ... to correctly set the length")
    - 5 free(addr=r4)
    - 6 clock → current cycle count in r2
    - 7 print_bytes(addr=r4, len=r5) — legacy addressing via DDC *)

val syscall_exit : int64
val syscall_print_int : int64
val syscall_print_char : int64
val syscall_malloc : int64
val syscall_free : int64
val syscall_clock : int64
val syscall_print_bytes : int64

val syscall_print_cstr : int64
(** syscall 8: print the NUL-terminated string at legacy address r4. *)
