(** Execution telemetry: typed event sink, monotonic counters and
    machine-readable exporters.

    The paper's entire evaluation rests on observing what the abstract
    machine does — which idioms trap, where cycles go, how many
    capability memory operations each ABI incurs. This module is the
    one place those observations flow through: the softcore
    ({!Cheri_isa.Machine}), the tagged memory ({!Cheri_tagmem}) and
    the abstract-machine interpreter ({!Cheri_interp}) all publish
    events into a {!Sink.t}, and the exporters below turn a sink into
    a human-readable summary, a JSONL event dump, or a Chrome
    [trace_event] file loadable in [about:tracing]/Perfetto.

    Instrumentation is zero-cost when disabled: producers hold a
    {!Sink.null} sink and branch once on {!Sink.is_null} (the machine
    caches that test in a mutable bool it checks per retired
    instruction — a single predictable branch, never a per-event
    closure). *)

(** {1 Event taxonomy} *)

(** Coarse classification of retired instructions, for the per-class
    counters. The ISA maps {!Cheri_isa.Insn.t} onto these. *)
type opcode_class =
  | Op_nop
  | Op_alu  (** integer ALU, including immediates *)
  | Op_load  (** legacy (DDC-relative) data load *)
  | Op_store
  | Op_cap_load  (** capability-register-relative data load *)
  | Op_cap_store
  | Op_clc  (** capability load (CLC) *)
  | Op_csc  (** capability store (CSC) *)
  | Op_cap_query  (** CGetBase/CGetLen/CGetOffset/CGetTag/CGetPerm *)
  | Op_cap_modify  (** CIncOffset/CSetOffset/CIncBase/CSeal/... *)
  | Op_cap_jump  (** CJALR/CJR *)
  | Op_branch
  | Op_jump
  | Op_syscall
  | Op_halt

val all_opcode_classes : opcode_class list
val opcode_class_name : opcode_class -> string

(** Every way a run can stop abnormally, unified across the softcore's
    traps ({!Cheri_isa.Machine.trap}) and the abstract-machine
    interpreter's model faults. *)
type fault_kind =
  | F_tag
  | F_bounds
  | F_perm
  | F_length
  | F_align
  | F_repr
  | F_seal
  | F_unsupported
  | F_overflow
  | F_div_zero
  | F_bus
  | F_unresolved
  | F_bad_syscall
  | F_oom
  | F_bad_free
  | F_pc_range
  | F_model  (** an interpreter-level (pointer-model) fault *)

val all_fault_kinds : fault_kind list
val fault_kind_name : fault_kind -> string

val fault_kind_of_cap : Cheri_core.Cap_fault.t -> fault_kind
(** The counter bucket for a hardware capability fault. *)

type event =
  | Instret of { pc : int; cls : opcode_class }
  | Fault of { pc : int; kind : fault_kind; detail : string }
  | Tag_write of { addr : int64; tag : bool }  (** CSC wrote a capability *)
  | Tag_clear of { addr : int64 }
      (** a plain data store detagged a granule that held a valid
          capability — the collateral-invalidation number the tag
          granularity ablation reports *)
  | Syscall of { pc : int; number : int64 }
  | Alloc of { base : int64; size : int64 }
  | Free of { base : int64 }
  | Cache_miss of { level : int; addr : int64 }  (** level 1 or 2 *)
  | Idiom_case of { model : string; idiom : string; result : string }
  | Custom of { name : string; detail : string }

val pp_event : Format.formatter -> event -> unit

(** {1 The sink} *)

module Sink : sig
  type t

  val null : t
  (** The disabled sink: {!record} on it is a no-op, and producers may
      (and do) skip instrumentation entirely after one {!is_null}
      test. *)

  val is_null : t -> bool

  val create : ?capacity:int -> unit -> t
  (** A live sink. [capacity] (default 4096) bounds the event ring
      buffer; older events are overwritten, counters are never
      lost. [capacity 0] keeps counters and the hot-PC histogram but
      records no events. *)

  val record : t -> ?ts:int -> event -> unit
  (** Append an event. [ts] is the producer's clock (the machine
      passes its cycle counter); when absent a per-sink sequence
      number is used, so event order is always preserved. *)

  val events : t -> (int * event) list
  (** Ring contents, oldest first, as [(ts, event)]. *)

  val total_events : t -> int
  (** Events ever recorded (monotonic; never decreases). *)

  val dropped_events : t -> int
  (** Events pushed out of the ring: [total_events - still buffered]. *)

  val opcode_count : t -> opcode_class -> int
  val fault_count : t -> fault_kind -> int

  val hot_pcs : ?n:int -> t -> (int * int) list
  (** The [n] (default 10) most frequently retired PCs as
      [(pc, count)], hottest first. *)

  val tag_writes : t -> int
  val collateral_tag_clears : t -> int
  val syscalls : t -> int
  val allocs : t -> int
  val frees : t -> int
  val alloc_bytes : t -> int64
  val cache_misses : t -> level:int -> int
end

(** {1 Snapshots} *)

(** An immutable copy of a sink's counters, cheap enough to attach to
    every {!Cheri_workloads.Runner.measurement}. *)
type snapshot = {
  total_events : int;
  dropped_events : int;
  opcode_counts : (opcode_class * int) list;  (** non-zero classes only *)
  fault_counts : (fault_kind * int) list;  (** non-zero kinds only *)
  hot_pcs : (int * int) list;
  tag_writes : int;
  collateral_tag_clears : int;
  syscalls : int;
  allocs : int;
  frees : int;
  alloc_bytes : int64;
  l1_miss_events : int;
  l2_miss_events : int;
}

val snapshot : Sink.t -> snapshot
(** [hot_pcs] holds the 10 hottest PCs. *)

(** {1 Exporters} *)

val pp_summary : Format.formatter -> Sink.t -> unit
(** Human-readable report: per-opcode-class and per-fault-kind
    counters, allocator and tag activity, and the hot-PC profile. *)

val snapshot_to_json : snapshot -> string
(** One JSON object (no trailing newline). *)

val jsonl_of_events : Sink.t -> string
(** The ring contents as JSON Lines: one [{"ts":..,"ev":..,...}]
    object per line, oldest first. *)

val chrome_trace : Sink.t -> string
(** The ring contents in Chrome [trace_event] format — a JSON array of
    instant events (plus process metadata) with the producer timestamp
    as the microsecond clock — loadable in [about:tracing] and
    Perfetto. *)

val json_escape : string -> string
(** Escape a string for inclusion inside a JSON string literal — an
    alias of {!Cheri_util.Json.escape}, the repo's one escaper. *)

val obs_to_counters : ?obs:Cheri_obs.Obs.t -> snapshot -> unit
(** Bridge a run's counters (retired instructions by class, faults by
    kind, tag activity) into a metrics registry (default
    {!Cheri_obs.Obs.default}) as labelled [machine_*_total] counters.
    One call per run; the per-instruction hot path is never
    instrumented directly. *)
