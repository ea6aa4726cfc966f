(** Symbolic assembler and loader for the CHERI softcore.

    Code is built through a mutable {!Builder}, using symbolic labels
    for control flow and data symbols for globals and literals.
    {!link} resolves everything to a {!linked} image; {!make_machine}
    instantiates a reset {!Cheri_isa.Machine} with the data segment
    loaded and reserved from the heap allocator. *)

module Insn = Cheri_isa.Insn
module Machine = Cheri_isa.Machine

module Builder : sig
  type t

  val create : unit -> t

  (** {2 Code section} *)

  val label : t -> string -> unit
  (** Define a code label at the current position. Raises
      [Invalid_argument] on redefinition. *)

  val fresh_label : t -> string -> string
  (** A unique label with the given prefix (for compiler temporaries). *)

  val emit : t -> Insn.t -> unit
  val here : t -> int
  (** Current code position (instruction index). *)

  (** {2 Data section} *)

  val data_label : t -> string -> unit
  val data_bytes : t -> string -> unit
  val data_word : t -> int64 -> unit
  (** An 8-byte little-endian word. *)

  val data_zeros : t -> int -> unit
  val data_align : t -> int -> unit
end

type linked = private {
  code : Insn.t array;
  data : bytes;
  data_base : int64;
  code_symbols : (string * int) list;
  data_symbols : (string * int64) list;
  decoded : Cheri_isa.Decoded.program option Atomic.t;
      (** {!program}'s table once the first machine is made *)
}

exception Undefined_symbol of string

val link : ?data_base:int64 -> Builder.t -> linked
(** Resolve all symbolic targets and immediates. Branch targets resolve
    against code labels; [Sym_addr] immediates resolve against data
    symbols first, then against code labels (whose "address" is the
    instruction index — how function pointers are represented). *)

val code_symbol : linked -> string -> int
val data_symbol : linked -> string -> int64

val program : linked -> Cheri_isa.Decoded.program
(** The decoded program, compiled on the first call and shared by every
    later one: the table is immutable, and its {!Cheri_isa.Decoded.digest}
    memo is computed once for all machines of this [linked]. Safe to call
    from several domains; a race decodes twice and keeps one table. *)

val make_machine : ?config:Machine.config -> linked -> Machine.t
(** A machine at reset with the data segment copied into memory at
    [data_base] and removed from the malloc free list, running
    {!program}. The default config is [Machine.default_config V3]. *)

val run_code :
  ?config:Machine.config -> ?fuel:int -> Insn.t list -> Machine.outcome * Machine.t
(** Convenience for tests: assemble a list of pre-resolved instructions
    with no data and run it. *)
