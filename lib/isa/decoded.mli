(** Pre-decoded programs: the softcore's compile stage.

    {!compile} turns a resolved [Insn.t array] into a flat PC-indexed
    table of unboxed execution records, doing once — at load time —
    everything the interpreter used to redo on every retire:

    - operand register numbers become register-file {e byte offsets},
      pre-shifted ([r lsl 3]) for the machine's [Bytes]-backed GPR file,
      with destination [r0] redirected to the write sink slot;
    - immediates, memory offsets and link values are pre-staged as
      little-endian [int64] slots in one [Bytes.t];
    - branch/jump targets are pre-resolved to absolute PCs;
    - each instruction's specialized opcode implies its static cycle
      cost, so the execute stage carries costs as literals instead of
      consulting a cost function.

    The table has one extra sentinel row past the end of the program so
    that the fall-off-the-end PC dispatches to a defined out-of-range
    entry rather than needing a separate bounds compare on the in-range
    hot path. *)

type op =
  | O_nop
  | O_li
  | O_add
  | O_addt
  | O_sub
  | O_mul
  | O_div
  | O_divu
  | O_rem
  | O_remu
  | O_and
  | O_or
  | O_xor
  | O_nor
  | O_sll
  | O_srl
  | O_sra
  | O_slt
  | O_sltu
  | O_seq
  | O_sne
  | O_addi
  | O_addti
  | O_subi
  | O_muli
  | O_divi
  | O_divui
  | O_remi
  | O_remui
  | O_andi
  | O_ori
  | O_xori
  | O_nori
  | O_slli
  | O_srli
  | O_srai
  | O_slti
  | O_sltui
  | O_seqi
  | O_snei
  | O_load_s
  | O_load_u
  | O_load8
  | O_store
  | O_store8
  | O_cload_s
  | O_cload_u
  | O_cload8
  | O_cstore
  | O_cstore8
  | O_clc
  | O_csc
  | O_cgetbase
  | O_cgetlen
  | O_cgetoffset
  | O_cgettag
  | O_cgetperm
  | O_cincoffset
  | O_cincoffsetimm
  | O_csetoffset
  | O_cincbase
  | O_csetlen
  | O_candperm
  | O_ccleartag
  | O_cmove
  | O_cseal
  | O_cunseal
  | O_cfromptr
  | O_cptrcmp_eq
  | O_cptrcmp_ne
  | O_cptrcmp_lt
  | O_cptrcmp_le
  | O_ctoptr
  | O_beq
  | O_bne
  | O_bltz
  | O_blez
  | O_bgtz
  | O_bgez
  | O_beqz
  | O_bnez
  | O_j
  | O_jal
  | O_jr
  | O_jalr
  | O_cjalr
  | O_cjr
  | O_syscall
  | O_halt
  | O_oor  (** sentinel: PC one past the last instruction *)

type program = private {
  src : Insn.t array;
  ops : op array;  (** length [n+1]; [ops.(n)] is {!O_oor} *)
  xs : int array;
  ys : int array;
  zs : int array;
  imms : Bytes.t;  (** 8 LE bytes per slot: immediates, offsets, links *)
  classes : Cheri_telemetry.Telemetry.opcode_class array;
  mutable digests : (string * string) list;  (** {!digest} memo, keyed by ABI *)
}
(** The fields are exposed (read-only) so the machine's execute loop can
    index them directly without accessor-call overhead; construct only
    via {!compile}. *)

val compile : Insn.t array -> program
(** Pre-decode a resolved program.

    @raise Invalid_argument if any instruction still carries an
    unresolved symbolic operand ([Insn.Sym]/[Insn.Sym_addr]) — linking
    must finish before decode, exactly as the machine previously
    required at construction. *)

val length : program -> int
(** Number of {e source} instructions (the sentinel row is not
    counted). *)

val source : program -> Insn.t array
(** The original instruction stream the program was compiled from. *)

val telemetry_class : program -> int -> Cheri_telemetry.Telemetry.opcode_class
(** [telemetry_class p pc] is the pre-computed telemetry class of the
    instruction at [pc]. *)

val gpr_sink_slot : int
(** Index of the extra register-file slot that absorbs writes to [r0]
    (the decoded table redirects [rd = 0] destinations here so the hot
    path stores unconditionally). *)

val source_digest : abi:string -> Insn.t array -> string
(** MD5 hex digest of [abi] plus the pretty-printed instruction stream
    — byte-identical to the digest the snapshot subsystem computed
    before the decode stage existed, so snapshot images remain
    compatible. *)

val digest : abi:string -> program -> string
(** {!source_digest} of {!source}, computed once per ABI and then
    remembered with the program. *)
