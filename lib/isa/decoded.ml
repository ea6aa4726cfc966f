module Telemetry = Cheri_telemetry.Telemetry

(* One constructor per *specialized* executable form, not per Insn.t
   constructor: ALU register/immediate forms get separate opcodes (the
   immediate operand is read straight out of [imms], so nothing is
   staged through a scratch register at run time), loads split by
   signedness, compares and zero-branches by kind. Constant
   constructors are immediate ints, so [ops] is a flat unboxed array
   and the softcore's dispatch is a single jump table over the tag —
   this is also where the per-opcode static cycle cost lands: each
   specialized arm carries its cost as a literal (MUL 4, the DIV family
   16, everything the old [alu_cost] match computed per retire). *)
type op =
  | O_nop
  | O_li
  (* ALU, register form: x=rd offset, y=rs offset, z=rt offset *)
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
  (* ALU, immediate form: x=rd offset, y=rs offset, imm *)
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
  (* memory *)
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
  (* capability queries *)
  | O_cgetbase
  | O_cgetlen
  | O_cgetoffset
  | O_cgettag
  | O_cgetperm
  (* capability modifies *)
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
  (* capability compares / conversions *)
  | O_cptrcmp_eq
  | O_cptrcmp_ne
  | O_cptrcmp_lt
  | O_cptrcmp_le
  | O_ctoptr
  (* control flow *)
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
  (* system *)
  | O_syscall
  | O_halt
  (* sentinel occupying slot [length], so an index equal to the code
     length dispatches to a defined entry instead of reading past the
     table *)
  | O_oor

type program = {
  src : Insn.t array;  (* the original resolved instructions *)
  ops : op array;  (* length n+1: one sentinel O_oor entry at index n *)
  xs : int array;
  ys : int array;
  zs : int array;
  imms : Bytes.t;  (* 8 bytes per slot, LE: immediates / offsets / links *)
  classes : Telemetry.opcode_class array;  (* per-pc telemetry class *)
  mutable digests : (string * string) list;  (* [digest] memo, keyed by ABI *)
}

let length p = Array.length p.src
let source p = p.src
let telemetry_class p pc = p.classes.(pc)

(* Register-file byte offsets, pre-shifted once here instead of per
   retire. Destination writes to r0 are redirected to the machine's
   sink slot (index 32) so the hot path writes unconditionally and the
   architectural r0 bytes stay zero; reads use the true offset (offset
   0 reads the never-written zeros). *)
let gpr_sink_slot = 32
let[@inline] src_off r = r lsl 3
let[@inline] dst_off r = (if r = 0 then gpr_sink_slot else r) lsl 3

let unresolved i insn =
  invalid_arg
    (Format.asprintf "Decoded.compile: unresolved instruction %d: %a" i Insn.pp insn)

let bad_reg i insn =
  invalid_arg
    (Format.asprintf "Decoded.compile: register out of range in instruction %d: %a" i Insn.pp
       insn)

let compile (code : Insn.t array) : program =
  let n = Array.length code in
  let ops = Array.make (n + 1) O_oor in
  let xs = Array.make (n + 1) 0 in
  let ys = Array.make (n + 1) 0 in
  let zs = Array.make (n + 1) 0 in
  let imms = Bytes.make ((n + 1) * 8) '\000' in
  let classes = Array.make n Telemetry.Op_nop in
  let set_imm i v = Bytes.set_int64_le imms (i lsl 3) v in
  let alu_r : Insn.alu_op -> op = function
    | ADD -> O_add
    | ADDT -> O_addt
    | SUB -> O_sub
    | MUL -> O_mul
    | DIV -> O_div
    | DIVU -> O_divu
    | REM -> O_rem
    | REMU -> O_remu
    | AND -> O_and
    | OR -> O_or
    | XOR -> O_xor
    | NOR -> O_nor
    | SLL -> O_sll
    | SRL -> O_srl
    | SRA -> O_sra
    | SLT -> O_slt
    | SLTU -> O_sltu
    | SEQ -> O_seq
    | SNE -> O_sne
  in
  let alu_i : Insn.alu_op -> op = function
    | ADD -> O_addi
    | ADDT -> O_addti
    | SUB -> O_subi
    | MUL -> O_muli
    | DIV -> O_divi
    | DIVU -> O_divui
    | REM -> O_remi
    | REMU -> O_remui
    | AND -> O_andi
    | OR -> O_ori
    | XOR -> O_xori
    | NOR -> O_nori
    | SLL -> O_slli
    | SRL -> O_srli
    | SRA -> O_srai
    | SLT -> O_slti
    | SLTU -> O_sltui
    | SEQ -> O_seqi
    | SNE -> O_snei
  in
  for i = 0 to n - 1 do
    let insn = code.(i) in
    classes.(i) <- Insn.telemetry_class insn;
    let imm_value = function
      | Insn.Imm v -> v
      | Insn.Sym_addr _ -> unresolved i insn
    in
    let target_value = function Insn.Abs d -> d | Insn.Sym _ -> unresolved i insn in
    (* Every register operand — GPR or capability — is validated to
       0..31 here, once. The execute stage indexes its register files
       with unchecked accesses on the strength of this check (the old
       interpreter deferred the same malformed programs to a runtime
       [Invalid_argument] at first execution). *)
    let reg r = if r land -32 <> 0 then bad_reg i insn else r in
    let src_off r = src_off (reg r) in
    let dst_off r = dst_off (reg r) in
    let cidx c = reg c in
    (match insn with
    | Insn.Nop -> ops.(i) <- O_nop
    | Li (rd, v) ->
        ops.(i) <- O_li;
        xs.(i) <- dst_off rd;
        set_imm i (imm_value v)
    | Alu (aop, rd, rs, rt) ->
        ops.(i) <- alu_r aop;
        xs.(i) <- dst_off rd;
        ys.(i) <- src_off rs;
        zs.(i) <- src_off rt
    | Alui (aop, rd, rs, v) ->
        ops.(i) <- alu_i aop;
        xs.(i) <- dst_off rd;
        ys.(i) <- src_off rs;
        set_imm i (imm_value v)
    | Load { w; signed; rd; rs; off } ->
        (* at 8 bytes sign- and zero-extension coincide, so both map to
           the width-specialized op *)
        let size = Insn.bytes_of_width w in
        ops.(i) <- (if size = 8 then O_load8 else if signed then O_load_s else O_load_u);
        xs.(i) <- dst_off rd;
        ys.(i) <- src_off rs;
        zs.(i) <- size;
        set_imm i (Int64.of_int off)
    | Store { w; rv; rs; off } ->
        let size = Insn.bytes_of_width w in
        ops.(i) <- (if size = 8 then O_store8 else O_store);
        xs.(i) <- src_off rv;
        ys.(i) <- src_off rs;
        zs.(i) <- size;
        set_imm i (Int64.of_int off)
    | Cload { w; signed; rd; cb; roff; off } ->
        let size = Insn.bytes_of_width w in
        ops.(i) <- (if size = 8 then O_cload8 else if signed then O_cload_s else O_cload_u);
        xs.(i) <- dst_off rd;
        ys.(i) <- src_off roff;
        zs.(i) <- cidx cb lor (size lsl 8);
        set_imm i (Int64.of_int off)
    | Cstore { w; rv; cb; roff; off } ->
        let size = Insn.bytes_of_width w in
        ops.(i) <- (if size = 8 then O_cstore8 else O_cstore);
        xs.(i) <- src_off rv;
        ys.(i) <- src_off roff;
        zs.(i) <- cidx cb lor (size lsl 8);
        set_imm i (Int64.of_int off)
    | Clc { cd; cb; roff; off } ->
        ops.(i) <- O_clc;
        xs.(i) <- cidx cd;
        ys.(i) <- src_off roff;
        zs.(i) <- cidx cb;
        set_imm i (Int64.of_int off)
    | Csc { cs; cb; roff; off } ->
        ops.(i) <- O_csc;
        xs.(i) <- cidx cs;
        ys.(i) <- src_off roff;
        zs.(i) <- cidx cb;
        set_imm i (Int64.of_int off)
    | Cgetbase (rd, cb) ->
        ops.(i) <- O_cgetbase;
        xs.(i) <- dst_off rd;
        ys.(i) <- cidx cb
    | Cgetlen (rd, cb) ->
        ops.(i) <- O_cgetlen;
        xs.(i) <- dst_off rd;
        ys.(i) <- cidx cb
    | Cgetoffset (rd, cb) ->
        ops.(i) <- O_cgetoffset;
        xs.(i) <- dst_off rd;
        ys.(i) <- cidx cb
    | Cgettag (rd, cb) ->
        ops.(i) <- O_cgettag;
        xs.(i) <- dst_off rd;
        ys.(i) <- cidx cb
    | Cgetperm (rd, cb) ->
        ops.(i) <- O_cgetperm;
        xs.(i) <- dst_off rd;
        ys.(i) <- cidx cb
    | Cincoffset (cd, cb, rt) ->
        ops.(i) <- O_cincoffset;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb;
        zs.(i) <- src_off rt
    | Cincoffsetimm (cd, cb, delta) ->
        ops.(i) <- O_cincoffsetimm;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb;
        set_imm i delta
    | Csetoffset (cd, cb, rt) ->
        ops.(i) <- O_csetoffset;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb;
        zs.(i) <- src_off rt
    | Cincbase (cd, cb, rt) ->
        ops.(i) <- O_cincbase;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb;
        zs.(i) <- src_off rt
    | Csetlen (cd, cb, rt) ->
        ops.(i) <- O_csetlen;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb;
        zs.(i) <- src_off rt
    | Candperm (cd, cb, mask) ->
        ops.(i) <- O_candperm;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb;
        (* Perms.of_bits keeps only the low byte; pre-mask it here *)
        zs.(i) <- Int64.to_int mask land 0xff
    | Ccleartag (cd, cb) ->
        ops.(i) <- O_ccleartag;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb
    | Cmove (cd, cb) ->
        ops.(i) <- O_cmove;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb
    | Cseal (cd, cs, ct) ->
        ops.(i) <- O_cseal;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cs;
        zs.(i) <- cidx ct
    | Cunseal (cd, cs, ct) ->
        ops.(i) <- O_cunseal;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cs;
        zs.(i) <- cidx ct
    | Cptrcmp (k, rd, ca, cb) ->
        ops.(i) <-
          (match k with
          | CEQ -> O_cptrcmp_eq
          | CNE -> O_cptrcmp_ne
          | CLT | CLTU -> O_cptrcmp_lt
          | CLE | CLEU -> O_cptrcmp_le);
        xs.(i) <- dst_off rd;
        ys.(i) <- cidx ca;
        zs.(i) <- cidx cb
    | Cfromptr (cd, cb, rs) ->
        ops.(i) <- O_cfromptr;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb;
        zs.(i) <- src_off rs
    | Ctoptr (rd, cs, cb) ->
        ops.(i) <- O_ctoptr;
        xs.(i) <- dst_off rd;
        ys.(i) <- cidx cs;
        zs.(i) <- cidx cb
    | Branch (c, rs, rt, tg) ->
        ops.(i) <- (match c with EQ -> O_beq | NE -> O_bne);
        xs.(i) <- src_off rs;
        ys.(i) <- src_off rt;
        zs.(i) <- target_value tg
    | Branchz (k, rs, tg) ->
        ops.(i) <-
          (match k with
          | LTZ -> O_bltz
          | LEZ -> O_blez
          | GTZ -> O_bgtz
          | GEZ -> O_bgez
          | EQZ -> O_beqz
          | NEZ -> O_bnez);
        xs.(i) <- src_off rs;
        zs.(i) <- target_value tg
    | J tg ->
        ops.(i) <- O_j;
        zs.(i) <- target_value tg
    | Jal tg ->
        ops.(i) <- O_jal;
        zs.(i) <- target_value tg;
        set_imm i (Int64.of_int (i + 1))  (* pre-staged link value *)
    | Jr rs ->
        ops.(i) <- O_jr;
        xs.(i) <- src_off rs
    | Jalr rs ->
        ops.(i) <- O_jalr;
        xs.(i) <- src_off rs;
        set_imm i (Int64.of_int (i + 1))
    | Cjalr (cd, cb) ->
        ops.(i) <- O_cjalr;
        xs.(i) <- cidx cd;
        ys.(i) <- cidx cb;
        set_imm i (Int64.of_int (i + 1))
    | Cjr cb ->
        ops.(i) <- O_cjr;
        xs.(i) <- cidx cb
    | Syscall -> ops.(i) <- O_syscall
    | Halt -> ops.(i) <- O_halt)
  done;
  { src = code; ops; xs; ys; zs; imms; classes; digests = [] }

(* The digest is computed over the *source* instruction stream, printed
   with Insn.pp — byte-identical to what the snapshot subsystem hashed
   before the decode stage existed, so on-disk snapshot images stay
   compatible. *)
let source_digest ~abi code =
  let b = Buffer.create (Array.length code * 24) in
  Buffer.add_string b abi;
  Buffer.add_char b '\n';
  let ppf = Format.formatter_of_buffer b in
  Array.iter (fun insn -> Format.fprintf ppf "%a@\n" Insn.pp insn) code;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Memoized per (program, ABI): every checkpoint of a run pins the same
   digest, and printing the program through [Format] costs more than
   the rest of a small save's header. A race between domains at worst
   computes the same value twice. *)
let digest ~abi p =
  match List.assoc_opt abi p.digests with
  | Some d -> d
  | None ->
      let d = source_digest ~abi p.src in
      p.digests <- (abi, d) :: p.digests;
      d
