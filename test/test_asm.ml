(* Assembler/linker tests: symbol resolution, data directives, error
   reporting, and the loader's interaction with the heap allocator. *)

module I = Cheri_isa.Insn
module Machine = Cheri_isa.Machine
module Asm = Cheri_asm.Asm
module B = Asm.Builder

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let test_label_resolution () =
  let b = B.create () in
  B.emit b (I.J (I.Sym "end"));
  B.emit b I.Nop;
  B.label b "end";
  B.emit b I.Halt;
  let l = Asm.link b in
  (match l.Asm.code.(0) with
  | I.J (I.Abs 2) -> ()
  | i -> Alcotest.failf "unresolved jump: %a" I.pp i);
  check_int "symbol table" 2 (Asm.code_symbol l "end")

let test_undefined_symbol () =
  let b = B.create () in
  B.emit b (I.J (I.Sym "nowhere"));
  match Asm.link b with
  | exception Asm.Undefined_symbol "nowhere" -> ()
  | _ -> Alcotest.fail "expected Undefined_symbol"

let test_duplicate_label_rejected () =
  let b = B.create () in
  B.label b "l";
  match B.label b "l" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate label accepted"

let test_fresh_labels_unique () =
  let b = B.create () in
  let l1 = B.fresh_label b "x" and l2 = B.fresh_label b "x" in
  Alcotest.(check bool) "distinct" true (l1 <> l2)

let test_data_directives () =
  let b = B.create () in
  B.data_bytes b "abc";
  B.data_align b 8;
  B.data_label b "w";
  B.data_word b 0x1122334455667788L;
  B.emit b I.Halt;
  let l = Asm.link b in
  check_i64 "aligned symbol" (Int64.add l.Asm.data_base 8L) (Asm.data_symbol l "w");
  check_int "data size" 16 (Bytes.length l.Asm.data);
  check_i64 "word contents" 0x1122334455667788L (Bytes.get_int64_le l.Asm.data 8)

let test_sym_addr_resolution () =
  let b = B.create () in
  B.data_label b "v";
  B.data_word b 7L;
  B.emit b (I.Li (8, I.Sym_addr ("v", 4L)));
  B.emit b I.Halt;
  let l = Asm.link b in
  match l.Asm.code.(0) with
  | I.Li (8, I.Imm a) -> check_i64 "address + addend" (Int64.add l.Asm.data_base 4L) a
  | i -> Alcotest.failf "unresolved immediate: %a" I.pp i

let test_code_symbol_as_immediate () =
  (* function pointers: a code label used in Li resolves to its index *)
  let b = B.create () in
  B.emit b (I.Li (8, I.Sym_addr ("fn", 0L)));
  B.emit b I.Halt;
  B.label b "fn";
  B.emit b I.Nop;
  let l = Asm.link b in
  match l.Asm.code.(0) with
  | I.Li (8, I.Imm 2L) -> ()
  | i -> Alcotest.failf "code symbol not resolved to index: %a" I.pp i

let test_loader_reserves_data () =
  (* the heap must never hand out addresses inside the data segment *)
  let b = B.create () in
  B.data_label b "blob";
  B.data_zeros b 4096;
  B.emit b (I.Li (2, I.Imm Machine.syscall_malloc));
  B.emit b (I.Li (4, I.Imm 64L));
  B.emit b I.Syscall;
  B.emit b (I.Alu (I.ADD, 4, 2, 0));
  B.emit b (I.Li (2, I.Imm Machine.syscall_exit));
  B.emit b I.Syscall;
  let l = Asm.link b in
  let m = Asm.make_machine l in
  match Machine.run m with
  | Machine.Exit addr ->
      let data_end = Int64.add l.Asm.data_base (Int64.of_int (Bytes.length l.Asm.data)) in
      Alcotest.(check bool) "allocation above the data segment" true (addr >= data_end)
  | o -> Alcotest.failf "unexpected outcome %a" Machine.pp_outcome o

let test_machine_rejects_unresolved () =
  match Machine.create_code (Machine.default_config Cheri_core.Cap_ops.V3) ~code:[| I.J (I.Sym "x") |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "machine accepted unresolved code"

(* Linking must not force a minor collection. The builder's
   instructions are promoted first, so the only young blocks are the
   ones the link makes; the first instruction's resolved jump is one of
   them, and seeding a 300-slot array with it would empty the minor
   heap. A full major collection, not just a minor one, comes first:
   the array is allocated in the major heap, and with enough major
   allocation pending since the last slice that would request a major
   slice, which may empty the minor heap too. *)
let test_link_forces_no_minor_gc () =
  let b = B.create () in
  B.emit b (I.J (I.Sym "end"));
  for k = 1 to 300 do
    B.emit b (I.Li (1 + (k mod 8), I.Imm (Int64.of_int k)))
  done;
  B.label b "end";
  B.emit b I.Halt;
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let l = Asm.link b in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  check_int "minor collections during link" 0 (after - before);
  check_int "every instruction linked" 302 (Array.length l.Asm.code);
  match (l.Asm.code.(0), l.Asm.code.(300)) with
  | I.J (I.Abs 301), I.Li (_, I.Imm 300L) -> ()
  | i, j -> Alcotest.failf "misplaced instructions: %a, %a" I.pp i I.pp j

let suite =
  [
    Alcotest.test_case "label resolution" `Quick test_label_resolution;
    Alcotest.test_case "undefined symbol" `Quick test_undefined_symbol;
    Alcotest.test_case "duplicate label rejected" `Quick test_duplicate_label_rejected;
    Alcotest.test_case "fresh labels unique" `Quick test_fresh_labels_unique;
    Alcotest.test_case "data directives" `Quick test_data_directives;
    Alcotest.test_case "symbol immediates" `Quick test_sym_addr_resolution;
    Alcotest.test_case "code symbols as immediates" `Quick test_code_symbol_as_immediate;
    Alcotest.test_case "loader reserves data segment" `Quick test_loader_reserves_data;
    Alcotest.test_case "machine rejects unresolved code" `Quick test_machine_rejects_unresolved;
    Alcotest.test_case "link forces no minor collection" `Quick test_link_forces_no_minor_gc;
  ]
