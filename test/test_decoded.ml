(* The decode stage: Decoded.compile must be a pure, semantics-neutral
   re-encoding of the instruction stream. The properties run generated
   mini-C programs through two independently decoded copies of the same
   image and through the interpreter reference, and the unit tests pin
   the decode-time rejection of code the table cannot represent
   (unresolved symbols, out-of-range register operands). *)

module I = Cheri_isa.Insn
module Decoded = Cheri_isa.Decoded
module Machine = Cheri_isa.Machine
module Abi = Cheri_compiler.Abi
module Codegen = Cheri_compiler.Codegen
module Gen = Cheri_fuzz.Gen
module Campaign = Cheri_fuzz.Campaign

let abis = Abi.[ Mips; Cheri Cheri_core.Cap_ops.V2; Cheri Cheri_core.Cap_ops.V3 ]

(* fuel bound: generated programs can loop; the property only asserts
   that both copies stop the same way, exhaustion included *)
let fuel = 2_000_000

let run_compiled abi linked =
  let m = Codegen.machine_for abi linked in
  let outcome = Machine.run ~fuel m in
  let st = Machine.stats m in
  (Format.asprintf "%a" Machine.pp_outcome outcome,
   Machine.output m, st.Machine.st_cycles, st.Machine.st_instret)

(* Two machines built from two independent compiles of the same source
   (two decodes) must execute identically: outcome, output bytes, cycle
   count and retired-instruction count; so must a second machine on the
   first one's shared decoded table. *)
let prop_decode_deterministic =
  QCheck.Test.make ~name:"decode: independent compiles execute identically" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src = Gen.source ~seed in
      List.for_all
        (fun abi ->
          match Codegen.compile_source abi src with
          | exception Abi.Unsupported _ -> true (* e.g. pointer diff under V2 *)
          | linked ->
              let first = run_compiled abi linked in
              first = run_compiled abi (Codegen.compile_source abi src)
              && first = run_compiled abi linked)
        abis)

(* Decode bookkeeping: the table remembers its source verbatim, keeps
   one row per instruction, classifies rows exactly as the undecoded
   stream would, and hashes to the pre-decode digest. *)
let prop_decode_bookkeeping =
  QCheck.Test.make ~name:"decode: source/length/class/digest preserved" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src = Gen.source ~seed in
      List.for_all
        (fun abi ->
          match Codegen.compile_source abi src with
          | exception Abi.Unsupported _ -> true
          | linked ->
              let code = linked.Cheri_asm.Asm.code in
              let p = Decoded.compile code in
              let name = Abi.name abi in
              Decoded.source p == code
              && Decoded.length p = Array.length code
              && Decoded.digest ~abi:name p = Decoded.source_digest ~abi:name code
              && Array.for_all
                   (fun i -> Decoded.telemetry_class p i = I.telemetry_class code.(i))
                   (Array.init (Array.length code) Fun.id))
        abis)

(* The end-to-end semantics check: the softcore (which executes only
   through the decoded table) must agree with the interpreter reference
   model, which never touches Decoded. *)
let prop_decode_agrees_with_interpreter =
  let interp =
    match Cheri_models.Registry.lookup "cheriv3" with
    | Some e -> Campaign.interp_impl e
    | None -> failwith "registry lost the cheriv3 model"
  in
  let softcore = Campaign.compiled_impl (Abi.Cheri Cheri_core.Cap_ops.V3) in
  QCheck.Test.make ~name:"decode: softcore agrees with interpreter reference" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      not (Campaign.divergent (Campaign.run_impls [ interp; softcore ] (Gen.source ~seed))))

(* -- decode-time rejection ------------------------------------------------ *)

let expect_invalid name code =
  match Decoded.compile code with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: unresolvable code accepted by Decoded.compile" name

let test_rejects_unresolved_branch () =
  expect_invalid "J" [| I.J (I.Sym "loop") |];
  expect_invalid "Branch" [| I.Branch (I.EQ, 1, 2, I.Sym "skip") |];
  expect_invalid "Branchz" [| I.Branchz (I.LTZ, 1, I.Sym "skip") |];
  expect_invalid "Jal" [| I.Jal (I.Sym "fn") |]

let test_rejects_unresolved_immediate () =
  expect_invalid "Li" [| I.Li (8, I.Sym_addr ("v", 0L)) |];
  expect_invalid "Alui" [| I.Alui (I.ADD, 8, 8, I.Sym_addr ("v", 8L)) |]

let test_rejects_register_out_of_range () =
  expect_invalid "rd" [| I.Alu (I.ADD, 32, 0, 0) |];
  expect_invalid "rs" [| I.Alu (I.ADD, 1, -1, 0) |];
  expect_invalid "cap" [| I.Cgettag (1, 64) |]

let test_create_code_rejects_unresolved () =
  match
    Machine.create_code (Machine.default_config Cheri_core.Cap_ops.V3)
      ~code:[| I.J (I.Sym "x") |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Machine.create_code accepted unresolved code"

(* -- one decode per linked program ------------------------------------------ *)

module Asm = Cheri_asm.Asm
module Snapshot = Cheri_snapshot.Snapshot

let v3 = Abi.Cheri Cheri_core.Cap_ops.V3
let small_source = Cheri_workloads.Dhrystone.source { Cheri_workloads.Dhrystone.iterations = 5 }
let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what (Snapshot.error_to_string e)

let test_machines_share_program () =
  let linked = Codegen.compile_source v3 small_source in
  let m1 = Codegen.machine_for v3 linked and m2 = Codegen.machine_for v3 linked in
  Alcotest.(check bool) "one decoded program" true (Machine.program m1 == Machine.program m2);
  Alcotest.(check bool) "the linked's program" true (Machine.program m1 == Asm.program linked)

(* A restore checks the image's code digest against the machine's
   program; on a fresh machine of the same [linked] that is the digest
   the save already computed, not a second print-and-hash. *)
let test_restore_reuses_digest () =
  let abi = Abi.name v3 in
  let linked = Codegen.compile_source v3 small_source in
  let m = Codegen.machine_for v3 linked in
  (match Machine.run ~fuel:1000 ~yield:true m with
  | Machine.Yielded -> ()
  | o -> Alcotest.failf "expected a yield: %a" Machine.pp_outcome o);
  let path = Filename.temp_file "decode_once" ".snap" in
  Fun.protect ~finally:(fun () -> Snapshot.remove path) @@ fun () ->
  ignore (ok "save" (Snapshot.save ~abi ~path m));
  let saved = Decoded.digest ~abi (Machine.program m) in
  let img = ok "load" (Snapshot.load path) in
  let restored () =
    let r = Codegen.machine_for v3 linked in
    ok "restore" (Snapshot.restore r ~abi img);
    Decoded.digest ~abi (Machine.program r)
  in
  let first = restored () in
  let second = restored () in
  Alcotest.(check bool) "first restore: the memoised string" true (first == saved);
  Alcotest.(check bool) "second restore: the memoised string" true (second == saved);
  Alcotest.(check (list string))
    "one memo entry" [ abi ]
    (List.map fst (Machine.program m).Decoded.digests)

let test_compiles_share_nothing () =
  let abi = Abi.name v3 in
  let a = Codegen.compile_source v3 small_source and b = Codegen.compile_source v3 small_source in
  let pa = Asm.program a and pb = Asm.program b in
  Alcotest.(check bool) "two programs" true (pa != pb);
  Alcotest.(check bool) "two code arrays" true (a.Asm.code != b.Asm.code);
  ignore (Decoded.digest ~abi pa);
  Alcotest.(check int) "the other's memo is empty" 0 (List.length pb.Decoded.digests);
  Alcotest.(check bool) "b's machine runs b's program" true
    (Machine.program (Codegen.machine_for v3 b) == pb)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_decode_deterministic;
    QCheck_alcotest.to_alcotest prop_decode_bookkeeping;
    QCheck_alcotest.to_alcotest prop_decode_agrees_with_interpreter;
    Alcotest.test_case "rejects unresolved branch targets" `Quick
      test_rejects_unresolved_branch;
    Alcotest.test_case "rejects unresolved immediates" `Quick
      test_rejects_unresolved_immediate;
    Alcotest.test_case "rejects register operands outside 0..31" `Quick
      test_rejects_register_out_of_range;
    Alcotest.test_case "create_code rejects unresolved code" `Quick
      test_create_code_rejects_unresolved;
    Alcotest.test_case "machines of one linked share its program" `Quick
      test_machines_share_program;
    Alcotest.test_case "a restore reuses the program's digest" `Quick test_restore_reuses_digest;
    Alcotest.test_case "two compiles share no program" `Quick test_compiles_share_nothing;
  ]
