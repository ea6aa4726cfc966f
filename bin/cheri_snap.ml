(* Snapshot inspection tool and the snapshot/resume CI smoke:

     cheri-snap info FILE        # describe a snapshot without running it
     cheri-snap --self-test      # the deterministic resumability check

   The self-test is the executable form of the snapshot guarantee: for
   every ABI, a run that is preempted, serialized to disk, restored
   into a *fresh process* and finished must be byte-identical — same
   output, same cycles, same instret — to a run that was never
   interrupted. Plus the negative paths: truncated, corrupt,
   wrong-format and wrong-ABI images are refused with a structured
   error and exit code 2, never an exception.

   (An undocumented [resume-child] subcommand is the fresh process the
   self-test forks into; it loads a snapshot, finishes the run, and
   reports its observables through a file.) *)

module Machine = Cheri_isa.Machine
module Abi = Cheri_compiler.Abi
module Codegen = Cheri_compiler.Codegen
module Snapshot = Cheri_snapshot.Snapshot
module D = Cheri_workloads.Dhrystone

let usage () =
  prerr_endline "usage: cheri-snap info FILE\n       cheri-snap --self-test";
  exit 2

let fail fmt = Format.kasprintf (fun s -> prerr_endline ("cheri-snap: " ^ s); exit 1) fmt

let snap_fail e =
  Format.eprintf "cheri-snap: %a@." Snapshot.pp_error e;
  exit 2

let abi_key = function
  | Abi.Mips -> "mips"
  | Abi.Cheri Cheri_core.Cap_ops.V2 -> "v2"
  | Abi.Cheri Cheri_core.Cap_ops.V3 -> "v3"

let read_file path =
  match Cheri_util.File.read path with Ok s -> s | Error msg -> fail "%s" msg

let write_file path contents =
  match Cheri_util.File.write path contents with Ok () -> () | Error msg -> fail "%s" msg

(* small enough to replay in milliseconds, long enough that a midpoint
   snapshot has live heap, cache and output state behind it *)
let test_source = D.source { D.iterations = 30 }
let test_fuel = 50_000_000

type observed = { o_outcome : string; o_cycles : int; o_instret : int; o_output : string }

let observe m outcome =
  {
    o_outcome = Format.asprintf "%a" Machine.pp_outcome outcome;
    o_cycles = Machine.cycles m;
    o_instret = Machine.instret m;
    o_output = Machine.output m;
  }

let observed_to_string o =
  Printf.sprintf "%s\n%d\n%d\n%s" o.o_outcome o.o_cycles o.o_instret o.o_output

let fresh_machine abi = Codegen.machine_for abi (Codegen.compile_source abi test_source)

let run_uninterrupted abi =
  let m = fresh_machine abi in
  observe m (Machine.run ~fuel:test_fuel m)

(* run in [slice]-instruction pieces until the program finishes *)
let run_out ~slice m =
  let rec go () =
    match Machine.run ~fuel:slice ~yield:true m with
    | Machine.Yielded -> go ()
    | finished -> finished
  in
  go ()

(* -- resume-child: the fresh process of the kill/resume test --------------- *)

let resume_child snap_path abi_arg out_path =
  let abi =
    match Abi.of_key abi_arg with
    | Some abi -> abi
    | None -> fail "resume-child: unknown ABI %s" abi_arg
  in
  let m = fresh_machine abi in
  (match Snapshot.load snap_path with
  | Error e -> snap_fail e
  | Ok img -> (
      match Snapshot.restore m ~abi:(Abi.name abi) img with
      | Error e -> snap_fail e
      | Ok () -> ()));
  let o = observe m (Machine.run ~fuel:test_fuel m) in
  write_file out_path (observed_to_string o)

(* -- self-test -------------------------------------------------------------- *)

let temp suffix = Filename.temp_file "cheri-snap-test" suffix

let rm path = if Sys.file_exists path then Sys.remove path

(* preempt a fresh machine mid-run and persist it; [at] is a fuel
   budget that must land strictly inside the program *)
let snapshot_midrun abi ~at path =
  let m = fresh_machine abi in
  (match Machine.run ~fuel:at ~yield:true m with
  | Machine.Yielded -> ()
  | o -> fail "%s: program finished (%a) before the midpoint snapshot" (Abi.name abi)
           Machine.pp_outcome o);
  (match Snapshot.save ~abi:(Abi.name abi) ~path m with
  | Ok _ -> Snapshot.remove_spare path
  | Error e -> fail "%s: midpoint save failed: %s" (Abi.name abi) (Snapshot.error_to_string e));
  m

let expect_error what result check =
  match result with
  | Ok _ -> fail "%s: expected a structured error, got success" what
  | Error e ->
      if not (check e) then
        fail "%s: wrong error class: %s" what (Snapshot.error_to_string e)

let in_process_tests () =
  List.iter
    (fun abi ->
      let name = Abi.name abi in
      let reference = run_uninterrupted abi in
      (* 1. preemptive slicing alone must not change any observable;
         the odd slice size lands yields at unaligned boundaries *)
      let m = fresh_machine abi in
      let sliced = observe m (run_out ~slice:7_123 m) in
      if sliced <> reference then fail "%s: sliced run diverged from uninterrupted run" name;
      (* 2. save at a midpoint, restore into a fresh machine, finish
         both — the original and the restored copy must agree with the
         reference on every observable *)
      let snap = temp ".snap" in
      let at = reference.o_instret / 2 in
      let m1 = snapshot_midrun abi ~at snap in
      let cont1 = observe m1 (run_out ~slice:9_001 m1) in
      if cont1 <> reference then fail "%s: continued-after-save run diverged" name;
      let m2 = fresh_machine abi in
      (match Snapshot.load snap with
      | Error e -> fail "%s: load failed: %s" name (Snapshot.error_to_string e)
      | Ok img -> (
          if Snapshot.image_abi img <> name then fail "%s: image records wrong ABI" name;
          if Snapshot.image_instret img <> at then
            fail "%s: image instret %d, expected %d" name (Snapshot.image_instret img) at;
          match Snapshot.restore m2 ~abi:name img with
          | Error e -> fail "%s: restore failed: %s" name (Snapshot.error_to_string e)
          | Ok () -> ()));
      let mid = Machine.snapshot m2 in
      let cont2 = observe m2 (Machine.run ~fuel:test_fuel m2) in
      if cont2 <> reference then fail "%s: restored run diverged from uninterrupted run" name;
      (* 3. restore into machines whose memory is dirty from an earlier
         run, so no stale byte or tag may survive the restore: one that
         ran this program to the end must then finish like the
         reference, and one that ran a different program must hold
         exactly the midpoint state (its code differs, so it is
         compared state for state rather than run) *)
      let m3 = fresh_machine abi in
      ignore (Machine.run ~fuel:test_fuel m3);
      (match Snapshot.load snap with
      | Error e -> fail "%s: reload failed: %s" name (Snapshot.error_to_string e)
      | Ok img -> (
          match Snapshot.restore m3 ~abi:name img with
          | Error e -> fail "%s: restore over a finished run failed: %s" name (Snapshot.error_to_string e)
          | Ok () -> ()));
      if observe m3 (Machine.run ~fuel:test_fuel m3) <> reference then
        fail "%s: restore over a finished run diverged from uninterrupted run" name;
      let other =
        Codegen.machine_for abi (Codegen.compile_source abi (D.source { D.iterations = 31 }))
      in
      ignore (Machine.run ~fuel:test_fuel other);
      Machine.restore other mid;
      if Machine.snapshot other <> mid then
        fail "%s: restore into a machine that ran another program left stale state" name;
      rm snap)
    Abi.all

let negative_tests () =
  let abi = Abi.(Cheri Cheri_core.Cap_ops.V3) in
  let name = Abi.name abi in
  let snap = temp ".snap" in
  ignore (snapshot_midrun abi ~at:20_000 snap);
  let good = read_file snap in
  let variant suffix contents =
    let path = temp suffix in
    write_file path contents;
    path
  in
  (* truncation: cut inside the body *)
  let truncated = variant ".trunc" (String.sub good 0 (String.length good - 257)) in
  expect_error "truncated image" (Snapshot.load truncated) (function
    | Snapshot.Truncated _ -> true
    | _ -> false);
  rm truncated;
  (* corruption: same length, one flipped body byte *)
  let corrupt =
    let b = Bytes.of_string good in
    let pos = Bytes.length b - 64 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    variant ".corrupt" (Bytes.to_string b)
  in
  expect_error "corrupt image" (Snapshot.load corrupt) (function
    | Snapshot.Crc_mismatch _ -> true
    | _ -> false);
  rm corrupt;
  (* wrong format: the magic is not ours *)
  let alien = variant ".alien" ("not a snapshot at all\n" ^ String.make 64 'x') in
  expect_error "foreign file" (Snapshot.load alien) (function
    | Snapshot.Version_mismatch _ -> true
    | _ -> false);
  rm alien;
  (* wrong machine: a CHERIv3 image refuses a MIPS machine *)
  (match Snapshot.load snap with
  | Error e -> fail "negative tests: reload failed: %s" (Snapshot.error_to_string e)
  | Ok img ->
      let mips = fresh_machine Abi.Mips in
      expect_error "cross-ABI restore"
        (Snapshot.restore mips ~abi:(Abi.name Abi.Mips) img)
        (function Snapshot.Machine_mismatch _ -> true | _ -> false);
      (* wrong program: same ABI, different code *)
      let other =
        Codegen.machine_for abi
          (Codegen.compile_source abi (D.source { D.iterations = 31 }))
      in
      expect_error "cross-program restore"
        (Snapshot.restore other ~abi:name img)
        (function Snapshot.Machine_mismatch _ -> true | _ -> false);
      if not (String.length (Snapshot.describe img) > 0) then fail "describe is empty");
  (* missing file is an Io error, not an exception *)
  expect_error "missing file"
    (Snapshot.load (snap ^ ".does-not-exist"))
    (function Snapshot.Io _ -> true | _ -> false);
  rm snap

(* fork the real binary: restore must work in a process with no shared
   state, and a bad image must exit 2 with a message, not a backtrace *)
let fresh_process_tests () =
  let spawn args =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.append [| Sys.executable_name |] args)
        Unix.stdin devnull devnull
    in
    Unix.close devnull;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  in
  List.iter
    (fun abi ->
      let name = Abi.name abi in
      let reference = run_uninterrupted abi in
      let snap = temp ".snap" in
      let out = temp ".out" in
      ignore (snapshot_midrun abi ~at:(reference.o_instret / 2) snap);
      let code = spawn [| "resume-child"; snap; abi_key abi; out |] in
      if code <> 0 then fail "%s: resume-child exited %d" name code;
      let got = read_file out in
      if got <> observed_to_string reference then
        fail "%s: fresh-process resume diverged from uninterrupted run" name;
      rm snap;
      rm out)
    Abi.all;
  (* the child must refuse garbage with exit 2 *)
  let bad = temp ".bad" in
  write_file bad "cheri_c.snap/v1\ngarbage";
  let out = temp ".out" in
  let code = spawn [| "resume-child"; bad; "v3"; out |] in
  if code <> 2 then fail "resume-child accepted a corrupt image (exit %d, expected 2)" code;
  rm bad;
  rm out

let self_test () =
  in_process_tests ();
  negative_tests ();
  fresh_process_tests ();
  print_endline "cheri-snap self-test: all checks passed"

let () =
  match Array.to_list Sys.argv with
  | _ :: [ "--self-test" ] -> self_test ()
  | _ :: [ "info"; file ] -> (
      match Snapshot.load file with
      | Error e -> snap_fail e
      | Ok img -> print_endline (Snapshot.describe img))
  | _ :: [ "resume-child"; snap; abi; out ] -> resume_child snap abi out
  | _ -> usage ()
