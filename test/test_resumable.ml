(* The two resume primitives every campaign and service shares:
   Resumable (resume a machine from its checkpoint, else scratch) and
   Journal (the crash-safe JSONL campaign record). Both read untrusted
   files, so both are checked for totality on arbitrary bytes. *)

module Machine = Cheri_isa.Machine
module Abi = Cheri_compiler.Abi
module Codegen = Cheri_compiler.Codegen
module Snapshot = Cheri_snapshot.Snapshot
module Resumable = Cheri_snapshot.Resumable
module Journal = Cheri_util.Journal
module Json = Cheri_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_temp f =
  let path = Filename.temp_file "cheri-test-resumable" ".tmp" in
  Fun.protect ~finally:(fun () -> Snapshot.remove path) (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* -- Resumable ------------------------------------------------------------ *)

let abi = Abi.Mips
let abi_name = Abi.name abi
let schema = "cheri_c.test-task/v1"

let src =
  "int main(void) { long s = 0; for (long i = 0; i < 2000; i++) s = s + i; print_int(s); return 0; }"

let linked = lazy (Codegen.compile_source abi src)
let fresh () = Codegen.machine_for abi (Lazy.force linked)

(* a machine preempted mid-run, with something to lose *)
let midrun () =
  let m = fresh () in
  (match Machine.run ~fuel:3_000 ~yield:true m with
  | Machine.Yielded -> ()
  | o -> Alcotest.failf "finished early: %s" (Format.asprintf "%a" Machine.pp_outcome o));
  m

let task_note key = Resumable.note ~schema [ ("task", Json.Num (string_of_int key)) ]
let accept key j = if Json.mem_int "task" j = Some key then Some key else None

let test_resume_policy () =
  with_temp (fun path ->
      let m = midrun () in
      Resumable.save ~note:(task_note 3) ~abi:abi_name ~path m;
      (match Resumable.resume ~schema ~accept:(accept 3) ~abi:abi_name ~fresh path with
      | Some (m2, 3) -> check_int "resumed at the saved instret" (Machine.instret m) (Machine.instret m2)
      | Some _ | None -> Alcotest.fail "own checkpoint not resumed");
      check_bool "another task's checkpoint is scratch" true
        (Resumable.resume ~schema ~accept:(accept 4) ~abi:abi_name ~fresh path |> Option.is_none);
      check_bool "a foreign schema is scratch" true
        (Resumable.resume ~schema:"cheri_c.other/v1" ~accept:(accept 3) ~abi:abi_name ~fresh path
        |> Option.is_none);
      check_bool "another ABI is scratch" true
        (Resumable.resume ~schema ~accept:(accept 3) ~abi:"CHERIv3" ~fresh path |> Option.is_none);
      (match Resumable.read_note path with
      | Ok note -> check_bool "note-only read" true (note = task_note 3)
      | Error e -> Alcotest.failf "read_note: %s" (Snapshot.error_to_string e));
      (* the strict variant names the refusal *)
      (match
         Resumable.restore ~abi:abi_name ~fresh
           ~check:(fun s -> Result.map ignore (Resumable.open_note ~schema:"cheri_c.other/v1" s))
           path
       with
      | Error (Snapshot.Machine_mismatch _) -> ()
      | _ -> Alcotest.fail "strict restore accepted a foreign note");
      check_bool "the save left a spare" true (Sys.file_exists (path ^ ".tmp"));
      Resumable.discard path;
      check_bool "discarded" false (Sys.file_exists path);
      check_bool "the spare too" false (Sys.file_exists (path ^ ".tmp"));
      Resumable.discard path;
      check_bool "a missing checkpoint is scratch" true
        (Resumable.resume ~schema ~accept:(accept 3) ~abi:abi_name ~fresh path |> Option.is_none);
      match Resumable.restore ~abi:abi_name ~fresh ~check:(fun _ -> Ok ()) path with
      | Error (Snapshot.Io _) -> ()
      | _ -> Alcotest.fail "strict restore of a missing file is not an Io error")

(* -- Journal -------------------------------------------------------------- *)

(* a toy campaign: tasks 0..2, records (task, value) *)
let codec : (int, int * string) Journal.codec =
  {
    Journal.header = "{\"schema\":\"cheri_c.test-journal/v1\",\"tasks\":3}";
    key = fst;
    encode = (fun (k, v) -> Printf.sprintf "{\"k\":%d,\"v\":\"%s\"}" k (Json.escape v));
    decode =
      (fun j ->
        match (Json.mem_int "k" j, Json.mem_str "v" j) with
        | Some k, Some v -> Some (k, v)
        | _ -> None);
  }

let tasks = [ 0; 1; 2 ]

let test_journal () =
  with_temp (fun path ->
      let j = Journal.start ~checkpoint:path codec ~tasks in
      List.iter (Journal.record j) [ (2, "b"); (0, "a"); (0, "a again"); (7, "not a task") ];
      Journal.close j;
      (* a killed run tears its final line *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "{\"k\":1,\"v\":\"to";
      close_out oc;
      let want = [ (0, "a again"); (2, "b") ] in
      (match Journal.load codec ~tasks path with
      | Ok rs -> check_bool "task order, last line wins, foreign and torn lines skipped" true (rs = want)
      | Error e -> Alcotest.failf "load: %s" (Journal.error_to_string e));
      (* a restart reads, then rewrites the same file whole *)
      let j = Journal.start ~resume:path ~checkpoint:path codec ~tasks in
      Journal.close j;
      check_bool "restored" true (Journal.restored j = want);
      check_bool "find" true (Journal.find j 2 = Some (2, "b") && Journal.find j 1 = None);
      let lines = In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n' in
      check_bool "rewritten: header and one line per restored record" true
        (lines = [ codec.Journal.header; {|{"k":0,"v":"a again"}|}; {|{"k":2,"v":"b"}|}; "" ]);
      (match Journal.load { codec with Journal.header = "{\"schema\":\"x\"}" } ~tasks path with
      | Error (Journal.Mismatch _) -> ()
      | _ -> Alcotest.fail "a different campaign's journal was accepted");
      write_file path "";
      match Journal.load codec ~tasks path with
      | Error (Journal.Mismatch _) -> ()
      | _ -> Alcotest.fail "an empty journal was accepted");
  List.iter
    (fun path ->
      match Journal.load codec ~tasks path with
      | Error (Journal.Unreadable _) -> ()
      | _ -> Alcotest.failf "%s: not an Unreadable error" path)
    [ "/nonexistent/journal.jsonl"; Filename.get_temp_dir_name () ];
  match Journal.start ~resume:"/nonexistent/journal.jsonl" codec ~tasks with
  | exception Journal.Resume_mismatch _ -> ()
  | _ -> Alcotest.fail "resume from a missing file did not raise Resume_mismatch"

(* -- totality on arbitrary bytes ---------------------------------------------- *)

(* Arbitrary bytes as a checkpoint file, as a note inside a valid
   checkpoint, or as a journal's header or body: resume is scratch,
   the strict variant an Error, and a journal an Error or records of
   the campaign's tasks only. Nothing raises. *)
let prop_totality =
  let base = lazy (midrun ()) in
  let strict_check s = Result.map ignore (Resumable.open_note ~schema s) in
  QCheck.Test.make ~name:"arbitrary bytes never resume and never raise" ~count:150 QCheck.string
    (fun bytes ->
      with_temp (fun path ->
          let refused () =
            Option.is_none
              (Resumable.resume ~schema ~accept:(fun _ -> Some ()) ~abi:abi_name ~fresh path)
            && Result.is_error (Resumable.restore ~abi:abi_name ~fresh ~check:strict_check path)
          in
          write_file path bytes;
          let as_file = refused () in
          Resumable.save ~note:bytes ~abi:abi_name ~path (Lazy.force base);
          let as_note = refused () in
          let own rs =
            List.for_all (fun (k, _) -> List.mem k tasks) rs
            && List.length (List.sort_uniq compare (List.map fst rs)) = List.length rs
          in
          let valid = [ (0, "x"); (1, "y") ] in
          let body = String.concat "\n" (List.map codec.Journal.encode valid) in
          write_file path (bytes ^ "\n" ^ body);
          let as_header =
            match Journal.load codec ~tasks path with Error _ -> true | Ok rs -> rs = valid
          in
          write_file path (codec.Journal.header ^ "\n" ^ bytes);
          let as_body = match Journal.load codec ~tasks path with Error _ -> false | Ok rs -> own rs in
          as_file && as_note && as_header && as_body))

(* -- the CLIs: an unreadable input or checkpoint is one line, no backtrace -- *)

let run_cli exe args =
  with_temp (fun err ->
      let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid = Unix.create_process exe (Array.append [| exe |] args) devnull devnull fd in
      Unix.close fd;
      Unix.close devnull;
      let code =
        match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1
      in
      let ic = open_in_bin err in
      let msg = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, msg))

(* beside this test binary in the build tree (see test/dune's deps) *)
let built exe = Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ exe)

let test_cli_resume_unreadable () =
  let dir = Filename.get_temp_dir_name () in
  let ckpt = "/nonexistent/x.jsonl" and out = "/nonexistent/x.json" in
  with_temp @@ fun src ->
  write_file src "int main(void) { return 0; }";
  List.iter
    (fun (exe, args, code, prefix) ->
      let got, msg = run_cli (built exe) args in
      let what = String.concat " " (exe :: Array.to_list args) in
      check_int (what ^ ": exit code") code got;
      check_bool (what ^ ": one structured line, got " ^ String.escaped msg) true
        (String.starts_with ~prefix msg
        && String.index_opt msg '\n' = Some (String.length msg - 1)))
    [
      ("bin/cheri_inject.exe", [| "--seeds"; "1"; "--resume"; "/nonexistent" |], 2, "--resume:");
      ("bin/cheri_fuzz.exe", [| "--seeds"; "1"; "--resume"; "/nonexistent" |], 2, "--resume:");
      ("bin/cheri_inject.exe", [| "--seeds"; "1"; "--resume"; dir |], 2, "--resume:");
      ("bin/cheri_fuzz.exe", [| "--seeds"; "1"; "--resume"; dir |], 2, "--resume:");
      ("bin/cheri_inject.exe", [| "--limit"; "1"; "--checkpoint"; ckpt |], 2, "--checkpoint: " ^ ckpt);
      ("bin/cheri_fuzz.exe", [| "--seeds"; "1"; "--checkpoint"; ckpt |], 2, "--checkpoint: " ^ ckpt);
      ("bin/cheri_run.exe", [| dir |], 1, dir ^ ": ");
      ("bench/main.exe", [| "compare"; dir; dir |], 2, "compare: " ^ dir ^ ": ");
      (* an unwritable output file: the same one line, never a backtrace *)
      ("bin/cheri_fuzz.exe", [| "--seeds"; "1"; "--json"; out |], 2, "--json: " ^ out ^ ": ");
      ("bin/cheri_inject.exe", [| "--limit"; "1"; "--json"; out |], 2, "--json: " ^ out ^ ": ");
      ( "bin/cheri_run.exe",
        [| "--profile"; "--stats-json"; out; src |],
        2,
        "--stats-json: " ^ out ^ ": " );
      ("bench/main.exe", [| "json"; out |], 2, "json: " ^ out ^ ": ");
      (* a zero budget, slice or pool size is rejected, never clamped to 1 *)
      ("bin/cheri_inject.exe", [| "--fuel"; "0" |], 2, "--fuel expects a positive integer");
      ("bin/cheri_inject.exe", [| "--slice"; "0" |], 2, "--slice expects a positive integer");
      ("bin/cheri_inject.exe", [| "--jobs"; "0" |], 2, "--jobs expects a positive integer");
      ("bin/cheri_fuzz.exe", [| "--jobs"; "0" |], 2, "--jobs expects a positive integer");
    ]

(* A save never tears the image. cheri-run checkpointing every 2000
   instructions is SIGKILLed at staggered instants, so some kills land
   mid-save; whatever stands at the path afterwards must load. A run
   that spends its whole budget keeps its image and drops the spare. *)
let test_kill_mid_save () =
  with_temp @@ fun src ->
  (* a 1 MiB image that changes between saves, so it takes many
     write calls and a torn one would fail its CRC *)
  write_file src
    "int main(void) { long *a = (long *)malloc(8 * 131072); long i = 0; \
     while (1) { a[(i * 512) % 131072] = i; i = i + 1; } return 0; }";
  with_temp @@ fun snap ->
  Sys.remove snap;
  let exe = built "bin/cheri_run.exe" in
  let run args =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process exe
        (Array.append [| exe; "--slice"; "2000"; "--snapshot"; snap |] args)
        devnull devnull devnull
    in
    Unix.close devnull;
    pid
  in
  let loaded = ref 0 in
  for k = 0 to 7 do
    let pid = run [| "--fuel"; "1000000000"; src |] in
    Unix.sleepf (0.05 +. (0.03 *. float_of_int k));
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    if Sys.file_exists snap then
      match Snapshot.load snap with
      | Ok _ -> incr loaded
      | Error e -> Alcotest.failf "kill %d left a torn image: %s" k (Snapshot.error_to_string e)
  done;
  check_bool (Printf.sprintf "%d of 8 kills found an image" !loaded) true (!loaded > 0);
  let pid = run [| "--fuel"; "50000"; src |] in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 1 -> ()
  | _ -> Alcotest.fail "a run out of fuel does not exit 1");
  (match Snapshot.load snap with
  | Ok img -> check_int "the image is the end of the budget" 50_000 (Snapshot.image_instret img)
  | Error e -> Alcotest.failf "the fuel-exhausted image: %s" (Snapshot.error_to_string e));
  check_bool "no spare beside it" false (Sys.file_exists (snap ^ ".tmp"))

let suite =
  [
    Alcotest.test_case "resume accepts only its own task's checkpoint" `Quick test_resume_policy;
    Alcotest.test_case "journal: task order, torn tail, foreign keys, errors" `Quick test_journal;
    QCheck_alcotest.to_alcotest prop_totality;
    Alcotest.test_case "cheri-inject/cheri-fuzz: unreadable --resume exits 2" `Quick
      test_cli_resume_unreadable;
    Alcotest.test_case "cheri-run: a kill mid-save never tears the image" `Quick
      test_kill_mid_save;
  ]
