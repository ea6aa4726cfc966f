(* Fault-injection campaign driver:

     cheri-inject [--seeds N] [--start N] [--kinds K1,K2] [--workloads W1,W2]
                  [--jobs N] [--fuel N] [--deadline S] [--json FILE]
                  [--checkpoint FILE] [--resume FILE] [--limit N] [--list]

   Runs the (workload x ABI x kind x seed) cross product over the
   domain pool, prints the per-ABI detection matrix, and exits 0 iff
   no task errored AND the CHERI ABIs showed zero silent corruptions
   for the pointer-protecting fault kinds — the paper's §4.2 claim as
   an executable check.

   --checkpoint FILE appends one JSONL record per finished task;
   --resume FILE restarts from such a file, skipping completed tasks,
   and (because reports are timing-free and fault parameters derive
   only from the task key) reproduces the uninterrupted run's --json
   output byte for byte.

     cheri-inject --self-test [--seeds N] [--jobs N]

   The deterministic CI smoke: a trimmed campaign asserting the CHERI
   detection guarantee, the MIPS silent-corruption contrast, watchdog
   reaping of a runaway workload, and kill+resume byte-identity. *)

module Inject = Cheri_inject.Inject
module Abi = Cheri_compiler.Abi
module Obs = Cheri_obs.Obs
module Json = Cheri_util.Json
module Cli = Cheri_util.Cli

let ppf = Format.std_formatter

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let cheri_abis = [ "CHERIv2"; "CHERIv3" ]
let pointer_kinds = List.filter Inject.pointer_protecting Inject.all_kinds

(* exit status: the §4.2 claim must hold on the CHERI ABIs *)
let guarantee_holds report =
  List.for_all
    (fun abi -> Inject.silent_count report ~abi pointer_kinds = 0)
    cheri_abis

(* -- self-test --------------------------------------------------------------- *)

let spin_workload =
  {
    Inject.w_name = "spin";
    w_source =
      (fun _ -> "int main(void) { long i = 0; while (1) { i = i + 1; } return 0; }");
  }

let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "self-test FAILED: %s@." msg;
      exit 1)
    fmt

let read_file path =
  match Cheri_util.File.read path with Ok s -> s | Error msg -> fail "%s" msg

(* the small deterministic campaign of the kill/resume checks; also run
   by the hidden [selftest-kill-child] subcommand, so parent and child
   must agree on these parameters *)
let small_campaign () =
  let small_workloads =
    List.filter (fun (w : Inject.workload) -> w.Inject.w_name = "zlib") Inject.builtin_workloads
  in
  Inject.default_campaign ~workloads:small_workloads
    ~kinds:[ Inject.Tag_clear; Inject.Alloc_fail ] ~seeds:2 ()

let selftest_slice = 20_000

let self_test ~seeds ~jobs =
  (* domains beyond the physical core count only stall the OCaml
     stop-the-world collector; the self-test clamps rather than pay
     2-3x wall on single-core CI runners *)
  let jobs = max 1 (min jobs (Domain.recommended_domain_count ())) in
  (* 1. detection matrix on a trimmed campaign: the CHERI ABIs must
     show zero silent corruptions for the pointer-protecting kinds,
     and the PDP-11 baseline must show some for the stray-store kind *)
  let workloads =
    List.filter
      (fun (w : Inject.workload) -> List.mem w.Inject.w_name [ "olden.treeadd"; "zlib" ])
      Inject.builtin_workloads
  in
  let c = Inject.default_campaign ~workloads ~seeds () in
  let report = Inject.run ~jobs c in
  Inject.pp_report ppf report;
  if report.Inject.r_errors <> [] then fail "campaign reported task errors";
  if List.length report.Inject.r_records <> 2 * 3 * 5 * seeds then
    fail "expected %d records, got %d" (2 * 3 * 5 * seeds)
      (List.length report.Inject.r_records);
  List.iter
    (fun abi ->
      let n = Inject.silent_count report ~abi pointer_kinds in
      if n <> 0 then
        fail "%s shows %d silent corruptions for pointer-protecting kinds" abi n)
    cheri_abis;
  if Inject.silent_count report ~abi:"MIPS" [ Inject.Tag_clear ] = 0 then
    fail "PDP-11 baseline shows no silent corruption under stray pointer stores";
  Format.fprintf ppf "matrix ok: CHERI 0 silent on tag/bounds kinds, PDP-11 nonzero@.";
  (* 2. watchdog: a runaway workload in the campaign is reaped as Hung
     on every task, and the rest of the campaign still completes *)
  let hang_c =
    Inject.default_campaign
      ~workloads:(spin_workload :: workloads)
      ~kinds:[ Inject.Bitflip ] ~seeds:2 ~fuel:300_000 ()
  in
  let hang_report = Inject.run ~jobs hang_c in
  if hang_report.Inject.r_errors <> [] then fail "hang campaign reported task errors";
  let spin_records =
    List.filter (fun r -> r.Inject.workload = "spin") hang_report.Inject.r_records
  in
  if spin_records = [] then fail "no records for the runaway workload";
  List.iter
    (fun r ->
      if r.Inject.verdict <> Inject.Hung then
        fail "runaway task classified %s, not hang" (Inject.verdict_key r.Inject.verdict))
    spin_records;
  let healthy =
    List.filter (fun r -> r.Inject.workload <> "spin") hang_report.Inject.r_records
  in
  if List.length healthy <> 2 * 3 * 2 then
    fail "healthy workloads did not complete alongside the runaway";
  Format.fprintf ppf "watchdog ok: runaway reaped as hang, campaign completed@.";
  (* 3. kill + resume: a partial checkpoint (as a kill leaves behind)
     resumed to completion must reproduce the uninterrupted report
     byte for byte — even with a torn final line *)
  let small = small_campaign () in
  let tmp suffix = Filename.temp_file "cheri_inject_selftest" suffix in
  let ck_full = tmp ".full.jsonl" and ck_part = tmp ".part.jsonl" in
  let full = Inject.run ~jobs ~checkpoint:ck_full small in
  (* byte-identity checks compare the timing-free report: resumed and
     sliced runs re-time different subsets of the tasks by design *)
  let full_json = Inject.report_json ~timing:false full in
  let partial = Inject.run ~jobs ~checkpoint:ck_part ~limit:5 small in
  if List.length partial.Inject.r_records <> 5 then
    fail "limited run completed %d tasks, expected 5" (List.length partial.Inject.r_records);
  (* simulate the kill tearing the final line mid-write *)
  write_file ck_part
    (let s = read_file ck_part in
     String.sub s 0 (String.length s - 7) ^ "\n{\"workload\":\"zl");
  let resumed = Inject.run ~jobs ~checkpoint:ck_part ~resume:ck_part small in
  if resumed.Inject.r_resumed = 0 then fail "resume restored no records";
  let resumed_json = Inject.report_json ~timing:false resumed in
  if resumed_json <> full_json then
    fail "resumed report differs from the uninterrupted run's";
  (* a mismatched campaign must be refused, not silently mixed in *)
  (match
     Inject.run ~jobs ~resume:ck_full
       { small with Inject.c_seeds = small.Inject.c_seeds + 1 }
   with
  | exception Inject.Resume_mismatch _ -> ()
  | _ -> fail "resume accepted a checkpoint from a different campaign");
  Sys.remove ck_full;
  Format.fprintf ppf
    "resume ok: killed+resumed campaign reproduced the full report (%d bytes)@."
    (String.length full_json);
  (* 4. preemptive slicing: the sliced engine must reproduce the
     unsliced report byte for byte, for more than one granularity *)
  List.iter
    (fun slice ->
      let sliced = Inject.run ~jobs ~slice small in
      if Inject.report_json ~timing:false sliced <> full_json then
        fail "sliced campaign (slice %d) diverged from the unsliced report" slice)
    [ selftest_slice; 7_777 ];
  (* corrupt or stale in-flight sidecars must degrade to a task restart,
     never to a wrong or missing record: plant garbage sidecars for
     every task of the campaign, then resume the torn checkpoint *)
  List.iter
    (fun abi ->
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              let key =
                Printf.sprintf "zlib-%s-%s-%d" (Abi.name abi) (Inject.kind_key kind) seed
              in
              write_file (ck_part ^ ".inflight." ^ key ^ ".snap") "not a snapshot")
            [ 0; 1 ])
        [ Inject.Tag_clear; Inject.Alloc_fail ])
    Abi.all;
  let resumed_sliced =
    Inject.run ~jobs ~checkpoint:ck_part ~resume:ck_part ~slice:selftest_slice small
  in
  if Inject.report_json ~timing:false resumed_sliced <> full_json then
    fail "sliced resume over corrupt sidecars diverged from the full report";
  Sys.remove ck_part;
  Format.fprintf ppf "sliced ok: preemptive engine bit-identical, bad sidecars ignored@.";
  (* 5. a real kill: fork a sliced campaign into a child process,
     SIGKILL it as soon as an in-flight sidecar shows up on disk (so at
     least one task is provably mid-run), and resume from the wreckage;
     the final report must still be byte-identical *)
  let ck_kill = tmp ".kill.jsonl" in
  Sys.remove ck_kill;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "selftest-kill-child"; ck_kill |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let dir = Filename.dirname ck_kill in
  let prefix = Filename.basename ck_kill ^ ".inflight." in
  let has_prefix s = String.length s >= String.length prefix
                     && String.sub s 0 (String.length prefix) = prefix in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait_for_sidecar () =
    if Unix.gettimeofday () > deadline then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      fail "no in-flight sidecar appeared within 60s"
    end
    else if Array.exists has_prefix (Sys.readdir dir) then ()
    else begin
      (* the child is still mid-campaign; look again shortly *)
      Unix.sleepf 0.005;
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> wait_for_sidecar ()
      | _ -> fail "kill-child finished before any sidecar was observed"
    end
  in
  wait_for_sidecar ();
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  let killed_resumed =
    Inject.run ~jobs ~checkpoint:ck_kill ~resume:ck_kill ~slice:selftest_slice small
  in
  if Inject.report_json ~timing:false killed_resumed <> full_json then
    fail "campaign killed mid-task then resumed diverged from the full report";
  if Array.exists has_prefix (Sys.readdir dir) then
    fail "completed campaign left in-flight sidecars behind";
  Sys.remove ck_kill;
  Format.fprintf ppf "kill ok: SIGKILL mid-task, sidecar resume reproduced the report@.";
  (* 6. observability: the campaign counters must not depend on the job
     count, the heartbeat status file must be valid JSON whenever it is
     observed, and the report's timing key must parse *)
  let counters_at jobs =
    let obs = Obs.create () in
    ignore (Inject.run ~jobs ~obs small);
    Obs.to_prometheus ~timing:false obs
  in
  let m1 = counters_at 1 in
  let m2 = counters_at (max 1 (min 2 (Domain.recommended_domain_count ()))) in
  if m1 = "" then fail "metrics dump is empty";
  if m1 <> m2 then fail "counters differ between --jobs 1 and --jobs 2:\n%s\nvs\n%s" m1 m2;
  let hb_path = tmp ".status.json" in
  let hb = Obs.Heartbeat.create ~interval_s:0.0 ~path:hb_path () in
  let hb_report = Inject.run ~jobs ~obs:(Obs.create ()) ~heartbeat:hb small in
  let status = read_file hb_path in
  (match Json.parse status with
  | Error e -> fail "final heartbeat status is not valid JSON (%s): %s" e status
  | Ok j -> (
      match Json.mem_int "tasks_done" j with
      | Some n when n = List.length hb_report.Inject.r_records -> ()
      | Some n -> fail "heartbeat reports %d tasks done, campaign ran %d" n
                    (List.length hb_report.Inject.r_records)
      | None -> fail "heartbeat status lacks tasks_done: %s" status));
  Sys.remove hb_path;
  (match Json.parse (Inject.report_json ~timing:true hb_report) with
  | Error e -> fail "timed report is not valid JSON: %s" e
  | Ok j ->
      if Option.bind (Json.member "timing" j) (Json.member "task_wall_p99_s") = None then
        fail "timed report lacks timing.task_wall_p99_s");
  Format.fprintf ppf
    "metrics ok: counters jobs-independent, heartbeat valid JSON, timing key parses@.";
  Format.fprintf ppf "self-test ok@."

(* -- driver ------------------------------------------------------------------ *)

let () =
  let seeds = ref 8 in
  let start = ref 0 in
  let jobs = ref (Cheri_exec.Exec.Pool.default_jobs ()) in
  let kinds = ref Inject.all_kinds in
  let workloads = ref Inject.builtin_workloads in
  let fuel = ref Inject.default_fuel in
  let deadline = ref None in
  let json = ref None in
  let checkpoint = ref None in
  let resume = ref None in
  let limit = ref None in
  let slice = ref None in
  let metrics = ref None in
  (* [Some None] = dump to stdout, [Some (Some f)] = write to [f] *)
  let heartbeat_s = ref None in
  let status_path = ref "status.json" in
  let selftest = ref false in
  (* hidden: the child process of the self-test's SIGKILL check — runs
     the small campaign sliced, with sidecars, until killed *)
  (match Array.to_list Sys.argv with
  | _ :: "selftest-kill-child" :: ck :: _ ->
      ignore (Inject.run ~jobs:1 ~checkpoint:ck ~slice:selftest_slice (small_campaign ()));
      exit 0
  | _ -> ());
  Cli.parse ~prog:"cheri-inject" ~usage:"[OPTIONS]   (kinds: bitflip tag-clear tag-set cap-field alloc-fail)"
    [
      Cli.int "--seeds" ~metavar:"N" ~doc:"seeds per (workload x ABI x kind) cell (default 8)"
        (fun n -> seeds := n);
      Cli.int "--start" ~metavar:"N" ~doc:"first seed (default 0)" (fun n -> start := n);
      Cli.int "--jobs" ~metavar:"N" ~doc:"worker domains (default: host parallelism)"
        (fun n -> jobs := max 1 n);
      Cli.int "--fuel" ~metavar:"N" ~doc:"per-task instruction budget" (fun n -> fuel := max 1 n);
      Cli.int "--limit" ~metavar:"N" ~doc:"run only the first N tasks" (fun n -> limit := Some n);
      Cli.int "--slice" ~metavar:"N" ~doc:"preempt each task every N instructions"
        (fun n -> slice := Some (max 1 n));
      Cli.float ~strictly_positive:true "--deadline" ~metavar:"SECS"
        ~doc:"per-task wall-clock watchdog"
        (fun x -> deadline := Some x);
      Cli.string "--kinds" ~metavar:"K1,K2" ~doc:"fault kinds to inject (default: all)"
        (fun v ->
          kinds :=
            List.map
              (fun k ->
                match Inject.kind_of_key k with
                | Some kind -> kind
                | None ->
                    Cli.die "unknown fault kind %s (known: %s)" k
                      (String.concat " " (List.map Inject.kind_key Inject.all_kinds)))
              (String.split_on_char ',' v));
      Cli.string "--workloads" ~metavar:"W1,W2" ~doc:"workloads to fault (default: all builtins)"
        (fun v ->
          workloads :=
            List.map
              (fun name ->
                match Inject.find_workload name with
                | Some w -> w
                | None ->
                    Cli.die "unknown workload %s (known: %s)" name
                      (String.concat " " Inject.workload_names))
              (String.split_on_char ',' v));
      Cli.string "--json" ~metavar:"FILE" ~doc:"write the detection matrix as JSON"
        (fun f -> json := Some f);
      Cli.string "--checkpoint" ~metavar:"FILE" ~doc:"append one JSONL record per finished task"
        (fun f -> checkpoint := Some f);
      Cli.string "--resume" ~metavar:"FILE" ~doc:"restart from a checkpoint file"
        (fun f -> resume := Some f);
      Cli.opt_string "--metrics" ~metavar:"FILE" ~doc:"dump the metrics registry to stdout or FILE"
        (fun v -> metrics := Some v);
      Cli.float "--heartbeat" ~metavar:"SECS" ~doc:"status-file cadence"
        (fun x -> heartbeat_s := Some x);
      Cli.string "--status" ~metavar:"FILE" ~doc:"heartbeat target (default status.json)"
        (fun f -> status_path := f);
      Cli.unit "--self-test" ~doc:"deterministic CI smoke, then exit" (fun () -> selftest := true);
      Cli.unit "--list" ~doc:"print the workload names and exit"
        (fun () ->
          List.iter print_endline Inject.workload_names;
          exit 0);
    ]
    (List.tl (Array.to_list Sys.argv));
  if !selftest then self_test ~seeds:!seeds ~jobs:!jobs
  else begin
    let c =
      Inject.default_campaign ~workloads:!workloads ~kinds:!kinds ~seeds:!seeds
        ~first_seed:!start ~fuel:!fuel ?deadline_s:!deadline ()
    in
    let heartbeat =
      Option.map
        (fun s -> Obs.Heartbeat.create ~interval_s:s ~path:!status_path ())
        !heartbeat_s
    in
    let report =
      match
        Inject.run ~jobs:!jobs ?checkpoint:!checkpoint ?resume:!resume ?limit:!limit
          ?slice:!slice ?heartbeat c
      with
      | r -> r
      | exception Inject.Resume_mismatch msg ->
          Format.eprintf "--resume: %s@." msg;
          exit 2
      | exception Cheri_util.Journal.Checkpoint_unwritable msg ->
          Format.eprintf "--checkpoint: %s@." msg;
          exit 2
    in
    Inject.pp_report ppf report;
    Option.iter
      (fun path ->
        write_file path (Inject.report_json report);
        Format.fprintf ppf "wrote %s@." path)
      !json;
    (* final metrics dump: JSONL when the target looks like JSON,
       Prometheus text otherwise (and on stdout) *)
    Option.iter
      (fun dest ->
        match dest with
        | None -> print_string (Obs.to_prometheus Obs.default)
        | Some path ->
            let data =
              if Filename.check_suffix path ".json" || Filename.check_suffix path ".jsonl"
              then Obs.to_jsonl Obs.default
              else Obs.to_prometheus Obs.default
            in
            write_file path data;
            Format.fprintf ppf "wrote %s@." path)
      !metrics;
    Format.pp_print_flush ppf ();
    if report.Inject.r_errors <> [] then exit 1;
    if !limit = None && not (guarantee_holds report) then begin
      Format.eprintf
        "silent corruptions on a CHERI ABI for pointer-protecting fault kinds@.";
      exit 1
    end
  end
