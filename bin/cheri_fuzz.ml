(* Differential-fuzz campaign driver:

     cheri-fuzz [--seeds N] [--start N] [--jobs N] [--shrink] [--json FILE]
                [--checkpoint FILE] [--resume FILE]

   Runs N seeds across the domain pool, each seed executing one
   generated program under all ten implementations of the C abstract
   machine (seven interpreter pointer models + three compiled ABIs).
   Exit status 0 iff every implementation agreed on every seed.

     cheri-fuzz --self-test [--seeds N] [--jobs N]

   The deterministic CI smoke: runs a clean campaign (expects zero
   divergences), then injects an intentionally-broken implementation
   and checks that the campaign flags every seed and that the shrinker
   produces a reproducer strictly smaller than the originating
   program. *)

module Campaign = Cheri_fuzz.Campaign
module Gen = Cheri_fuzz.Gen
module Obs = Cheri_obs.Obs
module Json = Cheri_util.Json
module Cli = Cheri_util.Cli

let ppf = Format.std_formatter

(* A deliberately wrong implementation: behaves like the PDP-11
   interpreter but flips the low bit of the exit code. Used by
   --self-test to prove the campaign detects and shrinks divergences. *)
let broken_impl () : Campaign.impl =
  let base = Campaign.interp_impl (List.hd Cheri_models.Registry.entries) in
  {
    Campaign.impl_name = "interp/broken";
    exec =
      (fun src ->
        let o = base.Campaign.exec src in
        {
          o with
          Campaign.impl = "interp/broken";
          status =
            (match o.Campaign.status with
            | Campaign.Exited c -> Campaign.Exited (Int64.logxor c 1L)
            | s -> s);
        });
  }

let self_test ~seeds ~jobs =
  (* 1. clean campaign: ten real implementations must agree on every seed *)
  let clean = Campaign.run ~shrink:true ~jobs ~seeds () in
  Campaign.pp_report ppf clean;
  if clean.Campaign.divergences <> [] || clean.Campaign.errors <> [] then begin
    Format.eprintf "self-test FAILED: clean campaign found divergences or errors@.";
    exit 1
  end;
  (* 2. injected divergence: every seed must be flagged and every
     reproducer must shrink to something strictly smaller *)
  let impls = Campaign.default_impls () @ [ broken_impl () ] in
  let broken_seeds = min seeds 3 in
  let broken = Campaign.run ~impls ~shrink:true ~jobs ~seeds:broken_seeds () in
  if List.length broken.Campaign.divergences <> broken_seeds then begin
    Format.eprintf "self-test FAILED: broken implementation not flagged on every seed@.";
    exit 1
  end;
  List.iter
    (fun (d : Campaign.divergence) ->
      match d.Campaign.minimized with
      | None ->
          Format.eprintf "self-test FAILED: seed %d did not shrink@." d.Campaign.seed;
          exit 1
      | Some m ->
          if String.length m >= String.length d.Campaign.source then begin
            Format.eprintf "self-test FAILED: seed %d reproducer did not get smaller@."
              d.Campaign.seed;
            exit 1
          end;
          if not (Campaign.divergent (Campaign.run_impls impls m)) then begin
            Format.eprintf "self-test FAILED: seed %d minimized program no longer diverges@."
              d.Campaign.seed;
            exit 1
          end)
    broken.Campaign.divergences;
  (* 3. observability: per-seed counters must not depend on the job
     count, and the heartbeat status file must be valid JSON *)
  let counters_at jobs =
    let obs = Obs.create () in
    ignore (Campaign.run ~jobs ~seeds:(min seeds 4) ~obs ());
    Obs.to_prometheus ~timing:false obs
  in
  let m1 = counters_at 1 in
  let m2 = counters_at (max 1 (min 2 (Domain.recommended_domain_count ()))) in
  if m1 = "" then begin
    Format.eprintf "self-test FAILED: metrics dump is empty@.";
    exit 1
  end;
  if m1 <> m2 then begin
    Format.eprintf "self-test FAILED: counters differ between --jobs 1 and --jobs 2@.";
    exit 1
  end;
  let hb_path = Filename.temp_file "cheri_fuzz_selftest" ".status.json" in
  let hb = Obs.Heartbeat.create ~interval_s:0.0 ~path:hb_path () in
  let hb_report =
    Campaign.run ~jobs ~seeds:(min seeds 4) ~obs:(Obs.create ()) ~heartbeat:hb ()
  in
  let status = Result.value ~default:"" (Cheri_util.File.read hb_path) in
  (match Json.parse status with
  | Error e ->
      Format.eprintf "self-test FAILED: heartbeat status is not valid JSON (%s): %s@." e
        status;
      exit 1
  | Ok j -> (
      match Json.mem_int "tasks_done" j with
      | Some n when n = hb_report.Campaign.seeds -> ()
      | _ ->
          Format.eprintf "self-test FAILED: heartbeat tasks_done disagrees: %s@." status;
          exit 1));
  Sys.remove hb_path;
  (match Json.parse (Campaign.report_json ~timing:true hb_report) with
  | Ok j when Option.bind (Json.member "timing" j) (Json.member "task_wall_p99_s") <> None
    -> ()
  | Ok _ ->
      Format.eprintf "self-test FAILED: timed report lacks timing.task_wall_p99_s@.";
      exit 1
  | Error e ->
      Format.eprintf "self-test FAILED: timed report is not valid JSON: %s@." e;
      exit 1);
  Format.fprintf ppf
    "metrics ok: counters jobs-independent, heartbeat valid JSON, timing key parses@.";
  Format.fprintf ppf
    "self-test ok: %d clean seeds agreed; injected divergence flagged and shrunk on %d seeds@."
    seeds broken_seeds

let () =
  let seeds = ref 100 in
  let start = ref 0 in
  let jobs = ref (Cheri_exec.Exec.Pool.default_jobs ()) in
  let shrink = ref false in
  let json = ref None in
  let checkpoint = ref None in
  let resume = ref None in
  let metrics = ref None in
  (* [Some None] = dump to stdout, [Some (Some f)] = write to [f] *)
  let heartbeat_s = ref None in
  let status_path = ref "status.json" in
  let selftest = ref false in
  Cli.parse ~prog:"cheri-fuzz" ~usage:"[OPTIONS]"
    [
      Cli.int "--seeds" ~metavar:"N" ~doc:"number of seeds to run (default 100)"
        (fun n -> seeds := n);
      Cli.int "--start" ~metavar:"N" ~doc:"first seed (default 0)" (fun n -> start := n);
      Cli.int ~min:1 "--jobs" ~metavar:"N" ~doc:"worker domains (default: host parallelism)"
        (fun n -> jobs := n);
      Cli.unit "--shrink" ~doc:"minimize each divergent program" (fun () -> shrink := true);
      Cli.string "--json" ~metavar:"FILE" ~doc:"write the campaign report as JSON"
        (fun f -> json := Some f);
      Cli.string "--checkpoint" ~metavar:"FILE" ~doc:"append one JSONL record per finished seed"
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
    ]
    (List.tl (Array.to_list Sys.argv));
  if !selftest then self_test ~seeds:!seeds ~jobs:!jobs
  else begin
    let heartbeat =
      Option.map
        (fun s -> Obs.Heartbeat.create ~interval_s:s ~path:!status_path ())
        !heartbeat_s
    in
    let report =
      match
        Campaign.run ~shrink:!shrink ~jobs:!jobs ~first_seed:!start
          ?checkpoint:!checkpoint ?resume:!resume ?heartbeat ~seeds:!seeds ()
      with
      | r -> r
      | exception Campaign.Resume_mismatch msg ->
          Format.eprintf "--resume: %s@." msg;
          exit 2
      | exception Cheri_util.Journal.Checkpoint_unwritable msg ->
          Format.eprintf "--checkpoint: %s@." msg;
          exit 2
    in
    Campaign.pp_report ppf report;
    Option.iter
      (fun path ->
        Cli.write_output ~flag:"--json" path (Campaign.report_json report);
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
            Cli.write_output ~flag:"--metrics" path data;
            Format.fprintf ppf "wrote %s@." path)
      !metrics;
    Format.pp_print_flush ppf ();
    if report.Campaign.divergences <> [] || report.Campaign.errors <> [] then exit 1
  end
