(* Run a mini-C source file on the abstract machine under a chosen
   pointer model (default CHERIv3). Model names resolve through
   Registry.lookup: canonical key, alias, or table display name.

     cheri-run [-m pdp11|hardbound|mpx|relaxed|strict|cheriv2|cheriv3] file.c
     cheri-run -a file.c          # run under every model
     cheri-run -S [-abi mips|v2|v3] file.c   # dump softcore assembly
     cheri-run -x [-abi mips|v2|v3] file.c   # compile and execute on the softcore
     cheri-run --fuel N ... file.c  # step budget: softcore instructions or
                                    # interpreter expression evaluations;
                                    # exhaustion reports as a structured hang

   Observability (each implies -x, i.e. softcore execution):

     cheri-run --profile file.c              # hot-PC profile + event counters
     cheri-run --trace[=FILE] file.c         # JSONL event dump (stdout or FILE)
     cheri-run --stats-json FILE file.c      # machine stats + telemetry as JSON ("-" = stdout)
     cheri-run --chrome-trace FILE file.c    # Chrome trace_event JSON for Perfetto

   Resumable execution (each implies -x):

     cheri-run --slice N file.c              # run in fuel slices of N instructions
     cheri-run --snapshot FILE file.c        # persist a machine snapshot at every
                                             # slice boundary; removed on completion
     cheri-run --resume FILE file.c          # restore FILE (same source + ABI) and
                                             # continue; bad images exit 2 *)

module Telemetry = Cheri_telemetry.Telemetry
module Machine = Cheri_isa.Machine
module Snapshot = Cheri_snapshot.Snapshot
module Resumable = Cheri_snapshot.Resumable
module Obs = Cheri_obs.Obs
module Cli = Cheri_util.Cli

let read_file path =
  match Cheri_util.File.read path with
  | Ok s -> s
  | Error msg ->
      prerr_endline msg;
      exit 1

(* the output file of [flag]; "-" is stdout *)
let write_file ~flag path contents =
  if path = "-" then print_string contents else Cli.write_output ~flag path contents

let report name outcome =
  match outcome with
  | Cheri_interp.Interp.Exit (code, out) ->
      print_string out;
      Format.printf "[%s] exit %Ld@." name code
  | Fault (f, out) ->
      print_string out;
      Format.printf "[%s] FAULT: %a@." name Cheri_models.Fault.pp f
  | Stuck msg -> Format.printf "[%s] stuck: %s@." name msg
  | Exhausted out ->
      print_string out;
      Format.printf "[%s] HANG: step limit exhausted@." name

let dump_assembly abi src =
  let linked = Cheri_compiler.Codegen.compile_source abi src in
  Array.iteri (fun i insn -> Format.printf "%5d  %a@." i Cheri_isa.Insn.pp insn)
    linked.Cheri_asm.Asm.code;
  Format.printf "; data segment: %d bytes at 0x%Lx@."
    (Bytes.length linked.Cheri_asm.Asm.data)
    linked.Cheri_asm.Asm.data_base;
  List.iter (fun (s, i) -> Format.printf "; code symbol %-24s -> %d@." s i)
    (List.sort compare linked.Cheri_asm.Asm.code_symbols)

(* Machine stats plus the telemetry snapshot, as one JSON object. *)
let stats_json abi outcome (st : Machine.stats) (snap : Telemetry.snapshot) =
  Printf.sprintf
    "{\"abi\":\"%s\",\"outcome\":\"%s\",\"cycles\":%d,\"instret\":%d,\"loads\":%d,\"stores\":%d,\"cap_loads\":%d,\"cap_stores\":%d,\"l1_hits\":%d,\"l1_misses\":%d,\"l2_hits\":%d,\"l2_misses\":%d,\"heap_allocated\":%Ld,\"telemetry\":%s}"
    (Telemetry.json_escape (Cheri_compiler.Abi.name abi))
    (Telemetry.json_escape (Format.asprintf "%a" Machine.pp_outcome outcome))
    st.Machine.st_cycles st.Machine.st_instret st.Machine.st_loads st.Machine.st_stores
    st.Machine.st_cap_loads st.Machine.st_cap_stores st.Machine.st_l1_hits
    st.Machine.st_l1_misses st.Machine.st_l2_hits st.Machine.st_l2_misses
    st.Machine.st_heap_allocated
    (Telemetry.snapshot_to_json snap)

type telemetry_opts = {
  profile : bool;
  trace : string option option;  (* None = off, Some None = stdout, Some (Some f) = file *)
  stats_json_to : string option;
  chrome_trace_to : string option;
  fuel : int option;  (* --fuel: softcore instruction / interpreter step budget *)
  slice : int option;  (* --slice: preempt the softcore every N instructions *)
  snapshot_to : string option;  (* --snapshot: persist state at slice boundaries *)
  resume_from : string option;  (* --resume: restore a snapshot before running *)
  metrics : string option option;  (* --metrics: dump the registry (stdout or FILE) *)
  heartbeat_s : float option;  (* --heartbeat: status file cadence; implies slicing *)
  status_path : string;  (* --status: where the heartbeat writes (default status.json) *)
}

let telemetry_wanted o =
  o.profile || o.trace <> None || o.stats_json_to <> None || o.chrome_trace_to <> None
  (* --metrics needs a live sink too: the per-class instruction and
     fault counters are bridged from the telemetry snapshot post-run *)
  || o.metrics <> None
  || o.heartbeat_s <> None

let resumable_wanted o = o.slice <> None || o.snapshot_to <> None || o.resume_from <> None

(* --snapshot without an explicit granularity still has to stop
   somewhere; a few million instructions keeps the save overhead in the
   noise while bounding the lost work on a crash *)
let default_slice = 4_000_000

let execute_on_softcore opts abi src =
  let linked = Cheri_compiler.Codegen.compile_source abi src in
  let m = Cheri_compiler.Codegen.machine_for abi linked in
  let sink =
    if telemetry_wanted opts then begin
      (* a deep ring only matters when events are dumped *)
      let capacity =
        if opts.trace <> None || opts.chrome_trace_to <> None then 1 lsl 16 else 4096
      in
      let s = Telemetry.Sink.create ~capacity () in
      Machine.set_sink m s;
      s
    end
    else Telemetry.Sink.null
  in
  let abi_name = Cheri_compiler.Abi.name abi in
  let snap_fail e =
    Format.eprintf "cheri-run: %a@." Snapshot.pp_error e;
    exit 2
  in
  (* --resume is strict: every refusal is fatal, exit 2 *)
  Option.iter
    (fun path ->
      match Resumable.restore ~abi:abi_name ~fresh:(fun () -> m) ~check:(fun _ -> Ok ()) path with
      | Error e -> snap_fail e
      | Ok _ -> Format.eprintf "[resumed %s at %d retired instructions]@." path (Machine.instret m))
    opts.resume_from;
  let words_before = Gc.minor_words () in
  let wall_before = Unix.gettimeofday () in
  (* --heartbeat implies slicing: the status file can only be refreshed
     when the machine yields between instructions *)
  let heartbeat =
    Option.map
      (fun s -> Obs.Heartbeat.create ~interval_s:s ~path:opts.status_path ())
      opts.heartbeat_s
  in
  let budget = Option.value opts.fuel ~default:Machine.default_fuel in
  let status () =
    Obs.status_json ~tasks_done:(Machine.instret m) ~tasks_total:budget
      ~elapsed_s:(Unix.gettimeofday () -. wall_before)
      ()
  in
  let outcome =
    Obs.Span.with_ Obs.default ("run:" ^ abi_name) @@ fun () ->
    if not (opts.slice <> None || opts.snapshot_to <> None || heartbeat <> None) then
      Machine.run ?fuel:opts.fuel m
    else begin
      let slice = Option.value opts.slice ~default:default_slice in
      let save () =
        Option.iter
          (fun path ->
            match Snapshot.save ~abi:abi_name ~path m with
            | Ok bytes ->
                Format.eprintf "[snapshot %s: %d bytes at %d retired instructions]@."
                  path bytes (Machine.instret m)
            | Error e -> snap_fail e)
          opts.snapshot_to
      in
      Option.iter (fun hb -> Obs.Heartbeat.force hb status) heartbeat;
      (* the machine stops only between instructions, so this loop is
         observably identical to one uninterrupted Machine.run ~fuel:budget *)
      let rec go left =
        match Machine.run ~fuel:(min slice left) ~yield:true m with
        | Machine.Yielded when left > slice ->
            save ();
            Option.iter (fun hb -> Obs.Heartbeat.beat hb status) heartbeat;
            go (left - slice)
        | Machine.Yielded ->
            (* whole budget spent: leave the last snapshot behind so a
               --resume with a fresh --fuel can continue the run, but
               not its spare, which only the next save would reuse *)
            save ();
            Option.iter Snapshot.remove_spare opts.snapshot_to;
            Machine.Fuel_exhausted
        | finished ->
            (* the run is over; a crash-recovery snapshot would now only
               invite resuming a finished program *)
            Option.iter Resumable.discard opts.snapshot_to;
            finished
      in
      go budget
    end
  in
  Option.iter (fun hb -> Obs.Heartbeat.force hb status) heartbeat;
  let wall_s = Unix.gettimeofday () -. wall_before in
  let minor_words = Gc.minor_words () -. words_before in
  print_string (Machine.output m);
  let st = Machine.stats m in
  Format.printf "[%s] %a  (%d cycles, %d instructions)@."
    (Cheri_compiler.Abi.name abi)
    Machine.pp_outcome outcome st.Machine.st_cycles st.Machine.st_instret;
  if opts.profile then begin
    (* host-side cost of this run: simulator throughput and GC pressure
       per retired instruction (includes telemetry overhead, since
       --profile runs with a live sink) *)
    let insns = float_of_int (max 1 st.Machine.st_instret) in
    Format.printf "host: %.3f s wall, %.0f insn/s, %.2f minor words/insn@." wall_s
      (insns /. wall_s) (minor_words /. insns);
    Format.printf "%a" Telemetry.pp_summary sink
  end;
  (match opts.trace with
  | None -> ()
  | Some dest ->
      let jsonl = Telemetry.jsonl_of_events sink in
      (match dest with None -> print_string jsonl | Some f -> write_file ~flag:"--trace" f jsonl));
  Option.iter
    (fun f ->
      write_file ~flag:"--stats-json" f (stats_json abi outcome st (Telemetry.snapshot sink)))
    opts.stats_json_to;
  Option.iter
    (fun f -> write_file ~flag:"--chrome-trace" f (Telemetry.chrome_trace sink))
    opts.chrome_trace_to;
  Option.iter
    (fun dest ->
      (* bridge the run's telemetry counters into the registry, then
         dump it: JSONL when the target looks like JSON, Prometheus
         text otherwise (and on stdout) *)
      Telemetry.obs_to_counters (Telemetry.snapshot sink);
      match dest with
      | None -> print_string (Obs.to_prometheus Obs.default)
      | Some path ->
          let data =
            if Filename.check_suffix path ".json" || Filename.check_suffix path ".jsonl"
            then Obs.to_jsonl Obs.default
            else Obs.to_prometheus Obs.default
          in
          write_file ~flag:"--metrics" path data)
    opts.metrics;
  match outcome with Machine.Exit 0L -> () | _ -> exit 1

let prog = "cheri-run"
let usage_tail = "[OPTIONS] file.c"

let () =
  let model = ref "cheriv3" in
  let all = ref false in
  let dump = ref false in
  let exec = ref false in
  let abi = ref Cheri_compiler.Abi.(Cheri Cheri_core.Cap_ops.V3) in
  let file = ref None in
  let profile = ref false in
  let trace = ref None in
  let stats_json_to = ref None in
  let chrome_trace_to = ref None in
  let fuel = ref None in
  let slice = ref None in
  let snapshot_to = ref None in
  let resume_from = ref None in
  let metrics = ref None in
  let heartbeat_s = ref None in
  let status_path = ref "status.json" in
  let flags =
    [
      Cli.string "-m" ~metavar:"MODEL" ~doc:"pointer model to interpret under (default cheriv3)"
        (fun m -> model := m);
      Cli.unit "-a" ~doc:"interpret under every model" (fun () -> all := true);
      Cli.unit "-S" ~doc:"dump softcore assembly instead of running" (fun () -> dump := true);
      Cli.unit "-x" ~doc:"compile and execute on the softcore" (fun () -> exec := true);
      Cli.string "-abi" ~metavar:"ABI" ~doc:"softcore ABI: mips|v2|v3 (with -S/-x)"
        (fun a ->
          match Cheri_compiler.Abi.of_key a with
          | Some x -> abi := x
          | None -> Cli.die "unknown ABI %s" a);
      Cli.int ~min:1 "--fuel" ~metavar:"N" ~doc:"step budget; exhaustion reports as a hang"
        (fun n -> fuel := Some n);
      Cli.unit "--profile" ~doc:"hot-PC profile + event counters (implies -x)"
        (fun () -> profile := true);
      Cli.opt_string "--trace" ~metavar:"FILE" ~doc:"JSONL event dump to stdout or FILE (implies -x)"
        (fun v -> trace := Some v);
      Cli.string "--stats-json" ~metavar:"FILE" ~doc:"machine stats + telemetry as JSON, \"-\" = stdout"
        (fun f -> stats_json_to := Some f);
      Cli.string "--chrome-trace" ~metavar:"FILE" ~doc:"Chrome trace_event JSON for Perfetto"
        (fun f -> chrome_trace_to := Some f);
      Cli.opt_string "--metrics" ~metavar:"FILE" ~doc:"dump the metrics registry to stdout or FILE"
        (fun v -> metrics := Some v);
      Cli.float "--heartbeat" ~metavar:"SECS" ~doc:"status-file cadence; implies slicing"
        (fun x -> heartbeat_s := Some x);
      Cli.string "--status" ~metavar:"FILE" ~doc:"heartbeat target (default status.json)"
        (fun f -> status_path := f);
      Cli.int ~min:1 "--slice" ~metavar:"N" ~doc:"run in fuel slices of N instructions"
        (fun n -> slice := Some n);
      Cli.string "--snapshot" ~metavar:"FILE" ~doc:"persist a snapshot at every slice boundary"
        (fun f -> snapshot_to := Some f);
      Cli.string "--resume" ~metavar:"FILE" ~doc:"restore FILE and continue (same source + ABI)"
        (fun f -> resume_from := Some f);
    ]
  in
  Cli.parse ~prog ~usage:usage_tail
    ~positional:(fun f -> file := Some f)
    flags
    (List.tl (Array.to_list Sys.argv));
  let opts =
    {
      profile = !profile;
      trace = !trace;
      stats_json_to = !stats_json_to;
      chrome_trace_to = !chrome_trace_to;
      fuel = !fuel;
      slice = !slice;
      snapshot_to = !snapshot_to;
      resume_from = !resume_from;
      metrics = !metrics;
      heartbeat_s = !heartbeat_s;
      status_path = !status_path;
    }
  in
  let usage () =
    prerr_string (Cli.help_text ~prog ~usage:usage_tail flags);
    exit 2
  in
  match !file with
  | None -> usage ()
  | Some path -> (
      let src = read_file path in
      match
        try Ok (Minic.Typecheck.compile src) with
        | Minic.Typecheck.Type_error m -> Error ("type error: " ^ m)
        | Minic.Parser.Parse_error (m, line) ->
            Error (Printf.sprintf "parse error at line %d: %s" line m)
        | Minic.Lexer.Lex_error (m, line) ->
            Error (Printf.sprintf "lex error at line %d: %s" line m)
      with
      | Error msg ->
          prerr_endline msg;
          exit 1
      | Ok prog ->
          if !dump then dump_assembly !abi src
          else if !exec || telemetry_wanted opts || resumable_wanted opts then
            execute_on_softcore opts !abi src
          else if !all then
            List.iter
              (fun m ->
                let module M = (val m : Cheri_models.Model.S) in
                let module I = Cheri_interp.Interp.Make (M) in
                report M.name (I.run_program ?max_steps:!fuel prog))
              Cheri_models.Registry.all
          else
            match Cheri_models.Registry.lookup !model with
            | None ->
                Format.eprintf "unknown model %s (known: %s)@." !model
                  (String.concat "|" Cheri_models.Registry.keys);
                exit 2
            | Some e ->
                let module M = (val e.Cheri_models.Registry.model) in
                let module I = Cheri_interp.Interp.Make (M) in
                report M.name (I.run_program ?max_steps:!fuel prog))
