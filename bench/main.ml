(* The benchmark harness: regenerates every table and figure from the
   paper's evaluation, runs the ablation studies listed in DESIGN.md,
   and runs Bechamel microbenchmarks of the substrate.

   Usage:
     bench/main.exe [--jobs N] ...       fan (workload x ABI) runs over N domains
     bench/main.exe              run everything (what bench_output.txt records)
     bench/main.exe t1|t3|t4     one table
     bench/main.exe f1|f2|f3|f4  one figure
     bench/main.exe ablations    the ablation studies
     bench/main.exe micro        Bechamel microbenchmarks only
     bench/main.exe json [FILE]  machine-readable per-workload results
                                 (default FILE: [bench_output_file] below)
     bench/main.exe perf [--quick] [FILE]
                                 softcore throughput sweep: retired
                                 insn/sec, wall time, and GC minor
                                 words per instruction for every
                                 (workload x ABI); --quick runs one
                                 repeat at test scales (rides along
                                 with dune runtest). Default FILE:
                                 [perf_output_file]. Measure with
                                 --profile release (the dev profile
                                 disables cross-module inlining).
     bench/main.exe inject [FILE]  full fault-injection campaign: the
                                 per-ABI detection matrix over every
                                 builtin workload and fault kind
                                 (default FILE: [inject_output_file])
     bench/main.exe snap [--quick] [FILE]
                                 snapshot image size and save/restore
                                 latency per workload, plus the
                                 preemptive-slicing throughput tax
                                 (default FILE: [snap_output_file];
                                 measure with --profile release)
     bench/main.exe serve [--quick] [FILE]
                                 multi-tenant service benchmark against a
                                 real cheri-serve supervisor: sustained
                                 jobs/s with p50/p99 latency, then the
                                 recovery time after a worker SIGKILL
                                 (default FILE: [serve_output_file];
                                 measure with --profile release)
     bench/main.exe serve --shards [N] [--quick] [FILE]
                                 sharded-fleet variant against a real
                                 router over N >= 3 supervisor shards:
                                 sustained jobs/s with p50/p99, recovery
                                 after a whole-shard SIGKILL, and drain /
                                 migration latency percentiles over
                                 repeated admin drain+rebalance cycles
                                 (default FILE: [serve_fleet_output_file])
     bench/main.exe smoke        fast telemetry-overhead assertions (runs
                                 under dune runtest)
     bench/main.exe compare [--threshold P] [--quick] OLD.json NEW.json
                                 the regression gate: diff two committed
                                 BENCH_PR*.json files of the same schema
                                 family and exit 1 on any metric worse
                                 than P% (default 10); --quick compares
                                 only the cell intersection
     bench/main.exe compare --self-test FILE
                                 prove the gate bites: FILE vs itself
                                 must pass, FILE vs a synthetically
                                 20%-worsened copy must fail

   Every figure/ablation/json cell is an independent (program x ABI)
   run with per-run machine state, so they fan out over the
   Cheri_exec.Exec domain pool; results are keyed by submission index,
   so any --jobs value produces identical tables. *)

module W = Cheri_workloads
module A = Cheri_analysis
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Telemetry = Cheri_telemetry.Telemetry
module Exec = Cheri_exec.Exec
module Inject = Cheri_inject.Inject
module Json = Cheri_util.Json
module Obs = Cheri_obs.Obs
module Bench_compare = Cheri_obs.Bench_compare

(* the default output of `bench/main.exe json`, bumped once per PR so
   the performance trajectory diffs file-to-file *)
let bench_output_file = "BENCH_PR6.json"

(* this PR's artifact: the fault-injection detection matrix *)
let inject_output_file = "BENCH_PR3.json"

(* set from --jobs; default: a few domains (see Pool.default_jobs) *)
let jobs = ref (Exec.Pool.default_jobs ())

let ppf = Format.std_formatter
let section name = Format.fprintf ppf "@.=== %s ===@." name

(* -- tables ----------------------------------------------------------------- *)

let table1 () =
  section "Table 1 (idiom survey over the synthetic corpus)";
  A.Corpus.print ppf (A.Corpus.run ())

let table3 () =
  section "Table 3 (idioms supported by each abstract-machine interpretation)";
  Cheri_interp.Table3.print ppf ();
  (* verify against the paper inline *)
  let rows = Cheri_interp.Table3.table () in
  let ok =
    List.for_all
      (fun (r : Cheri_interp.Table3.row) ->
        match List.assoc_opt r.model_name Cheri_interp.Table3.paper_expectation_strict_reading with
        | Some expected -> List.map snd r.cells = expected
        | None -> false)
      rows
  in
  Format.fprintf ppf "matches the paper: %s@." (if ok then "yes" else "NO");
  Format.fprintf ppf "@.supplementary idioms (\u{00a7}2 Last Word, \u{00a7}3.5 xor list):@.";
  Cheri_interp.Table3.print_supplementary ppf ()

let table4 () =
  section "Table 4 (lines changed to port each workload)";
  W.Port_audit.print ppf (W.Port_audit.table4 ())

(* -- figures ---------------------------------------------------------------- *)

let figure1 () =
  section "Figure 1 (Olden, 100 MHz cycle model)";
  W.Figures.print_figure1 ppf (W.Figures.figure1 ~jobs:!jobs ())

let figure2 () =
  section "Figure 2 (Dhrystone)";
  W.Figures.print_figure2 ppf (W.Figures.figure2 ~jobs:!jobs ())

let figure3 () =
  section "Figure 3 (tcpdump over the synthetic trace)";
  W.Figures.print_figure3 ppf (W.Figures.figure3 ~jobs:!jobs ())

let figure4 () =
  section "Figure 4 (zlib-style compression overhead by input size)";
  W.Figures.print_figure4 ppf (W.Figures.figure4 ~jobs:!jobs ())

(* -- ablations --------------------------------------------------------------- *)

(* 1. tag granularity: how much collateral capability invalidation do
   coarser tag granules cause? *)
let ablation_tag_granularity () =
  section "Ablation: tag granularity vs collateral capability invalidation";
  Format.fprintf ppf "%-10s%24s@." "GRANULE" "caps surviving neighbour writes";
  List.iter
    (fun granule ->
      let mem = Cheri_tagmem.Tagmem.create ~granule ~size_bytes:(1 lsl 16) () in
      let n = 256 in
      (* a capability every 64 bytes, then a 1-byte write 40 bytes after
         each capability (inside the granule only if granule > 40) *)
      for i = 0 to n - 1 do
        let addr = Int64.of_int (i * 64) in
        Cheri_tagmem.Tagmem.store_cap_i64 mem ~addr
          (Cheri_core.Capability.make ~base:addr ~length:8L ~perms:Cheri_core.Perms.all)
      done;
      for i = 0 to n - 1 do
        Cheri_tagmem.Tagmem.store_byte_i64 mem (Int64.of_int ((i * 64) + 40)) 0xff
      done;
      Format.fprintf ppf "%-10d%16d / %d@." granule (Cheri_tagmem.Tagmem.count_tags mem) n)
    [ 32; 64; 128; 256 ]

(* 2. cache geometry: the Olden capability overhead as the L2 grows.
   TreeAdd's tree is ~100 KB of 24-byte nodes under MIPS but ~400 KB of
   96-byte nodes under capabilities, so mid-sized L2s hold one working
   set but not the other. *)
let ablation_cache_geometry () =
  section "Ablation: TreeAdd capability overhead vs L2 size";
  Format.fprintf ppf "%-10s%12s%12s%12s@." "L2" "MIPS(s)" "CHERIv3(s)" "overhead";
  let k = List.find (fun k -> k.W.Olden.kname = "TreeAdd") W.Olden.kernels in
  let src = k.W.Olden.source { W.Olden.scale = 2 } in
  let v3abi = Abi.Cheri Cheri_core.Cap_ops.V3 in
  let l2_sizes = [ 32; 64; 128; 256; 512 ] in
  let tasks = List.concat_map (fun l2 -> [ (l2, Abi.Mips); (l2, v3abi) ]) l2_sizes in
  let cells =
    Exec.Pool.map ~jobs:!jobs
      (fun (l2_kb, abi) ->
        let timing = { Cheri_isa.Cache.Timing.paper_config with l2_size = l2_kb * 1024 } in
        let config = { (Cheri_compiler.Codegen.machine_config abi) with Machine.timing } in
        W.Runner.run ~config abi src)
      tasks
  in
  let rec rows l2s cells =
    match (l2s, cells) with
    | l2_kb :: l2_rest, mips_cell :: v3_cell :: cell_rest ->
        let mips = Exec.Pool.get mips_cell and v3 = Exec.Pool.get v3_cell in
        Format.fprintf ppf "%-10s%12.4f%12.4f%11.2fx@."
          (string_of_int l2_kb ^ "K")
          (W.Runner.seconds mips) (W.Runner.seconds v3)
          (float_of_int v3.W.Runner.cycles /. float_of_int mips.W.Runner.cycles);
        rows l2_rest cell_rest
    | _ -> ()
  in
  rows l2_sizes cells

(* 3. offset vs base-mutation: forward pointer *arithmetic* costs the
   same on both revisions (one register-indexed capability
   instruction); pointer *derivation* — address-of-local, null
   reconstruction from integers — is where v2's lack of offsets shows:
   CIncBase from the DDC plus an explicit null branch, versus one
   CIncOffset immediate or CFromPtr. *)
let ablation_v2_v3_arith () =
  section "Ablation: CHERIv2 base-mutation vs CHERIv3 offset derivation";
  let src =
    {|
void set(long *p, long v) { *p = v; }
int main(void) {
  long x = 0;
  long acc = 0;
  for (long i = 0; i < 40000; i++) {
    set(&x, i);                 /* derive a stack pointer every call */
    long *q = (long *)(i % 2 == 0 ? (long)&x : 0);  /* int->ptr with null case */
    if (q) acc = acc + *q;
  }
  print_int(acc & 1023);
  print_char('\n');
  return 0;
}
|}
  in
  List.iter2
    (fun abi cell ->
      let m = Exec.Pool.get cell in
      Format.fprintf ppf "%-10s instret=%9d cycles=%9d@." (Abi.name abi) m.W.Runner.instret
        m.W.Runner.cycles)
    Abi.all
    (Exec.Pool.map ~jobs:!jobs (fun abi -> W.Runner.run abi src) Abi.all);
  Format.fprintf ppf
    "(CHERIv2 derives pointers by CIncBase from the DDC and needs an explicit@.";
  Format.fprintf ppf
    " null-check branch on int-to-pointer casts; CHERIv3 does each in one@.";
  Format.fprintf ppf " instruction. Forward pointer arithmetic costs the same on both.)@."

(* 4. fail-open vs fail-closed: run a suite of buggy programs under MPX
   (fail-open) and HardBound (fail-closed) and count which bugs trap *)
let ablation_fail_modes () =
  section "Ablation: fail-open (MPX) vs fail-closed (HardBound) on buggy code";
  let buggy =
    [
      ( "stale-int-roundtrip",
        {|
int main(void) {
  long *p = (long *)malloc(8);
  long a = (long)p;
  a = a + 32;                  /* now points at a different object */
  long *q = (long *)(a - 32 + 64);
  *q = 1;                      /* overflowing write via laundered int */
  return 0;
}
|} );
      ( "overflow-via-int",
        {|
int main(void) {
  char *p = (char *)malloc(16);
  long a = (long)p;
  char *q = (char *)(a + 20); /* out of bounds after laundering */
  *q = 'x';
  return 0;
}
|} );
      ( "direct-overflow",
        {|
int main(void) {
  char *p = (char *)malloc(16);
  p[20] = 'x';
  return 0;
}
|} );
    ]
  in
  let caught model src =
    match Cheri_interp.Interp.run_with model src with
    | Cheri_interp.Interp.Fault _ -> true
    | _ -> false
  in
  Format.fprintf ppf "%-24s%12s%12s@." "BUG" "MPX" "HardBound";
  List.iter
    (fun (name, src) ->
      let show m = if caught m src then "trapped" else "missed" in
      Format.fprintf ppf "%-24s%12s%12s@." name
        (show Cheri_models.Registry.mpx)
        (show Cheri_models.Registry.hardbound))
    buggy

let ablations () =
  ablation_tag_granularity ();
  ablation_cache_geometry ();
  ablation_v2_v3_arith ();
  ablation_fail_modes ()

(* -- machine-readable results (json subcommand) ------------------------------- *)

(* One measurement per (workload, ABI), with telemetry attached, so
   future PRs can diff the performance trajectory file-to-file. *)
let json_workloads () =
  let olden =
    List.map
      (fun (k : W.Olden.kernel) ->
        ("Olden/" ^ k.W.Olden.kname, k.W.Olden.source W.Olden.default, None))
      W.Olden.kernels
  in
  let rest =
    [
      ("Dhrystone", W.Dhrystone.source W.Dhrystone.default, None);
      ( "tcpdump",
        W.Tcpdump_sim.source W.Tcpdump_sim.default,
        Some (W.Tcpdump_sim.source_v2 W.Tcpdump_sim.default) );
      ("zlib", W.Zlib_like.source { W.Zlib_like.input_size = 32768; boundary_copy = false }, None);
    ]
  in
  olden @ rest

let measurement_json workload (m : W.Runner.measurement) =
  let t = Option.get m.W.Runner.telemetry in
  Printf.sprintf
    "    {\"workload\":\"%s\",\"abi\":\"%s\",\"cycles\":%d,\"instret\":%d,\"l1_misses\":%d,\"l2_misses\":%d,\"cap_mem_ops\":%d,\"allocs\":%d,\"frees\":%d,\"alloc_bytes\":%Ld,\"collateral_tag_clears\":%d,\"syscalls\":%d}"
    (Json.escape workload)
    (Json.escape (Abi.name m.W.Runner.abi))
    m.W.Runner.cycles m.W.Runner.instret m.W.Runner.l1_misses m.W.Runner.l2_misses
    m.W.Runner.cap_mem_ops t.Telemetry.allocs t.Telemetry.frees t.Telemetry.alloc_bytes
    t.Telemetry.collateral_tag_clears t.Telemetry.syscalls

(* The whole sweep — every (workload x ABI) pair — fanned over the
   pool in one flat task list. Architectural results are bit-identical
   whatever the domain count (per-run machine state, results keyed by
   submission index); only the reported sweep timing varies. *)
let bench_json path =
  let tasks =
    List.concat_map
      (fun (name, src, v2_source) ->
        List.map
          (fun abi ->
            let src =
              match (abi, v2_source) with
              | Abi.Cheri Cheri_core.Cap_ops.V2, Some s -> s
              | _ -> src
            in
            (name, abi, src))
          Abi.all)
      (json_workloads ())
  in
  Format.fprintf ppf "measuring %d (workload x ABI) runs on %d domain(s)...@."
    (List.length tasks) !jobs;
  if !jobs > Domain.recommended_domain_count () then
    Format.fprintf ppf
      "(note: %d jobs on %d recommended domain(s) — oversubscription stalls the OCaml\n\
      \ stop-the-world collector, so wall-clock will not improve on this machine)@."
      !jobs
      (Domain.recommended_domain_count ());
  let cells, wall_s =
    Exec.wall (fun () ->
        Exec.Pool.map ~jobs:!jobs
          (fun (_, abi, src) ->
            W.Runner.run ~sink:(Telemetry.Sink.create ()) abi src)
          tasks)
  in
  let rows =
    List.map2 (fun (name, _, _) cell -> measurement_json name (Exec.Pool.get cell)) tasks cells
  in
  (* the differential check the sequential path did per workload:
     outputs must agree across the three ABIs of each workload *)
  List.iter
    (fun row ->
      match List.map Exec.Pool.get row with
      | ms -> (
          match W.Runner.check_agreement ms with
          | Some e -> W.Runner.fail e
          | None -> ()))
    (let rec chunk3 = function
       | a :: b :: c :: rest -> [ a; b; c ] :: chunk3 rest
       | [] -> []
       | _ -> assert false
     in
     chunk3 cells);
  let serial_s = Exec.Pool.serial_seconds cells in
  let speedup = if wall_s > 0. then serial_s /. wall_s else 1. in
  let body =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"cheri_c.bench/v2\",\n\
      \  \"clock_hz\": 100000000,\n\
      \  \"sweep\": {\"jobs\":%d,\"tasks\":%d,\"wall_s\":%.6f,\"serial_s\":%.6f,\"speedup\":%.2f},\n\
      \  \"results\": [\n%s\n  ]\n\
       }\n"
      !jobs (List.length tasks) wall_s serial_s speedup
      (String.concat ",\n" rows)
  in
  let oc = open_out path in
  output_string oc body;
  close_out oc;
  Format.fprintf ppf "sweep wall %.2fs, serial %.2fs, speedup %.2fx@." wall_s serial_s speedup;
  Format.fprintf ppf "wrote %s (%d measurements)@." path (List.length rows)

(* -- hot-path throughput benchmark (perf subcommand) --------------------------- *)

(* This PR's artifact: softcore throughput through the pre-decoded
   dispatch table, plus the decode-stage cost itself. *)
let perf_output_file = "BENCH_PR7.json"

(* Pre-PR baseline: the release-profile Dhrystone CHERIv3 figure from
   the previous perf artifact (BENCH_PR4.json), measured on the same
   machine. The report carries both numbers so the speedup is
   self-describing. *)
let baseline_insn_per_s = 28_825_425.
let baseline_minor_words_per_insn = 6.40

type perf_cell = {
  p_workload : string;
  p_abi : Abi.t;
  p_cycles : int;
  p_instret : int;
  p_insn_per_s : float;
  p_words_per_insn : float;
  p_digest : string;  (* MD5 of program output, for the agreement gate *)
  p_decode_ms_per_kinsn : float;  (* Decoded.compile cost per 1000 instructions *)
}

(* One (workload x ABI) cell: compile once, run [runs] times on fresh
   machines, keep the best wall-clock. Cycle counts and output are
   asserted identical across repeats — the simulator is deterministic,
   so any variation is a harness bug. *)
let perf_cell ~runs name abi src =
  let linked = Cheri_compiler.Codegen.compile_source abi src in
  (* decode phase: what the pre-execution Decoded.compile pass costs,
     normalized per thousand instructions of code *)
  let code = linked.Cheri_asm.Asm.code in
  let decode_ms_per_kinsn =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (Cheri_isa.Decoded.compile code));
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best *. 1000. /. (float_of_int (Array.length code) /. 1000.)
  in
  let fresh () = Cheri_compiler.Codegen.machine_for abi linked in
  ignore (Machine.run (fresh ()));
  (* warm-up *)
  (* compile + earlier cells leave major-heap garbage whose GC slices
     would otherwise land inside the timed region *)
  Gc.compact ();
  let best_dt = ref infinity and words = ref 0. in
  let cycles = ref 0 and instret = ref 0 and digest = ref "" in
  for i = 1 to runs do
    let m = fresh () in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    (match Machine.run m with
    | Machine.Exit 0L -> ()
    | o ->
        raise
          (W.Runner.Run_failed
             (Format.asprintf "perf %s/%s: %a" name (Abi.name abi) Machine.pp_outcome o)));
    let dt = Unix.gettimeofday () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    let st = Machine.stats m in
    let d = Digest.to_hex (Digest.string (Machine.output m)) in
    if i > 1 && (st.Machine.st_cycles <> !cycles || d <> !digest) then
      raise (W.Runner.Run_failed (Printf.sprintf "perf %s/%s: nondeterministic run" name (Abi.name abi)));
    cycles := st.Machine.st_cycles;
    instret := st.Machine.st_instret;
    digest := d;
    if dt < !best_dt then begin
      best_dt := dt;
      words := dw /. float_of_int st.Machine.st_instret
    end
  done;
  {
    p_workload = name;
    p_abi = abi;
    p_cycles = !cycles;
    p_instret = !instret;
    p_insn_per_s = float_of_int !instret /. !best_dt;
    p_words_per_insn = !words;
    p_digest = !digest;
    p_decode_ms_per_kinsn = decode_ms_per_kinsn;
  }

let perf_workloads ~quick =
  if not quick then json_workloads ()
  else
    (* test scales: the runtest smoke must finish in seconds *)
    List.map
      (fun (k : W.Olden.kernel) ->
        ("Olden/" ^ k.W.Olden.kname, k.W.Olden.source { W.Olden.scale = 1 }, None))
      W.Olden.kernels
    @ [
        ("Dhrystone", W.Dhrystone.source { W.Dhrystone.iterations = 500 }, None);
        ( "tcpdump",
          W.Tcpdump_sim.source { W.Tcpdump_sim.packets = 200; passes = 1 },
          Some (W.Tcpdump_sim.source_v2 { W.Tcpdump_sim.packets = 200; passes = 1 }) );
        ("zlib", W.Zlib_like.source { W.Zlib_like.input_size = 4096; boundary_copy = false }, None);
      ]

let perf_cell_json c =
  Printf.sprintf
    "    {\"workload\":\"%s\",\"abi\":\"%s\",\"cycles\":%d,\"instret\":%d,\"insn_per_s\":%.0f,\"minor_words_per_insn\":%.3f,\"decode_ms_per_kinsn\":%.3f,\"output_md5\":\"%s\"}"
    (Json.escape c.p_workload)
    (Json.escape (Abi.name c.p_abi))
    c.p_cycles c.p_instret c.p_insn_per_s c.p_words_per_insn c.p_decode_ms_per_kinsn c.p_digest

let bench_perf ~quick path =
  section
    (if quick then "Softcore throughput (perf --quick, test scales)"
     else "Softcore throughput (perf, default scales)");
  if Build_profile.profile <> "release" then
    Format.fprintf ppf
      "WARNING: built with the %s profile, which passes -opaque and disables@.\
      \ cross-module inlining — throughput and allocation figures are pessimistic.@.\
      \ Re-run with `dune exec --profile release bench/main.exe -- perf` for the@.\
      \ numbers a release build gets.@."
      Build_profile.profile;
  (* wall-clock on a shared host is noisy; the best of 7 repeats is
     stable to a few percent where the best of 3 swung by 20% *)
  let runs = if quick then 1 else 7 in
  let cells =
    List.concat_map
      (fun (name, src, v2_source) ->
        List.map
          (fun abi ->
            let src =
              match (abi, v2_source) with
              | Abi.Cheri Cheri_core.Cap_ops.V2, Some s -> s
              | _ -> src
            in
            perf_cell ~runs name abi src)
          Abi.all)
      (perf_workloads ~quick)
  in
  (* agreement gate: the ABIs of one workload must produce identical
     output — a throughput optimisation that changes observable
     behaviour is a miscompilation, not a speedup *)
  let rec gate = function
    | a :: b :: c :: rest ->
        if not (a.p_digest = b.p_digest && b.p_digest = c.p_digest) then
          raise
            (W.Runner.Run_failed
               (Printf.sprintf "perf %s: ABI outputs diverge" a.p_workload));
        gate rest
    | [] -> ()
    | _ -> assert false
  in
  gate cells;
  Format.fprintf ppf "%-18s%-10s%12s%12s%14s%12s%14s@." "WORKLOAD" "ABI" "cycles" "instret"
    "insn/s" "words/insn" "decode ms/ki";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-18s%-10s%12d%12d%14.0f%12.2f%14.3f@." c.p_workload (Abi.name c.p_abi)
        c.p_cycles c.p_instret c.p_insn_per_s c.p_words_per_insn c.p_decode_ms_per_kinsn)
    cells;
  let dhry_v3 =
    List.find
      (fun c -> c.p_workload = "Dhrystone" && c.p_abi = Abi.Cheri Cheri_core.Cap_ops.V3)
      cells
  in
  let speedup = dhry_v3.p_insn_per_s /. baseline_insn_per_s in
  Format.fprintf ppf
    "Dhrystone CHERIv3: %.0f insn/s, %.2f minor words/insn (pre-PR baseline %.0f insn/s, %.2f words/insn; %.2fx)@."
    dhry_v3.p_insn_per_s dhry_v3.p_words_per_insn baseline_insn_per_s
    baseline_minor_words_per_insn speedup;
  if quick then
    Format.fprintf ppf "(quick mode: 1 run per cell at test scales — smoke only,@.\
                       \ speedup vs the default-scale baseline is indicative)@.";
  let body =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"cheri_c.bench-perf/v1\",\n\
      \  \"clock_hz\": 100000000,\n\
      \  \"profile\": \"%s\",\n\
      \  \"quick\": %b,\n\
      \  \"runs_per_cell\": %d,\n\
      \  \"baseline\": {\"workload\":\"Dhrystone\",\"abi\":\"CHERIv3\",\"insn_per_s\":%.0f,\"minor_words_per_insn\":%.2f},\n\
      \  \"dhrystone_v3\": {\"insn_per_s\":%.0f,\"minor_words_per_insn\":%.3f,\"speedup_vs_baseline\":%.2f},\n\
      \  \"results\": [\n%s\n  ]\n\
       }\n"
      (Json.escape Build_profile.profile)
      quick runs baseline_insn_per_s baseline_minor_words_per_insn dhry_v3.p_insn_per_s
      dhry_v3.p_words_per_insn speedup
      (String.concat ",\n" (List.map perf_cell_json cells))
  in
  let oc = open_out path in
  output_string oc body;
  close_out oc;
  Format.fprintf ppf "wrote %s (%d measurements)@." path (List.length cells)

(* -- fault-injection detection matrix (inject subcommand) --------------------- *)

(* The full campaign behind BENCH_PR3.json: every builtin workload x
   every ABI x every fault kind x 8 seeds. Like the json sweep, the
   report is bit-identical whatever --jobs is (fault parameters derive
   only from the task key), so only wall-clock varies. *)
let bench_inject path =
  section "Fault-injection detection matrix (full campaign)";
  let c = Inject.default_campaign ~seeds:8 () in
  let n_tasks =
    List.length c.Inject.c_workloads * 3 * List.length c.Inject.c_kinds * c.Inject.c_seeds
  in
  Format.fprintf ppf "running %d injection tasks on %d domain(s)...@." n_tasks !jobs;
  let report = Inject.run ~jobs:!jobs c in
  Inject.pp_report ppf report;
  let oc = open_out path in
  output_string oc (Inject.report_json report);
  close_out oc;
  Format.fprintf ppf "wrote %s (%d records)@." path (List.length report.Inject.r_records);
  if report.Inject.r_errors <> [] then exit 1

(* -- snapshot save/restore benchmark (snap subcommand) ------------------------- *)

(* This PR's artifact: snapshot image size and save/restore latency for
   every workload, plus the slicing throughput tax. Each cell preempts
   a run at half its retired-instruction count, persists it, restores
   the image into a fresh machine, and finishes both the original and
   the copy — asserting all three runs (uninterrupted, continued,
   restored) agree on cycles, instret and output before any number is
   reported. *)
let snap_output_file = "BENCH_PR5.json"

module Snapshot = Cheri_snapshot.Snapshot

type snap_cell = {
  n_workload : string;
  n_bytes : int;
  n_instret_at : int;  (* retired instructions at the snapshot point *)
  n_instret : int;     (* retired instructions of the whole program *)
  n_save_ms : float;
  n_restore_ms : float;
}

let warn_profile ~what cmd =
  if Build_profile.profile <> "release" then
    Format.fprintf ppf
      "WARNING: built with the %s profile — %s@.\
      \ are pessimistic. Re-run with `dune exec --profile release@.\
      \ bench/main.exe -- %s` for the numbers a release build gets.@."
      Build_profile.profile what cmd

let best_of n f = List.fold_left min infinity (List.init n (fun _ -> f ()))

let snap_cell ~runs name abi src =
  let fail fmt = Format.kasprintf (fun s -> raise (W.Runner.Run_failed s)) fmt in
  let linked = Cheri_compiler.Codegen.compile_source abi src in
  let fresh () = Cheri_compiler.Codegen.machine_for abi linked in
  let finish what m =
    match Machine.run m with
    | Machine.Exit 0L -> ()
    | o -> fail "snap %s (%s): %a" name what Machine.pp_outcome o
  in
  (* reference observables from an uninterrupted run *)
  let r = fresh () in
  finish "reference" r;
  let ref_cycles = Machine.cycles r and ref_instret = Machine.instret r in
  let ref_output = Machine.output r in
  (* preempt a second machine at the midpoint *)
  let at = ref_instret / 2 in
  let m = fresh () in
  (match Machine.run ~fuel:at ~yield:true m with
  | Machine.Yielded -> ()
  | o -> fail "snap %s: finished (%a) before the midpoint" name Machine.pp_outcome o);
  let path = Filename.temp_file "cheri-snap-bench" ".snap" in
  let abi_name = Abi.name abi in
  let bytes = ref 0 in
  let save_ms =
    best_of runs (fun () ->
        let t0 = Unix.gettimeofday () in
        (match Snapshot.save ~abi:abi_name ~path m with
        | Ok n -> bytes := n
        | Error e -> fail "snap %s: save: %s" name (Snapshot.error_to_string e));
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let restored = ref None in
  let restore_ms =
    best_of runs (fun () ->
        let m2 = fresh () in
        let t0 = Unix.gettimeofday () in
        (match Snapshot.load path with
        | Error e -> fail "snap %s: load: %s" name (Snapshot.error_to_string e)
        | Ok img -> (
            match Snapshot.restore m2 ~abi:abi_name img with
            | Error e -> fail "snap %s: restore: %s" name (Snapshot.error_to_string e)
            | Ok () -> ()));
        let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
        restored := Some m2;
        dt)
  in
  Sys.remove path;
  (* equivalence gate: both the preempted original and the restored
     copy must finish with the reference's observables *)
  finish "continued" m;
  let m2 = Option.get !restored in
  finish "restored" m2;
  List.iter
    (fun (what, mm) ->
      if
        Machine.cycles mm <> ref_cycles
        || Machine.instret mm <> ref_instret
        || Machine.output mm <> ref_output
      then fail "snap %s: %s run diverged from the uninterrupted run" name what)
    [ ("continued", m); ("restored", m2) ];
  {
    n_workload = name;
    n_bytes = !bytes;
    n_instret_at = at;
    n_instret = ref_instret;
    n_save_ms = save_ms;
    n_restore_ms = restore_ms;
  }

(* the slicing tax: the same program run flat-out vs in preemptive
   fuel slices; both must retire the same instruction count *)
let snap_throughput ~runs ~slice abi src =
  let fail fmt = Format.kasprintf (fun s -> raise (W.Runner.Run_failed s)) fmt in
  let linked = Cheri_compiler.Codegen.compile_source abi src in
  let fresh () = Cheri_compiler.Codegen.machine_for abi linked in
  ignore (Machine.run (fresh ()));
  (* warm-up *)
  let time_run sliced =
    let m = fresh () in
    let t0 = Unix.gettimeofday () in
    (if not sliced then
       match Machine.run m with
       | Machine.Exit 0L -> ()
       | o -> fail "snap throughput: %a" Machine.pp_outcome o
     else
       let rec go () =
         match Machine.run ~fuel:slice ~yield:true m with
         | Machine.Yielded -> go ()
         | Machine.Exit 0L -> ()
         | o -> fail "snap throughput (sliced): %a" Machine.pp_outcome o
       in
       go ());
    float_of_int (Machine.instret m) /. (Unix.gettimeofday () -. t0)
  in
  let best f = List.fold_left max 0. (List.init runs (fun _ -> f ())) in
  (best (fun () -> time_run false), best (fun () -> time_run true))

let snap_cell_json c =
  Printf.sprintf
    "    {\"workload\":\"%s\",\"bytes\":%d,\"instret_at_snapshot\":%d,\"instret\":%d,\"save_ms\":%.3f,\"restore_ms\":%.3f}"
    (Json.escape c.n_workload)
    c.n_bytes c.n_instret_at c.n_instret c.n_save_ms c.n_restore_ms

let bench_snap ~quick path =
  section
    (if quick then "Snapshot save/restore (snap --quick, test scales)"
     else "Snapshot save/restore (snap, default scales)");
  warn_profile ~what:"save/restore latency and the slicing tax" "snap";
  let abi = Abi.Cheri Cheri_core.Cap_ops.V3 in
  (* wall-clock on a shared host is noisy; the best of 7 repeats is
     stable to a few percent where the best of 3 swung by 20% *)
  let runs = if quick then 1 else 7 in
  let cells =
    List.map (fun (name, src, _) -> snap_cell ~runs name abi src) (perf_workloads ~quick)
  in
  Format.fprintf ppf "%-18s%12s%16s%12s%12s@." "WORKLOAD" "bytes" "instret@snap"
    "save ms" "restore ms";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-18s%12d%16d%12.3f%12.3f@." c.n_workload c.n_bytes c.n_instret_at
        c.n_save_ms c.n_restore_ms)
    cells;
  (* slicing tax on the longest-running workload *)
  let slice = 1_000_000 in
  let dhry =
    if quick then W.Dhrystone.source { W.Dhrystone.iterations = 500 }
    else W.Dhrystone.source W.Dhrystone.default
  in
  let plain, sliced = snap_throughput ~runs ~slice abi dhry in
  let ratio = sliced /. plain in
  Format.fprintf ppf
    "Dhrystone CHERIv3: %.0f insn/s flat, %.0f insn/s in %d-instruction slices (%.3fx)@."
    plain sliced slice ratio;
  let body =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"cheri_c.snap-bench/v1\",\n\
      \  \"profile\": \"%s\",\n\
      \  \"quick\": %b,\n\
      \  \"runs_per_cell\": %d,\n\
      \  \"abi\": \"%s\",\n\
      \  \"slicing\": {\"workload\":\"Dhrystone\",\"slice\":%d,\"insn_per_s_flat\":%.0f,\"insn_per_s_sliced\":%.0f,\"ratio\":%.4f},\n\
      \  \"results\": [\n%s\n  ]\n\
       }\n"
      (Json.escape Build_profile.profile)
      quick runs
      (Json.escape (Abi.name abi))
      slice plain sliced ratio
      (String.concat ",\n" (List.map snap_cell_json cells))
  in
  let oc = open_out path in
  output_string oc body;
  close_out oc;
  Format.fprintf ppf "wrote %s (%d measurements)@." path (List.length cells)

(* -- multi-tenant service benchmarks (serve, serve --shards) -------------------- *)

module Service = Cheri_service.Service
module Router = Cheri_service.Router
module Chaos = Cheri_service.Chaos

let serve_output_file = "BENCH_PR8.json"
let serve_fleet_output_file = "BENCH_PR10.json"

(* a client session against a spawned supervisor or router *)
type serve_session = {
  request : Json.t -> Json.t;
  submit : seed:int -> int -> int;
  poll : int -> Json.t;
  stats : unit -> Json.t;
}

let jnum n = Json.Num (string_of_int n)

(* a measurement rounded for the report: throughput to 3 decimals,
   milliseconds to 1, the precision the report has always carried *)
let jround digits x =
  let k = 10. ** float_of_int digits in
  Json.Num (Json.number (Float.round (x *. k) /. k))

(* Run [body] against the service process [pid] listening on [socket],
   then ask it to shut down and wait for it to exit; the process and
   [dir] are torn down whatever happens. *)
let with_serve_session ~label ~pid ~dir ~socket ~fuel ~slice body =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Chaos.rm_rf dir)
    (fun () ->
      if not (Chaos.Client.wait_socket socket ~timeout_s:15.0) then
        failwith (label ^ ": socket never came up");
      let cl = Chaos.Client.connect socket in
      let request j =
        match Chaos.Client.request cl j with
        | Ok r -> r
        | Error e -> failwith (label ^ ": request failed: " ^ e)
      in
      let op name extra = request (Json.Obj (("op", Json.Str name) :: extra)) in
      let submit ~seed i =
        let r =
          op "submit"
            [
              ("source", Json.Str (Chaos.tenant_source ~seed ~index:i));
              ("abi", Json.Str [| "mips"; "cheriv2"; "cheriv3" |].(i mod 3));
              ("fuel", jnum fuel);
              ("slice", jnum slice);
            ]
        in
        match Json.mem_int "tenant" r with
        | Some tid -> tid
        | None -> failwith (label ^ ": submit rejected: " ^ Json.encode r)
      in
      let poll tid = op "poll" [ ("tenant", jnum tid) ] in
      let v = body { request; submit; poll; stats = (fun () -> op "stats" []) } in
      ignore (op "shutdown" []);
      Chaos.Client.close cl;
      (* a router stops its shards on the way out: SIGKILLing it first
         would orphan them *)
      ignore (Cheri_service.Supervisor.wait_exit pid ~timeout_s:15.0);
      v)

(* The two phases both service benchmarks share. Phase 1 measures
   sustained throughput and client-observed latency. Phase 2 SIGKILLs
   the process [victim] picks from a stats reply (the busiest worker,
   or the busiest whole shard) mid-batch and times recovery as kill ->
   first completion whose result carries a nonzero [lineage] counter
   ("restarts" for a requeue, "migrations" for a cross-shard move).
   Returns the sustained and recovery report cells. *)
let serve_phases ss ~label ~over ~tenants ~recovery_batch ~victim ~lineage =
  let now = Unix.gettimeofday in
  let fail_state p = failwith (label ^ ": tenant failed: " ^ Json.encode p) in
  let t0 = now () in
  let batch1 = Array.init tenants (fun i -> (ss.submit ~seed:1 i, ref None)) in
  let deadline = now () +. 300.0 in
  while Array.exists (fun (_, r) -> !r = None) batch1 do
    if now () > deadline then failwith (label ^ ": sustained phase timed out");
    Array.iter
      (fun (tid, r) ->
        if !r = None then
          let p = ss.poll tid in
          match Json.mem_str "state" p with
          | Some "done" -> r := Some (now () -. t0)
          | Some "failed" -> fail_state p
          | _ -> ())
      batch1;
    ignore (Unix.select [] [] [] 0.005)
  done;
  let wall = now () -. t0 in
  let lats =
    Array.to_list batch1 |> List.filter_map (fun (_, r) -> Option.map (fun x -> x *. 1000.) !r)
  in
  let jobs_per_s = float_of_int tenants /. wall in
  let p50_ms = Obs.quantile_of lats 0.5 in
  let p99_ms = Obs.quantile_of lats 0.99 in
  Format.fprintf ppf "sustained: %d tenants over %s in %.2fs — %.2f jobs/s, p50 %.0f ms, p99 %.0f ms@."
    tenants over wall jobs_per_s p50_ms p99_ms;
  let batch2 = Array.init recovery_batch (fun i -> (ss.submit ~seed:77 (1000 + i), ref None)) in
  let done2 () = Array.fold_left (fun a (_, r) -> if !r = None then a else a + 1) 0 batch2 in
  let killed = ref false in
  let t_kill = ref 0.0 in
  let recovery_ms = ref None in
  let deadline = now () +. 300.0 in
  while Array.exists (fun (_, r) -> !r = None) batch2 do
    if now () > deadline then failwith (label ^ ": recovery phase timed out");
    (if (not !killed) && done2 () >= recovery_batch / 4 then
       match victim (ss.stats ()) with
       | Some pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           t_kill := now ();
           killed := true
       | None -> ());
    Array.iter
      (fun (tid, r) ->
        if !r = None then
          let p = ss.poll tid in
          match Json.mem_str "state" p with
          | Some "done" ->
              r := Some (now ());
              let n =
                Option.value ~default:0 (Option.bind (Json.member "result" p) (Json.mem_int lineage))
              in
              if !killed && !recovery_ms = None && n >= 1 then
                recovery_ms := Some ((now () -. !t_kill) *. 1000.)
          | Some "failed" -> fail_state p
          | _ -> ())
      batch2;
    ignore (Unix.select [] [] [] 0.005)
  done;
  let recovery_ms =
    match !recovery_ms with
    | Some r -> r
    | None ->
        (* the victim held no tenant that outlived it; fall back to
           kill -> batch drained *)
        if !killed then (now () -. !t_kill) *. 1000. else 0.0
  in
  Format.fprintf ppf "recovery: first tenant with %s >= 1 completed %.0f ms after SIGKILL@." lineage
    recovery_ms;
  [
    Json.Obj
      [
        ("workload", Json.Str "sustained");
        ("tenants", jnum tenants);
        ("jobs_per_s", jround 3 jobs_per_s);
        ("p50_ms", jround 1 p50_ms);
        ("p99_ms", jround 1 p99_ms);
      ];
    Json.Obj
      [
        ("workload", Json.Str "recovery");
        ("tenants", jnum recovery_batch);
        ("recovery_ms", jround 1 recovery_ms);
      ];
  ]

let write_serve_report path ~quick ~shape results =
  let doc =
    Json.Obj
      ([
         ("schema", Json.Str "cheri_c.serve-bench/v1");
         ("profile", Json.Str Build_profile.profile);
         ("quick", Json.Bool quick);
       ]
      @ shape
      @ [ ("results", Json.Arr results) ])
  in
  let oc = open_out path in
  output_string oc (Json.encode doc ^ "\n");
  close_out oc;
  Format.fprintf ppf "wrote %s (%d measurements)@." path (List.length results)

let bench_serve ~quick path =
  section
    (if quick then "Multi-tenant service (serve --quick, test scales)"
     else "Multi-tenant service (serve, default scales)");
  warn_profile ~what:"sustained throughput and latency" "serve";
  let dir = Printf.sprintf "/tmp/cheri-serve-bench-%d" (Unix.getpid ()) in
  Chaos.rm_rf dir;
  let tenants = if quick then 8 else 24 in
  let recovery_batch = if quick then 6 else 12 in
  let cfg =
    {
      (Service.default_config ~dir) with
      Service.workers = 2;
      worker_jobs = 1;
      capacity = (tenants + recovery_batch) * 2;
      slice = 50_000;
      fuel = 50_000_000;
      heartbeat_s = 0.25;
      tick_s = 0.02;
      seed = 1;
    }
  in
  let results =
    with_serve_session ~label:"serve bench" ~pid:(Chaos.Client.spawn_server cfg) ~dir
      ~socket:cfg.Service.socket ~fuel:cfg.Service.fuel ~slice:cfg.Service.slice (fun ss ->
        serve_phases ss ~label:"serve bench" ~over:"2 workers" ~tenants ~recovery_batch
          ~lineage:"restarts" ~victim:(fun st ->
            Option.map (fun (_, pid, _) -> pid) (Chaos.busiest st "workers")))
  in
  write_serve_report path ~quick ~shape:[ ("workers", jnum cfg.Service.workers) ] results

(* [bench_serve] against a router fleet: phases 1 and 2 as there (the
   victim is the busiest whole shard, supervisor + workers, and
   recovery waits for a migrated tenant), then phase 3 runs repeated
   admin drain + rebalance cycles under load and reports drain latency
   (drain request -> manifest absorbed) and per-tenant migration
   latency (drain request -> tenant observed running on a surviving
   shard, or done) percentiles. The drain/migration cells are new to
   the cheri_c.serve-bench family; compare ignores cells absent from
   the OLD file, so BENCH_PR8 -> BENCH_PR10 gates only the shared
   sustained/recovery metrics. *)
let bench_serve_fleet ~quick ~shards path =
  let shards = max 3 shards in
  section
    (Printf.sprintf "Sharded fleet service (serve --shards %d%s)" shards
       (if quick then " --quick, test scales" else ", default scales"));
  warn_profile ~what:"sustained throughput and latency" "serve --shards";
  let now = Unix.gettimeofday in
  let dir = Printf.sprintf "/tmp/cheri-fleet-bench-%d" (Unix.getpid ()) in
  Chaos.rm_rf dir;
  let tenants = if quick then 8 else 18 in
  let recovery_batch = if quick then 6 else 10 in
  let drain_cycles = if quick then 3 else 6 in
  let rcfg =
    {
      (Router.default_rconfig ~dir) with
      Router.r_shards = shards;
      r_workers = 1;
      r_worker_jobs = 1;
      r_capacity = (tenants + recovery_batch) * 2;
      r_slice = 50_000;
      r_fuel = 50_000_000;
      r_heartbeat_s = 0.25;
      r_status_s = 0.25;
      r_tick_s = 0.02;
      r_take_s = 0.05;
      r_seed = 1;
    }
  in
  (* busiest shard that is up, admitting and holding work *)
  let busiest_shard st =
    Chaos.busiest st "shards" ~ok:(fun row ->
        Json.mem_bool "draining" row = Some false && Json.mem_bool "held" row = Some false)
    |> Option.map (fun (row, pid, n) -> (Option.value ~default:(-1) (Json.mem_int "id" row), pid, n))
  in
  let label = "fleet bench" in
  let results =
    with_serve_session ~label ~pid:(Chaos.Client.spawn_router rcfg) ~dir
      ~socket:rcfg.Router.r_socket ~fuel:rcfg.Router.r_fuel ~slice:rcfg.Router.r_slice
      (fun ss ->
        let shared =
          serve_phases ss ~label ~over:(Printf.sprintf "%d shards" shards) ~tenants ~recovery_batch
            ~lineage:"migrations" ~victim:(fun st ->
              Option.map (fun (_, pid, _) -> pid) (busiest_shard st))
        in
        (* phase 3: drain + rebalance cycles under load; drain latency
           is drain request -> drains counter bump (the shard's
           manifest was absorbed), migration latency is drain request
           -> each parked tenant observed off the drained shard *)
        let drains () = Option.value ~default:0 (Json.mem_int "drains" (ss.stats ())) in
        let drain_samples = ref [] in
        let mig_samples = ref [] in
        let cycle = ref 0 in
        let next_gid = ref 2000 in
        let deadline = now () +. 300.0 in
        while !cycle < drain_cycles && now () < deadline do
          incr cycle;
          let batch =
            Array.init 4 (fun _ ->
                incr next_gid;
                ss.submit ~seed:9 !next_gid)
          in
          (* wait until one shard actually holds work, then drain it *)
          let victim = ref None in
          let spin_deadline = now () +. 30.0 in
          while !victim = None && now () < spin_deadline do
            (match busiest_shard (ss.stats ()) with
            | Some (id, _, _) -> victim := Some id
            | None -> ());
            if !victim = None then ignore (Unix.select [] [] [] 0.005)
          done;
          match !victim with
          | None -> () (* the batch drained before any shard was observed busy *)
          | Some k ->
              let on_k =
                Array.to_list batch
                |> List.filter (fun tid ->
                       let p = ss.poll tid in
                       Json.mem_str "state" p = Some "running" && Json.mem_int "shard" p = Some k)
              in
              let drains_before = drains () in
              let t_drain = now () in
              let r = ss.request (Json.Obj [ ("op", Json.Str "drain"); ("shard", jnum k) ]) in
              if Json.mem_bool "ok" r <> Some true then
                failwith ("fleet bench: drain rejected: " ^ Json.encode r);
              let drained = ref false in
              while (not !drained) && now () < deadline do
                if drains () > drains_before then drained := true
                else ignore (Unix.select [] [] [] 0.005)
              done;
              if !drained then drain_samples := ((now () -. t_drain) *. 1000.) :: !drain_samples;
              (* each tenant that was parked: time until it left shard k *)
              List.iter
                (fun tid ->
                  let moved = ref false in
                  while (not !moved) && now () < deadline do
                    let p = ss.poll tid in
                    match (Json.mem_str "state" p, Json.mem_int "shard" p) with
                    | Some "done", _ | Some "running", Some _ when Json.mem_int "shard" p <> Some k
                      ->
                        moved := true;
                        mig_samples := ((now () -. t_drain) *. 1000.) :: !mig_samples
                    | Some "failed", _ -> failwith ("fleet bench: tenant failed: " ^ Json.encode p)
                    | _ -> ignore (Unix.select [] [] [] 0.005)
                  done)
                on_k;
              (* revive the held slot so the next cycle has a full fleet *)
              let r = ss.request (Json.Obj [ ("op", Json.Str "rebalance") ]) in
              if Json.mem_bool "ok" r <> Some true then
                failwith ("fleet bench: rebalance rejected: " ^ Json.encode r);
              let revived = ref false in
              while (not !revived) && now () < deadline do
                let alive =
                  match Json.member "shards" (ss.stats ()) with
                  | Some (Json.Arr rows) ->
                      List.exists
                        (fun row ->
                          Json.mem_int "id" row = Some k && Json.mem_bool "alive" row = Some true)
                        rows
                  | _ -> false
                in
                if alive then revived := true else ignore (Unix.select [] [] [] 0.01)
              done
        done;
        let q samples p = Obs.quantile_of !samples p in
        Format.fprintf ppf
          "drain: %d cycles — p50 %.0f ms, p99 %.0f ms; migration: %d tenants — p50 %.0f ms, p99 \
           %.0f ms@."
          (List.length !drain_samples) (q drain_samples 0.5) (q drain_samples 0.99)
          (List.length !mig_samples) (q mig_samples 0.5) (q mig_samples 0.99);
        let pct_cell workload count_key samples =
          Json.Obj
            [
              ("workload", Json.Str workload);
              (count_key, jnum (List.length !samples));
              ("p50_ms", jround 1 (q samples 0.5));
              ("p99_ms", jround 1 (q samples 0.99));
            ]
        in
        shared
        @ [ pct_cell "drain" "cycles" drain_samples; pct_cell "migration" "samples" mig_samples ])
  in
  write_serve_report path ~quick
    ~shape:[ ("shards", jnum shards); ("workers", jnum rcfg.Router.r_workers) ]
    results

(* -- telemetry overhead smoke checks (smoke subcommand) ------------------------ *)

(* A short program with real memory traffic for the overhead check. *)
let smoke_src =
  {|
int main(void) {
  long *tab = (long *)malloc(8 * 64);
  long acc = 0;
  for (long r = 0; r < 2000; r++) {
    for (long i = 0; i < 64; i++) {
      tab[i] = acc + i;
      acc = acc + tab[i];
    }
  }
  print_int(acc & 1023);
  return 0;
}
|}

let timed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let smoke () =
  section "Telemetry smoke checks (null-sink zero-cost guarantees)";
  let abi = Abi.Cheri Cheri_core.Cap_ops.V3 in
  let linked = Cheri_compiler.Codegen.compile_source abi smoke_src in
  let fresh () = Cheri_compiler.Codegen.machine_for abi linked in
  (* 1. telemetry must not perturb the simulation: identical
     architectural results with the null sink and with a live sink *)
  let m_null = fresh () in
  let o_null = Machine.run m_null in
  let m_traced = fresh () in
  let sink = Telemetry.Sink.create ~capacity:1024 () in
  Machine.set_sink m_traced sink;
  let o_traced = Machine.run m_traced in
  assert (o_null = o_traced);
  let s_null = Machine.stats m_null and s_traced = Machine.stats m_traced in
  assert (s_null = s_traced);
  assert (Machine.output m_null = Machine.output m_traced);
  Format.fprintf ppf "architectural state identical with/without telemetry: ok@.";
  (* 2. the null sink records nothing and the live sink saw the run *)
  assert (Telemetry.Sink.total_events (Machine.sink m_null) = 0);
  assert (Telemetry.Sink.total_events sink > s_traced.Machine.st_instret - 1);
  assert (Telemetry.Sink.opcode_count sink Telemetry.Op_syscall > 0);
  Format.fprintf ppf "null sink recorded 0 events; live sink recorded %d: ok@."
    (Telemetry.Sink.total_events sink);
  (* 3. host-time overhead: the disabled path is the seed's dispatch
     loop plus one cached-bool branch per retired instruction; assert
     the expected ordering (tracing costs more than not tracing) and
     report per-instruction numbers for the record. Warm up once to
     fault in code paths before timing. *)
  ignore (Machine.run (fresh ()));
  let time_run with_sink =
    let m = fresh () in
    if with_sink then Machine.set_sink m (Telemetry.Sink.create ~capacity:1024 ());
    let o, dt = timed (fun () -> Machine.run m) in
    assert (o = Machine.Exit 0L);
    dt /. float_of_int (Machine.stats m).Machine.st_instret
  in
  let best f = List.fold_left min infinity (List.init 3 (fun _ -> f ())) in
  let ns_null = best (fun () -> time_run false) *. 1e9 in
  let ns_traced = best (fun () -> time_run true) *. 1e9 in
  Format.fprintf ppf "step loop: %.1f ns/insn with null sink, %.1f ns/insn traced (%.2fx)@."
    ns_null ns_traced (ns_traced /. ns_null);
  if ns_traced < ns_null then
    Format.fprintf ppf "(timing inversion under load; counters above remain authoritative)@.";
  Format.fprintf ppf "smoke ok@."

(* -- Bechamel microbenchmarks -------------------------------------------------- *)

let micro () =
  section "Bechamel microbenchmarks (host-native substrate performance)";
  let open Bechamel in
  let cap = Cheri_core.Capability.make ~base:0x1000L ~length:0x1000L ~perms:Cheri_core.Perms.all in
  let mem = Cheri_tagmem.Tagmem.create ~size_bytes:(1 lsl 16) () in
  let hierarchy = Cheri_isa.Cache.Timing.create Cheri_isa.Cache.Timing.paper_config in
  let loop_machine () =
    let b = Cheri_asm.Asm.Builder.create () in
    let e = Cheri_asm.Asm.Builder.emit b in
    e (Cheri_isa.Insn.Li (8, Cheri_isa.Insn.Imm 0L));
    Cheri_asm.Asm.Builder.label b "loop";
    e (Cheri_isa.Insn.Alui (Cheri_isa.Insn.ADD, 8, 8, Cheri_isa.Insn.Imm 1L));
    e (Cheri_isa.Insn.Alui (Cheri_isa.Insn.SLT, 9, 8, Cheri_isa.Insn.Imm 1000L));
    e (Cheri_isa.Insn.Branchz (Cheri_isa.Insn.NEZ, 9, Cheri_isa.Insn.Sym "loop"));
    e Cheri_isa.Insn.Halt;
    Cheri_asm.Asm.make_machine (Cheri_asm.Asm.link b)
  in
  let interp_src = "int main(void) { long s = 0; for (int i = 0; i < 200; i++) s += i; return s & 255; }" in
  let tests =
    [
      (* one Test.make per paper table/figure pipeline, plus substrate ops *)
      Test.make ~name:"t3/idiom-classify (CHERIv3 x DECONST)" (Staged.stage (fun () ->
           Cheri_interp.Table3.classify Cheri_models.Registry.cheriv3 Cheri_interp.Idiom_cases.Deconst));
      Test.make ~name:"t1/analyze-small-package" (Staged.stage (fun () ->
           A.Finder.analyze_source (A.Corpus.generate ~scale:500 (List.hd A.Corpus.paper_table1)).A.Corpus.source));
      Test.make ~name:"t4/port-audit" (Staged.stage (fun () -> W.Port_audit.table4 ()));
      Test.make ~name:"f1/compile-treeadd-v3" (Staged.stage (fun () ->
           Cheri_compiler.Codegen.compile_source
             (Abi.Cheri Cheri_core.Cap_ops.V3)
             ((List.find (fun k -> k.W.Olden.kname = "TreeAdd") W.Olden.kernels).W.Olden.source
                { W.Olden.scale = 1 })));
      Test.make ~name:"core/cap-ptr-add-v3" (Staged.stage (fun () ->
           Cheri_core.Cap_ops.ptr_add Cheri_core.Cap_ops.V3 cap 8L));
      Test.make ~name:"core/check-access" (Staged.stage (fun () ->
           Cheri_core.Capability.check_access cap ~addr:0x1800L ~size:8 ~perm:Cheri_core.Perms.Load));
      Test.make ~name:"tagmem/store-load-int" (Staged.stage (fun () ->
           Cheri_tagmem.Tagmem.store_int_i64 mem ~addr:128L ~size:8 42L;
           Cheri_tagmem.Tagmem.load_int_i64 mem ~addr:128L ~size:8));
      Test.make ~name:"tagmem/store-load-cap" (Staged.stage (fun () ->
           Cheri_tagmem.Tagmem.store_cap_i64 mem ~addr:256L cap;
           Cheri_tagmem.Tagmem.load_cap_i64 mem ~addr:256L));
      Test.make ~name:"cache/hierarchy-access" (Staged.stage (fun () ->
           Cheri_isa.Cache.Timing.access_cycles hierarchy 0x4000L ~size:8));
      Test.make ~name:"isa/run-4k-instructions" (Staged.stage (fun () ->
           Cheri_isa.Machine.run (loop_machine ())));
      Test.make ~name:"isa/run-4k-instructions (traced)" (Staged.stage (fun () ->
           let m = loop_machine () in
           Cheri_isa.Machine.set_sink m (Cheri_telemetry.Telemetry.Sink.create ~capacity:1024 ());
           Cheri_isa.Machine.run m));
      Test.make ~name:"interp/pdp11-small-program" (Staged.stage (fun () ->
           Cheri_interp.Interp.run_with Cheri_models.Registry.pdp11 interp_src));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun tst ->
          let results = Benchmark.run cfg instances tst in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock results in
          match Analyze.OLS.estimates est with
          | Some [ time_per_run ] ->
              Format.fprintf ppf "%-44s %12.1f ns/run@." (Test.Elt.name tst) time_per_run
          | _ -> Format.fprintf ppf "%-44s (no estimate)@." (Test.Elt.name tst))
        (Test.elements test))
    tests

(* -- bench regression gate (compare subcommand) -------------------------------- *)

let read_bench_file path =
  match open_in_bin path with
  | exception Sys_error msg ->
      Format.eprintf "compare: %s@." msg;
      exit 2
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s

(* diff OLD NEW; exit 0 when within threshold, 1 on a regression, 2 on
   a malformed or mismatched input *)
let compare_files ~threshold_pct ~quick old_path new_path =
  let old_json = read_bench_file old_path and new_json = read_bench_file new_path in
  match Bench_compare.diff ~threshold_pct ~quick ~old_json ~new_json () with
  | Error msg ->
      Format.eprintf "compare: %s@." msg;
      exit 2
  | Ok outcome ->
      Format.fprintf ppf "compare %s -> %s@.%a@." old_path new_path Bench_compare.pp_outcome
        outcome;
      if outcome.Bench_compare.o_regressed then exit 1

(* the gate must bite: FILE vs itself passes, FILE vs a synthetically
   worsened copy fails on every gated metric *)
let compare_self_test path =
  let json = read_bench_file path in
  (match Bench_compare.diff ~old_json:json ~new_json:json () with
  | Error msg ->
      Format.eprintf "compare --self-test: %s: %s@." path msg;
      exit 2
  | Ok o when o.Bench_compare.o_regressed ->
      Format.eprintf "compare --self-test: %s regressed against itself@." path;
      exit 1
  | Ok o ->
      Format.fprintf ppf "self vs self: %d metrics, none regressed: ok@."
        (List.length o.Bench_compare.o_metrics));
  match Bench_compare.doctor_worsen json with
  | Error msg ->
      Format.eprintf "compare --self-test: doctoring %s failed: %s@." path msg;
      exit 2
  | Ok doctored -> (
      match Bench_compare.diff ~old_json:json ~new_json:doctored () with
      | Error msg ->
          Format.eprintf "compare --self-test: %s@." msg;
          exit 2
      | Ok o ->
          let n = List.length o.Bench_compare.o_metrics in
          let bad = List.filter (fun m -> m.Bench_compare.m_regressed) o.Bench_compare.o_metrics in
          if not o.Bench_compare.o_regressed || List.length bad <> n then begin
            Format.eprintf
              "compare --self-test: 20%% synthetic regression only flagged %d/%d metrics@."
              (List.length bad) n;
            exit 1
          end;
          Format.fprintf ppf "self vs 20%%-worsened self: all %d metrics flagged: ok@." n)

let compare_cmd rest =
  let threshold = ref 10.0 in
  let quick = ref false in
  let selftest = ref None in
  let files = ref [] in
  let rec p = function
    | "--quick" :: r ->
        quick := true;
        p r
    | "--threshold" :: v :: r -> (
        match float_of_string_opt v with
        | Some t when t > 0. ->
            threshold := t;
            p r
        | _ ->
            Format.eprintf "compare: --threshold expects a positive percentage@.";
            exit 2)
    | "--self-test" :: f :: r ->
        selftest := Some f;
        p r
    | [ ("--threshold" | "--self-test") as f ] ->
        Format.eprintf "compare: %s requires an argument@." f;
        exit 2
    | f :: r ->
        files := f :: !files;
        p r
    | [] -> ()
  in
  p rest;
  match (!selftest, List.rev !files) with
  | Some f, [] -> compare_self_test f
  | None, [ old_path; new_path ] ->
      compare_files ~threshold_pct:!threshold ~quick:!quick old_path new_path
  | _ ->
      Format.eprintf
        "usage: bench/main.exe compare [--threshold P] [--quick] OLD.json NEW.json@.\n\
        \       bench/main.exe compare --self-test FILE@.";
      exit 2

(* -- driver ---------------------------------------------------------------------- *)

let all () =
  table1 ();
  table3 ();
  table4 ();
  figure1 ();
  figure2 ();
  figure3 ();
  figure4 ();
  ablations ();
  micro ()

let () =
  (* a process re-executed with a service marker in argv is a serve
     worker/supervisor/router child (bench serve spawns them), never a
     benchmark invocation *)
  Cheri_service.Service.child_dispatch ();
  Cheri_service.Router.child_dispatch ();
  (* split --jobs/-j N out of argv; what remains is JOB [FILE] *)
  let rec split_jobs = function
    | ("--jobs" | "-j") :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            jobs := n;
            split_jobs rest
        | _ ->
            Format.eprintf "--jobs expects a positive integer, got %s@." v;
            exit 2)
    | [ "--jobs" ] | [ "-j" ] ->
        Format.eprintf "--jobs requires an argument@." ;
        exit 2
    | x :: rest -> x :: split_jobs rest
    | [] -> []
  in
  let positional = split_jobs (List.tl (Array.to_list Sys.argv)) in
  (* the --quick flag and output FILE of `JOB [--quick] [FILE]` *)
  let quick_and_path args default =
    ( List.mem "--quick" args,
      match List.filter (fun s -> s <> "--quick") args with f :: _ -> f | [] -> default )
  in
  let job = match positional with j :: _ -> j | [] -> "all" in
  (try
     match job with
     | "all" -> all ()
     | "t1" -> table1 ()
     | "t3" -> table3 ()
     | "t4" -> table4 ()
     | "f1" -> figure1 ()
     | "f2" -> figure2 ()
     | "f3" -> figure3 ()
     | "f4" -> figure4 ()
     | "ablations" -> ablations ()
     | "micro" -> micro ()
     | "smoke" -> smoke ()
     | "compare" -> compare_cmd (List.tl positional)
     | "json" ->
         bench_json (match positional with _ :: f :: _ -> f | _ -> bench_output_file)
     | "perf" ->
         let quick, path = quick_and_path (List.tl positional) perf_output_file in
         bench_perf ~quick path
     | "inject" ->
         bench_inject (match positional with _ :: f :: _ -> f | _ -> inject_output_file)
     | "snap" ->
         let quick, path = quick_and_path (List.tl positional) snap_output_file in
         bench_snap ~quick path
     | "serve" ->
         (* serve --shards [N]: the sharded-fleet variant (N defaults
            to 3 when omitted, e.g. `serve --shards --quick`) *)
         let rec split_shards = function
           | "--shards" :: v :: rest' when int_of_string_opt v <> None ->
               let _, rest'' = split_shards rest' in
               (Some (int_of_string v), rest'')
           | "--shards" :: rest' ->
               let sh, rest'' = split_shards rest' in
               (Some (Option.value ~default:3 sh), rest'')
           | x :: rest' ->
               let sh, rest'' = split_shards rest' in
               (sh, x :: rest'')
           | [] -> (None, [])
         in
         let shards, rest = split_shards (List.tl positional) in
         let quick, path =
           quick_and_path rest
             (match shards with Some _ -> serve_fleet_output_file | None -> serve_output_file)
         in
         (match shards with
         | Some n -> bench_serve_fleet ~quick ~shards:n path
         | None -> bench_serve ~quick path)
     | other ->
         Format.eprintf "unknown job %s@." other;
         exit 2
   with
  | W.Runner.Run_failed msg ->
      Format.eprintf "benchmark run failed: %s@." msg;
      exit 1
  | Exec.Pool.Worker_failed e ->
      Format.eprintf "benchmark worker failed: %a@." Exec.Pool.pp_error e;
      exit 1);
  Format.pp_print_flush ppf ()
