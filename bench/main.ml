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
     bench/main.exe inject [FILE]  full fault-injection campaign: the
                                 per-ABI detection matrix over every
                                 builtin workload and fault kind
                                 (default FILE: [inject_output_file])
     bench/main.exe smoke        fast telemetry-overhead assertions (runs
                                 under dune runtest)
     bench/main.exe compare FILE...
                                 the regression gate: each FILE is a
                                 perfbench result (perfbench-trajectory/v1)
                                 whose change side is gated against its
                                 own parent side, with the workloads,
                                 metrics, directions and bounds of the
                                 BENCHMARK.json beside FILE; exit 1 on
                                 any metric worse than its bound, or if
                                 a copy worsened past every bound is not
                                 flagged on every metric

   Softcore throughput, snapshot save/restore and the multi-tenant
   service are measured by perfbench (paper-sweep, resume-chain,
   tenant-burst: `python3 perfbench/run.py --workload W`).

   Every figure/ablation cell is an independent (program x ABI) run
   with per-run machine state, so they fan out over the Cheri_exec.Exec
   domain pool; results are keyed by submission index, so any --jobs
   value produces identical tables. *)

module W = Cheri_workloads
module A = Cheri_analysis
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Telemetry = Cheri_telemetry.Telemetry
module Exec = Cheri_exec.Exec
module Inject = Cheri_inject.Inject
module Bench_compare = Cheri_obs.Bench_compare

(* the committed fault-injection detection matrix *)
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

(* -- fault-injection detection matrix (inject subcommand) --------------------- *)

(* The full campaign behind BENCH_PR3.json: every builtin workload x
   every ABI x every fault kind x 8 seeds. The report is bit-identical
   whatever --jobs is (fault parameters derive only from the task key),
   so only wall-clock varies. *)
let bench_inject path =
  (* an unwritable destination is refused before the campaign *)
  Cheri_util.Cli.write_output ~flag:"inject" path "";
  section "Fault-injection detection matrix (full campaign)";
  let c = Inject.default_campaign ~seeds:8 () in
  let n_tasks =
    List.length c.Inject.c_workloads * 3 * List.length c.Inject.c_kinds * c.Inject.c_seeds
  in
  Format.fprintf ppf "running %d injection tasks on %d domain(s)...@." n_tasks !jobs;
  let report = Inject.run ~jobs:!jobs c in
  Inject.pp_report ppf report;
  Cheri_util.Cli.write_output ~flag:"inject" path (Inject.report_json report);
  Format.fprintf ppf "wrote %s (%d records)@." path (List.length report.Inject.r_records);
  if report.Inject.r_errors <> [] then exit 1

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

(* gate FILE's change side against its parent side, then check that the
   gate bites on a copy worsened past every bound; true when both pass.
   A malformed or foreign FILE exits 2 with one line. *)
let compare_file path =
  let read p =
    match Cheri_util.File.read p with
    | Ok s -> s
    | Error msg -> Cheri_util.Cli.die "compare: %s" msg
  in
  let json = read path in
  let spec = read (Filename.concat (Filename.dirname path) "BENCHMARK.json") in
  let ok = function Ok v -> v | Error msg -> Cheri_util.Cli.die "compare: %s: %s" path msg in
  let o = ok (Bench_compare.diff ~spec json) in
  let doctored, factor = ok (Bench_compare.doctor_worsen ~spec json) in
  let bite = ok (Bench_compare.diff ~spec doctored) in
  let n = List.length bite.Bench_compare.o_metrics in
  let flagged = List.filter (fun m -> m.Bench_compare.m_regressed) bite.Bench_compare.o_metrics in
  let bites = List.length flagged = n in
  Format.fprintf ppf
    "compare %s@.%a@.  bite check: change vs itself %g%% worse flags %d/%d metrics%s@." path
    Bench_compare.pp_outcome o (factor *. 100.) (List.length flagged) n
    (if bites then "" else ": the gate does not bite");
  (not o.Bench_compare.o_regressed) && bites

let compare_cmd = function
  | [] -> Cheri_util.Cli.die "usage: bench/main.exe compare FILE..."
  | files -> (
      match List.find_opt (fun f -> String.starts_with ~prefix:"-" f) files with
      | Some flag -> Cheri_util.Cli.die "compare: unknown flag %s" flag
      | None ->
          (* every file is reported before the exit code is decided *)
          let passed = List.map compare_file files in
          if not (List.for_all Fun.id passed) then exit 1)

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
     | "inject" ->
         bench_inject (match positional with _ :: f :: _ -> f | _ -> inject_output_file)
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
