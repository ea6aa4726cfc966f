(* perfbench: the repository benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--dir DIR]
     perfbench.exe --print-reference

   Workloads: paper-sweep, tenant-burst, resume-chain, fuzz-campaign
   (see README.md beside this file). With --trace 0 the run times the
   workload for S seconds of wall time (and at least 100 operations)
   with tracing off, checks every output, and prints the end-to-end
   metrics: CPU-clock timings scaled to the reference host's speed
   (Common.now, Speed). With
   --trace 1 it runs a fixed prefix of the same operation stream twice,
   untraced then traced, and prints the per-layer metrics; the span
   file and layer table go under DIR/trace. The last line of standard
   output is the result, prefixed with [PERFBENCH_RESULT]. A failed
   check exits 1 without a result. *)

open Common
module Service = Cheri_service.Service

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--dir DIR]\n\
    \       perfbench.exe --print-reference";
  exit 2

type metric = { m_name : string; m_value : float; m_unit : string }

let result_line ~attempted ~failed metrics =
  Printf.sprintf "PERFBENCH_RESULT {\"correct\":true,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    attempted failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.m_name (Json.number m.m_value)
              m.m_unit)
          metrics))

let print_metrics ms =
  List.iter (fun m -> Printf.printf "  %-28s %16.6g %s\n" m.m_name m.m_value m.m_unit) ms

(* -- end-to-end ------------------------------------------------------------ *)

let e2e_metrics (e : Driver.e2e) =
  let tail, _, _ = e.latency_tail in
  [
    { m_name = "setup_s"; m_value = e.setup_s; m_unit = "s" };
    { m_name = "jobs_per_s"; m_value = e.jobs_per_s; m_unit = "1/s" };
    { m_name = "latency_p50_s"; m_value = e.latency_p50_s; m_unit = "s" };
    { m_name = "latency_tail_s"; m_value = tail; m_unit = "s" };
    { m_name = "sim_minsn_per_s"; m_value = e.sim_minsn_per_s; m_unit = "Minsn/s" };
    { m_name = "rss_peak_mib"; m_value = e.rss_peak_mib; m_unit = "MiB" };
  ]

let report_e2e ~workload ~seed ~check ~counts (e : Driver.e2e) =
  let _, pct, n = e.latency_tail in
  Printf.printf "perfbench %s seed %d (tracing off)\n" workload seed;
  print_metrics (e2e_metrics e);
  Printf.printf "  latency_tail_s is p%.1f over %d operations\n" pct n;
  Printf.printf "  clock: %.4f clock s per wall s in the timed region (busy_frac)\n" e.busy_frac;
  Printf.printf
    "  host speed: user probe median %.6f s over %d (reference %.6f), fault probe median %.6f s \
     over %d (reference %.6f), user share %.3f: timings x %.4f\n"
    (Speed.user_median_s ()) (List.length !Speed.user_samples) Speed.user_ref_s
    (Speed.fault_median_s ()) (List.length !Speed.fault_samples) Speed.fault_ref_s e.user_frac
    e.scale;
  Printf.printf "  unscaled: setup_s %.6g jobs_per_s %.6g latency_p50_s %.6g latency_tail_s %.6g\n"
    (e.setup_s /. e.scale) (e.jobs_per_s *. e.scale) (e.latency_p50_s /. e.scale)
    ((let v, _, _ = e.latency_tail in v) /. e.scale);
  Printf.printf "  attempted %d, failed %d, failed_frac %g\n" e.attempted e.failed
    (float_of_int e.failed /. float_of_int e.attempted);
  if e.instret > 0 || counts <> "" then
    Printf.printf "  counts over the operations run:%s%s\n"
      (if e.instret > 0 then Printf.sprintf " exec.instret %d" e.instret else "")
      counts;
  Printf.printf "  check: %s\n" check;
  print_endline (result_line ~attempted:e.attempted ~failed:e.failed (e2e_metrics e))

let run_inproc (w : Inproc.t) ~seed ~seconds ~dir =
  let (p, o, rss), setup_s =
    Driver.with_setups
      ~setup:(fun () -> w.setup ~seed ~dir)
      ~teardown:ignore
      (fun p ->
        Gc.compact ();
        let o = Driver.drive (Driver.Seconds seconds) (p.Inproc.stream ()) in
        (p, o, vm_hwm_mib 0))
  in
  if o.failed > 0 then fail "%s: %d operation(s) raised" w.name o.failed;
  let check = p.check () in
  let e =
    Driver.e2e ?insns_per_op:(p.insns_per_op ()) ~window:w.window ~setup_s ~rss_peak_mib:rss
      ~work:(user_sys 0) o
  in
  report_e2e ~workload:w.name ~seed ~check ~counts:"" e

let run_tenant_burst ~seed ~seconds ~dir =
  let module T = Tenant_burst in
  let (r, rss, work), setup_s =
    Driver.with_setups ~clock:T.setup_clock
      ~setup:(fun () -> T.start ~seed ~dir 0)
      ~teardown:T.stop
      (fun srv ->
        let r = T.drive srv ~seed (Driver.Seconds seconds) in
        (r, T.rss_peak_mib srv, T.work srv))
  in
  if r.refused + r.failed_tenants + r.timeouts > 0 then
    fail "tenant-burst: %d refused, %d failed and %d timed-out tenants" r.refused r.failed_tenants
      r.timeouts;
  let check = T.check r in
  (* one window of all 100 tenants, ten blocks of the same mix: a
     window of ten completions holds whichever tenants ended in it *)
  let e = Driver.e2e ~window:Driver.min_ops ~setup_s ~rss_peak_mib:rss ~work r.outcome in
  let n = List.length r.finished in
  let slices = List.fold_left (fun a x -> a + (Option.get x.T.result).Service.r_slices) 0 r.finished in
  let restarts = List.fold_left (fun a x -> a + x.T.restarts) 0 r.finished in
  report_e2e ~workload:"tenant-burst" ~seed ~check
    ~counts:
      (Printf.sprintf
         " service.slices_per_tenant %g, service.restarts %d, service.refused %d, timeouts %d, failed tenants %d"
         (float_of_int slices /. float_of_int n)
         restarts r.refused r.timeouts r.failed_tenants)
    e

(* -- traced ---------------------------------------------------------------- *)

(* [base] is the time the shares are of; [residual] what the layers
   leave of it; [extra] rows are printed only. *)
let report_trace ~workload ~seed ~out ~check ~base ~residual ~overhead ~busy ~attempted
    ~slices_per_tenant ~extra =
  let c = !Layer.c in
  let self = Trace.self_of and calls n = float_of_int (Trace.calls_of n) in
  let exec_s = self "exec" in
  (* the machine_init span covers Codegen.machine_for, decode included;
     the decode probe repeats the decode alone *)
  let decode_s = self "decode" in
  let ratio a b = if a + b = 0 then 0. else float_of_int b /. float_of_int (a + b) in
  let metrics =
    [
      { m_name = "compile.s"; m_value = self "compile"; m_unit = "s" };
      { m_name = "compile.calls"; m_value = calls "compile"; m_unit = "count" };
      { m_name = "decode.s"; m_value = decode_s; m_unit = "s" };
      { m_name = "decode.insns"; m_value = float_of_int c.decode_insns; m_unit = "count" };
      { m_name = "machine_init.s"; m_value = self "machine_init" -. decode_s; m_unit = "s" };
      { m_name = "machine_init.calls"; m_value = calls "machine_init"; m_unit = "count" };
      {
        m_name = "machine_init.major_mib";
        m_value = c.init_major_words *. 8. /. 1048576.;
        m_unit = "MiB";
      };
      { m_name = "exec.s"; m_value = exec_s; m_unit = "s" };
      { m_name = "exec.instret"; m_value = float_of_int c.instret; m_unit = "count" };
      { m_name = "exec.cycles"; m_value = float_of_int c.cycles; m_unit = "count" };
      {
        m_name = "exec.minsn_per_s";
        m_value = float_of_int c.instret /. exec_s /. 1e6;
        m_unit = "Minsn/s";
      };
      {
        m_name = "exec.minor_words_per_insn";
        m_value = c.exec_minor_words /. float_of_int c.instret;
        m_unit = "words/insn";
      };
      { m_name = "exec.l1_miss_ratio"; m_value = ratio c.l1_hits c.l1_misses; m_unit = "ratio" };
      { m_name = "exec.l2_miss_ratio"; m_value = ratio c.l2_hits c.l2_misses; m_unit = "ratio" };
      { m_name = "snapshot.saves"; m_value = float_of_int c.saves; m_unit = "count" };
      { m_name = "snapshot.save_bytes"; m_value = float_of_int c.save_bytes; m_unit = "B" };
      { m_name = "snapshot.restores"; m_value = float_of_int c.restores; m_unit = "count" };
      { m_name = "service.slices_per_tenant"; m_value = slices_per_tenant; m_unit = "count" };
      { m_name = "residual_s"; m_value = residual; m_unit = "s" };
      { m_name = "trace.overhead_frac"; m_value = overhead; m_unit = "frac" };
      { m_name = "clock.busy_frac"; m_value = busy; m_unit = "frac" };
    ]
  in
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "perfbench %s seed %d (traced): layer self times, %.3f s of workload time\n" workload seed base;
  pr "  %-22s %12s %8s %8s\n" "layer" "self s" "share" "calls";
  List.iter
    (fun (l : Trace.layer) ->
      if l.l_kind <> Trace.Client then
        pr "  %-22s %12.6f %7.2f%% %8d%s\n" l.l_name l.l_self (100. *. l.l_self /. base) l.l_calls
          (if l.l_kind = Trace.Probe then "  (probe: repeated outside the workload)"
           else if l.l_name = "machine_init" then "  (includes the decode)"
           else ""))
    (Trace.layers ());
  pr "  %-22s %12.6f %7.2f%%\n" "residual_s" residual (100. *. residual /. base);
  List.iter (fun (k, v) -> pr "  %s\n" (k ^ " " ^ v)) extra;
  pr "  tracing overhead: %+.2f%% of the untraced prefix's clock time\n" (100. *. overhead);
  pr "  exact counts: exec.instret %d, exec.cycles %d, snapshot.save_bytes %d, snapshot.saves %d, snapshot.restores %d\n"
    c.instret c.cycles c.save_bytes c.saves c.restores;
  let table = Buffer.contents buf in
  let stem = Filename.concat out (Printf.sprintf "%s-seed%d" workload seed) in
  write_file (stem ^ ".spans.json") (Trace.chrome_json ());
  write_file (stem ^ ".layers.txt") table;
  print_string table;
  print_metrics metrics;
  Printf.printf "  check: %s\n  spans: %s.spans.json\n" check stem;
  print_endline (result_line ~attempted ~failed:0 metrics)

let trace_inproc (w : Inproc.t) ~seed ~dir ~out =
  Trace.reset ();
  Layer.reset_counts ();
  Trace.on := true;
  let t = now () in
  let p = w.setup ~seed ~dir in
  let setup_time = now () -. t in
  Trace.on := false;
  Gc.compact ();
  let plain = Driver.drive (Driver.Ops w.trace_ops) (p.stream ()) in
  Trace.on := true;
  let probes = Trace.probe_time () in
  let traced = Driver.drive (Driver.Ops w.trace_ops) (p.stream ()) in
  let traced_probes = Trace.probe_time () -. probes in
  Trace.on := false;
  if plain.failed + traced.failed > 0 then fail "%s: an operation raised" w.name;
  let check = p.check () in
  let base = setup_time +. traced.clock_s -. Trace.probe_time () in
  report_trace ~workload:w.name ~seed ~out ~check ~base ~residual:(base -. Trace.work_self ())
    ~overhead:(((traced.clock_s -. traced_probes) /. plain.clock_s) -. 1.)
    ~busy:(plain.clock_s /. plain.wall_s)
    ~attempted:traced.attempted
    ~slices_per_tenant:0. ~extra:[]

let trace_tenant_burst ~seed ~dir ~out =
  let module T = Tenant_burst in
  Trace.reset ();
  Layer.reset_counts ();
  (* three blocks of ten tenants: the prefix runs twice and is replayed
     once, and all of it must end within the run's time limit *)
  let ops = 30 in
  let run_on k =
    let srv = T.start ~seed ~dir k in
    Fun.protect ~finally:(fun () -> T.stop srv) (fun () -> T.drive srv ~seed (Driver.Ops ops))
  in
  let plain = run_on 0 in
  Trace.on := true;
  let traced = run_on 1 in
  let n = List.length traced.finished in
  if n <> ops || traced.outcome.failed + plain.outcome.failed > 0 then
    fail "tenant-burst: %d of %d tenants finished" n ops;
  let sum f = List.fold_left (fun a x -> a +. f x) 0. traced.finished in
  let running x = Option.value ~default:x.T.t_done x.T.t_running in
  List.iter
    (fun x ->
      let op = x.T.t.index in
      Trace.interval ~op "service.submit" x.T.t_submit x.t_admitted;
      Trace.interval ~op "service.queue_wait" x.t_submit (running x);
      Trace.interval ~op "service.run" (running x) x.t_done)
    traced.finished;
  let own = T.replay ~dir traced in
  Trace.on := false;
  let check = T.check traced in
  List.iter2
    (fun a b ->
      if a.T.result <> b.T.result then fail "tenant-burst: tenant %d differs between runs" a.T.t.index)
    plain.finished traced.finished;
  let span_traced = traced.outcome.clock_s in
  let base = float_of_int T.workers *. span_traced in
  let run_s = sum (fun x -> x.T.t_done -. running x) in
  let slice_wait = run_s -. List.fold_left (fun a (_, o) -> a +. o) 0. own in
  let polls = sum (fun x -> float_of_int x.T.polls) in
  let slices = sum (fun x -> float_of_int (Option.get x.T.result).Service.r_slices) in
  let restarts = sum (fun x -> float_of_int x.T.restarts) in
  let f = Printf.sprintf "%.6f" in
  report_trace ~workload:"tenant-burst" ~seed ~out ~check ~base ~residual:(base -. Trace.work_self ())
    ~overhead:((span_traced /. plain.outcome.clock_s) -. 1.)
    ~busy:(plain.outcome.clock_s /. plain.outcome.wall_s)
    ~attempted:traced.outcome.attempted
    ~slices_per_tenant:(slices /. float_of_int n)
    ~extra:
      [
        ( "worker layers:",
          Printf.sprintf
            "replayed in-process; shares are of %d workers x %.3f s on the service clock"
            T.workers span_traced );
        ("client view, summed over tenants (s):", "");
        ("  service.submit_s", f (sum (fun x -> x.T.t_admitted -. x.t_submit)));
        ("  service.poll_s (wall)", f (sum (fun x -> x.T.poll_s)));
        ("  service.queue_wait_s", f (sum (fun x -> running x -. x.T.t_submit)));
        ("  service.run_s", f run_s);
        ("  service.slice_wait_s", f slice_wait);
        ("  service.latency_s", f (sum (fun x -> x.T.t_done -. x.t_submit)));
        ("  service.polls_per_done", Printf.sprintf "%.3f" (polls /. float_of_int n));
        ("  service.slices_per_tenant", Printf.sprintf "%.3f" (slices /. float_of_int n));
        ("  service.refused", string_of_int traced.refused);
        ("  service.restarts", Printf.sprintf "%.0f" restarts);
      ]

(* -- reference ------------------------------------------------------------- *)

let print_reference () =
  Array.iter
    (fun (c : Paper.cell) ->
      let outcome, m = Cheri_compiler.Codegen.run c.abi c.source in
      (match outcome with
      | Cheri_isa.Machine.Exit 0L -> ()
      | o -> fail "%s: %s" (Paper.key c) (Inproc.outcome_str o));
      Printf.printf "    (%S, (%S, %d, %d));\n" (Paper.key c)
        (md5 (Cheri_isa.Machine.output m))
        (Cheri_isa.Machine.cycles m) (Cheri_isa.Machine.instret m))
    Paper.cells

(* -- main ------------------------------------------------------------------ *)

let () =
  (* a re-executed service child never returns from here *)
  Service.child_dispatch ();
  Speed.fault_child ();
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref 0 in
  let dir = ref ".bench_run" and reference = ref false in
  let rec parse = function
    | "--workload" :: v :: r ->
        workload := v;
        parse r
    | "--seed" :: v :: r ->
        seed := int_of_string v;
        parse r
    | "--seconds" :: v :: r ->
        seconds := float_of_string v;
        parse r
    | "--trace" :: v :: r ->
        trace := int_of_string v;
        parse r
    | "--dir" :: v :: r ->
        dir := v;
        parse r
    | "--print-reference" :: r ->
        reference := true;
        parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    if !reference then print_reference ()
    else begin
      if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
      let out = Filename.concat !dir "trace" in
      let dir = Filename.concat !dir (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
      mkdir_p dir;
      let seed = !seed and seconds = !seconds and traced = !trace = 1 in
      (match (!workload, List.find_opt (fun (w : Inproc.t) -> w.name = !workload) Inproc.all) with
      | "tenant-burst", _ ->
          if traced then trace_tenant_burst ~seed ~dir ~out else run_tenant_burst ~seed ~seconds ~dir
      | _, Some w -> if traced then trace_inproc w ~seed ~dir ~out else run_inproc w ~seed ~seconds ~dir
      | _, None -> usage ());
      List.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        [ "chain.snap"; "replay.snap" ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  with Check_failed msg ->
    prerr_endline ("perfbench: check failed: " ^ msg);
    exit 1
