(* The observability plane: registry semantics (interning, null
   registry, per-domain shard merging), histogram bucket math, span
   nesting, exporter round-trips through the strict JSON parser and a
   Prometheus line checker, the crash-safe heartbeat, and the bench
   regression gate. *)

module Obs = Cheri_obs.Obs
module BC = Cheri_obs.Bench_compare
module J = Cheri_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let parse_ok what s =
  match J.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: strict parser rejected (%s): %s" what e s

let member_exn what name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S" what name

(* -- registry basics ------------------------------------------------------ *)

let test_counters_and_interning () =
  let r = Obs.create () in
  let c = Obs.counter r "requests_total" in
  Obs.Counter.incr c;
  Obs.Counter.incr ~by:41 c;
  check_int "counter accumulates" 42 (Obs.Counter.value c);
  (* interning: same name, same metric *)
  Obs.Counter.incr (Obs.counter r "requests_total");
  check_int "interned by name" 43 (Obs.Counter.value c);
  let g = Obs.gauge r "depth" in
  Obs.Gauge.set g 7.5;
  check_float "gauge holds last value" 7.5 (Obs.Gauge.value g);
  (* a name can only carry one metric type *)
  (match Obs.gauge r "requests_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-interning a counter as a gauge should raise")

let test_null_registry_is_noop () =
  check_bool "null is not live" false (Obs.is_live Obs.null);
  check_bool "create is live" true (Obs.is_live (Obs.create ()));
  check_bool "default is live" true (Obs.is_live Obs.default);
  let c = Obs.counter Obs.null "n" in
  Obs.Counter.incr ~by:100 c;
  check_int "null counter stays 0" 0 (Obs.Counter.value c);
  let h = Obs.histogram Obs.null "h" in
  Obs.Histogram.observe h 1.0;
  check_int "null histogram stays empty" 0 (Obs.Histogram.count h);
  let s = Obs.Span.enter Obs.null "x" in
  Obs.Span.exit Obs.null s;
  check_int "null span never recorded" 0 (Obs.Span.recorded Obs.null)

(* -- histogram bucket math ------------------------------------------------ *)

let test_histogram_bucket_math () =
  let r = Obs.create () in
  let h = Obs.histogram ~buckets:[| 1.; 2.; 4. |] r "lat" in
  check_float "empty quantile is nan" nan (Obs.Histogram.quantile h 0.5);
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.5; 3.0; 5.0 ];
  check_int "count" 4 (Obs.Histogram.count h);
  check_float "sum" 10.0 (Obs.Histogram.sum h);
  (* one observation per bucket: the target-rank interpolation lands on
     exactly computable points, clamped by the observed min/max *)
  check_float "q0 is the observed min" 0.5 (Obs.Histogram.quantile h 0.0);
  check_float "q1 is the observed max" 5.0 (Obs.Histogram.quantile h 1.0);
  check_float "p50 at the (1,2] bucket's upper bound" 2.0 (Obs.Histogram.quantile h 0.5);
  check_float "p25 within the first bucket" 1.0 (Obs.Histogram.quantile h 0.25)

let test_quantile_of_exact () =
  check_float "empty is nan" nan (Obs.quantile_of [] 0.5);
  check_float "singleton" 7.0 (Obs.quantile_of [ 7.0 ] 0.99);
  let s = [ 4.0; 1.0; 3.0; 2.0 ] in
  check_float "p0 is min" 1.0 (Obs.quantile_of s 0.0);
  check_float "p100 is max" 4.0 (Obs.quantile_of s 1.0);
  check_float "p50 interpolates order statistics" 2.5 (Obs.quantile_of s 0.5);
  check_float "p99" 3.97 (Obs.quantile_of s 0.99)

(* -- per-domain shards ---------------------------------------------------- *)

let test_shard_merge_determinism () =
  (* the same logical work on 1 domain and on 3 domains must export
     byte-identical counters *)
  let serial = Obs.create () in
  let c = Obs.counter serial "work_total" in
  let h = Obs.histogram serial "work_seconds" in
  for _ = 1 to 300 do
    Obs.Counter.incr c;
    Obs.Histogram.observe h 0.001
  done;
  let sharded = Obs.create () in
  let worker () =
    let c = Obs.counter sharded "work_total" in
    let h = Obs.histogram sharded "work_seconds" in
    for _ = 1 to 100 do
      Obs.Counter.incr c;
      Obs.Histogram.observe h 0.001
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check_int "counter merged across shards" 300
    (Obs.Counter.value (Obs.counter sharded "work_total"));
  check_int "histogram merged across shards" 300
    (Obs.Histogram.count (Obs.histogram sharded "work_seconds"));
  check_string "1-domain and 3-domain exports byte-identical"
    (Obs.to_prometheus ~timing:false serial)
    (Obs.to_prometheus ~timing:false sharded);
  check_string "jsonl too"
    (Obs.to_jsonl ~timing:false serial)
    (Obs.to_jsonl ~timing:false sharded)

(* -- spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  let r = Obs.create () in
  check_bool "no current span outside with_" true (Obs.Span.current r = None);
  Obs.Span.with_ r "outer" (fun () ->
      let outer =
        match Obs.Span.current r with
        | Some s -> s
        | None -> Alcotest.fail "with_ did not set the current span"
      in
      Obs.Span.with_ r "inner" (fun () ->
          match Obs.Span.current r with
          | Some s ->
              check_bool "inner span has a fresh id" true (Obs.Span.id s <> Obs.Span.id outer)
          | None -> Alcotest.fail "nested with_ did not set the current span"));
  check_int "both spans recorded on exit" 2 (Obs.Span.recorded r);
  check_int "none dropped" 0 (Obs.Span.dropped r);
  (* the JSONL export carries the parent link *)
  let spans =
    List.filter_map
      (fun line ->
        if line = "" then None
        else
          let j = parse_ok "jsonl line" line in
          match J.member "kind" j with
          | Some (J.Str "span") -> Some j
          | _ -> None)
      (String.split_on_char '\n' (Obs.to_jsonl r))
  in
  check_int "two span lines" 2 (List.length spans);
  let find label =
    List.find
      (fun j -> J.member "label" j = Some (J.Str label))
      spans
  in
  let outer = find "outer" and inner = find "inner" in
  check_bool "outer is a root span" true (member_exn "outer" "parent" outer = J.Null);
  check_bool "inner's parent is outer" true
    (J.to_int (member_exn "inner" "parent" inner)
    = J.to_int (member_exn "outer" "id" outer))

(* -- exporters ------------------------------------------------------------ *)

let populated () =
  let r = Obs.create () in
  Obs.Counter.incr ~by:5 (Obs.counter r "tasks_total{verdict=\"detected\"}");
  Obs.Counter.incr ~by:2 (Obs.counter r "tasks_total{verdict=\"silent\"}");
  Obs.Gauge.set (Obs.gauge r "queue_depth") 3.0;
  List.iter (Obs.Histogram.observe (Obs.histogram r "task_seconds")) [ 0.01; 0.02; 0.4 ];
  Obs.Span.with_ r "campaign" (fun () -> ());
  r

let test_jsonl_roundtrip () =
  let r = populated () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Obs.to_jsonl r))
  in
  check_bool "has lines" true (List.length lines >= 5);
  List.iter
    (fun line ->
      let j = parse_ok "jsonl line" line in
      match J.to_string (member_exn "line" "kind" j) with
      | Some ("counter" | "gauge" | "histogram" | "span" | "spans_dropped") -> ()
      | _ -> Alcotest.failf "unknown kind in %s" line)
    lines;
  (* timing:false restricts to counters, sorted by name *)
  let det =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Obs.to_jsonl ~timing:false r))
  in
  check_int "counters only" 2 (List.length det);
  let names =
    List.map
      (fun l -> Option.get (J.to_string (member_exn "counter" "name" (parse_ok "line" l))))
      det
  in
  check_bool "sorted by name" true (names = List.sort compare names)

(* every non-comment Prometheus line must be `name[{labels}] value`
   with a well-formed metric identifier and a numeric value *)
let check_prometheus_line line =
  let fail fmt = Alcotest.failf fmt in
  if line <> "" && line.[0] <> '#' then begin
    match String.rindex_opt line ' ' with
    | None -> fail "prometheus line lacks a value: %s" line
    | Some i ->
        let name = String.sub line 0 i in
        let value = String.sub line (i + 1) (String.length line - i - 1) in
        if float_of_string_opt value = None then
          fail "prometheus value is not a number: %s" line;
        let base =
          match String.index_opt name '{' with
          | Some j ->
              if name.[String.length name - 1] <> '}' then
                fail "unterminated label set: %s" line;
              String.sub name 0 j
          | None -> name
        in
        if base = "" then fail "empty metric name: %s" line;
        String.iter
          (fun c ->
            match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
            | _ -> fail "bad character %C in metric name: %s" c line)
          base
  end

let test_prometheus_roundtrip () =
  let r = populated () in
  let out = Obs.to_prometheus r in
  List.iter check_prometheus_line (String.split_on_char '\n' out);
  let contains sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "TYPE comment uses the base name" true
    (contains "# TYPE tasks_total counter" out);
  check_bool "histogram exposes buckets" true (contains "task_seconds_bucket{le=" out);
  check_bool "+Inf bucket present" true (contains "{le=\"+Inf\"}" out);
  check_bool "histogram count series" true (contains "task_seconds_count 3" out);
  (* the +Inf bucket is cumulative: equal to _count *)
  check_bool "spans comment when timing" true (contains "# spans:" out);
  let det = Obs.to_prometheus ~timing:false r in
  List.iter check_prometheus_line (String.split_on_char '\n' det);
  check_bool "no histogram without timing" false (contains "task_seconds" det);
  check_bool "no gauge without timing" false (contains "queue_depth" det);
  check_bool "counters survive" true (contains "tasks_total{verdict=\"detected\"} 5" det)

(* -- heartbeat ------------------------------------------------------------ *)

let test_heartbeat_atomic_write () =
  let path = Filename.temp_file "obs_hb" ".json" in
  let tmp = path ^ ".tmp" in
  (* a stale temp file — as a SIGKILL mid-write leaves behind — must
     not corrupt the next write *)
  let oc = open_out_bin tmp in
  output_string oc "{\"torn\":";
  close_out oc;
  Obs.Heartbeat.write_atomic ~path "{\"ok\":true}";
  let read p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  check_string "write is whole" "{\"ok\":true}" (read path);
  ignore (parse_ok "written payload" (read path));
  check_bool "no temp file left behind" false (Sys.file_exists tmp);
  Sys.remove path

let test_heartbeat_interval () =
  let path = Filename.temp_file "obs_hb" ".json" in
  let read () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let hb = Obs.Heartbeat.create ~interval_s:3600.0 ~path () in
  check_string "path accessor" path (Obs.Heartbeat.path hb);
  Obs.Heartbeat.beat hb (fun () -> "first");
  check_string "first beat always writes" "first" (read ());
  Obs.Heartbeat.beat hb (fun () -> Alcotest.fail "payload forced inside the interval");
  check_string "interval suppresses the write" "first" (read ());
  Obs.Heartbeat.force hb (fun () -> "forced");
  check_string "force writes regardless" "forced" (read ());
  Sys.remove path

let test_heartbeat_staleness () =
  let interval = 0.5 in
  let stale ~now ~mtime =
    match Obs.Heartbeat.staleness ~interval_s:interval ~now ~mtime with
    | `Stale _ -> true
    | `Fresh -> false
  in
  check_bool "just written is fresh" false (stale ~now:100.0 ~mtime:100.0);
  check_bool "one interval old is fresh" false (stale ~now:100.5 ~mtime:100.0);
  (* the supervisor's probe contract: exactly 2x the interval is still
     fresh — a beat that lands at the wire is not a death sentence *)
  check_bool "exactly 2x interval is still fresh" false (stale ~now:101.0 ~mtime:100.0);
  check_bool "just beyond 2x interval is stale" true (stale ~now:101.0001 ~mtime:100.0);
  (match Obs.Heartbeat.staleness ~interval_s:interval ~now:103.0 ~mtime:100.0 with
  | `Stale age -> check_float "staleness reports the age" 3.0 age
  | `Fresh -> Alcotest.fail "3s-old file under a 0.5s interval must be stale");
  (* clock skew: a writer on a faster clock produces an mtime in the
     probe's future; a negative age must read as fresh, never stale *)
  check_bool "future mtime (clock skew) is fresh" false (stale ~now:100.0 ~mtime:105.0)

let test_heartbeat_probe () =
  let path = Filename.temp_file "obs_probe" ".json" in
  let missing = path ^ ".does-not-exist" in
  check_bool "missing file probes `Missing" true
    (Obs.Heartbeat.probe ~interval_s:1.0 missing = `Missing);
  let mtime = (Unix.stat path).Unix.st_mtime in
  check_bool "fresh file probes `Fresh" true
    (Obs.Heartbeat.probe ~now:mtime ~interval_s:1.0 path = `Fresh);
  check_bool "aged file probes `Stale" true
    (match Obs.Heartbeat.probe ~now:(mtime +. 2.5) ~interval_s:1.0 path with
    | `Stale _ -> true
    | `Fresh | `Missing -> false);
  Sys.remove path

let test_status_json () =
  let j =
    parse_ok "status"
      (Obs.status_json
         ~verdicts:[ ("detected", 3); ("silent", 1) ]
         ~p99_task_s:0.25 ~tasks_done:4 ~tasks_total:16 ~elapsed_s:8.0 ())
  in
  check_bool "schema" true (J.member "schema" j = Some (J.Str "cheri_c.status/v1"));
  check_int "tasks_done" 4 (Option.get (J.to_int (member_exn "status" "tasks_done" j)));
  check_int "tasks_total" 16 (Option.get (J.to_int (member_exn "status" "tasks_total" j)));
  (* rate so far: 4 tasks in 8s -> 2s/task -> 12 remaining = 24s *)
  check_float "eta from the observed rate" 24.0
    (Option.get (J.to_float (member_exn "status" "eta_s" j)));
  let verdicts = member_exn "status" "verdicts" j in
  check_int "verdict carried" 3
    (Option.get (J.to_int (member_exn "status" "detected" verdicts)));
  (* no progress yet: the ETA is unknowable, not infinite *)
  let early = parse_ok "early" (Obs.status_json ~tasks_done:0 ~tasks_total:5 ~elapsed_s:1.0 ()) in
  check_bool "eta null before the first task" true (member_exn "early" "eta_s" early = J.Null);
  let done_ = parse_ok "done" (Obs.status_json ~tasks_done:5 ~tasks_total:5 ~elapsed_s:9.0 ()) in
  check_float "eta 0 when complete" 0.0
    (Option.get (J.to_float (member_exn "done" "eta_s" done_)))

(* -- the bench regression gate -------------------------------------------- *)

(* a BENCHMARK.json in miniature: two gated workloads, three metrics,
   RSS with the tighter bound *)
let spec_with ?(jobs_better = "higher") () =
  Printf.sprintf
    {|{"workloads":[{"name":"tenant-burst"},{"name":"resume-chain"}],
"end_to_end":[{"name":"jobs_per_s","better":"%s","bound":0.25},
{"name":"latency_p50_s","better":"lower","bound":0.25},
{"name":"rss_peak_mib","better":"lower","bound":0.2}]}|}
    jobs_better

let spec = spec_with ()

(* one side of a perfbench result, holding [workloads] (paper-sweep is
   measured but not in the spec); [value w metric v] perturbs one
   metric of one workload *)
let side ?(correct = fun _ -> true) ?(failed = fun _ -> 0) ?(value = fun _ _ v -> v)
    ?(workloads = [ "tenant-burst"; "resume-chain"; "paper-sweep" ]) () =
  let metric w (name, v) =
    Printf.sprintf {|"%s":{"value":%s,"unit":"u"}|} name (J.number (value w name v))
  in
  let cell w =
    Printf.sprintf {|"%s":{"correct":%b,"attempted":100,"failed":%d,"metrics":{%s}}|} w
      (correct w) (failed w)
      (String.concat ","
         (List.map (metric w) [ ("jobs_per_s", 10.); ("latency_p50_s", 1.); ("rss_peak_mib", 100.) ]))
  in
  Printf.sprintf "{%s}" (String.concat "," (List.map cell workloads))

let base = side ()

let traj ?(schema = "perfbench-trajectory/v1") ?(parent = base) ?(change = base) () =
  Printf.sprintf {|{"schema":"%s","parent":%s,"change":%s}|} schema parent change

let scale w0 m0 k w m v = if w = w0 && m = m0 then v *. k else v

let diff_exn ?(spec = spec) json =
  match BC.diff ~spec json with Ok o -> o | Error e -> Alcotest.failf "diff failed: %s" e

(* does a change side with [value] regress against the unperturbed parent? *)
let regressed ?spec value = (diff_exn ?spec (traj ~change:(side ~value ()) ())).BC.o_regressed

let test_compare_thresholds () =
  let o = diff_exn (traj ()) in
  check_bool "identical sides pass" false o.BC.o_regressed;
  check_int "2 gated workloads x 3 metrics" 6 (List.length o.BC.o_metrics);
  check_bool "jobs/s -30% regresses (higher is better)" true
    (regressed (scale "tenant-burst" "jobs_per_s" 0.7));
  check_bool "jobs/s +50% does not" false (regressed (scale "tenant-burst" "jobs_per_s" 1.5));
  check_bool "direction read from better" true
    (regressed ~spec:(spec_with ~jobs_better:"lower" ()) (scale "tenant-burst" "jobs_per_s" 1.5));
  check_bool "RSS +22% regresses (bound 0.2)" true
    (regressed (scale "resume-chain" "rss_peak_mib" 1.22));
  check_bool "p50 +22% does not (bound 0.25)" false
    (regressed (scale "resume-chain" "latency_p50_s" 1.22));
  let o = diff_exn (traj ~change:(side ~value:(scale "resume-chain" "rss_peak_mib" 1.22) ()) ()) in
  let m = List.find (fun m -> m.BC.m_regressed) o.BC.o_metrics in
  check_string "the RSS cell" "resume-chain" m.BC.m_cell;
  check_float "its bound" 20.0 m.BC.m_bound_pct;
  check_float "signed delta, positive = worse" 22.0 m.BC.m_delta_pct;
  check_float "the parent side is OLD" 100.0 m.BC.m_old;
  check_bool "a workload absent from the spec is ignored" false
    (regressed (scale "paper-sweep" "rss_peak_mib" 10.));
  (* the change is gated against its own parent, whatever its values *)
  let slow_parent = side ~value:(scale "tenant-burst" "jobs_per_s" 0.5) () in
  check_bool "a change faster than its parent passes" false
    (diff_exn (traj ~parent:slow_parent ())).BC.o_regressed;
  check_bool "a parent faster than its change regresses" true
    (diff_exn (traj ~change:slow_parent ())).BC.o_regressed

let test_compare_zero_parent () =
  (* every parent job failed: jobs/s 0 -> 10 is an improvement *)
  let value w m v = if w = "tenant-burst" && m = "jobs_per_s" then 0. else v in
  let o = diff_exn (traj ~parent:(side ~value ~failed:(fun _ -> 100) ()) ()) in
  check_bool "0 -> positive, higher is better: no regression" false o.BC.o_regressed;
  let m =
    List.find (fun m -> m.BC.m_name = "jobs_per_s" && m.BC.m_cell = "tenant-burst") o.BC.o_metrics
  in
  check_bool "delta is -inf" true (m.BC.m_delta_pct = neg_infinity);
  let value w m v = if w = "resume-chain" && m = "latency_p50_s" then 0. else v in
  check_bool "0 -> positive, lower is better: regression" true
    (diff_exn (traj ~parent:(side ~value ()) ())).BC.o_regressed;
  check_bool "0 -> 0 is no change" false
    (diff_exn (traj ~parent:(side ~value ()) ~change:(side ~value ()) ())).BC.o_regressed

let test_compare_missing_and_mismatch () =
  List.iter
    (fun (what, spec, json) ->
      match BC.diff ~spec json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ( "a gated workload missing from the change side",
        spec,
        traj ~change:(side ~workloads:[ "tenant-burst"; "paper-sweep" ] ()) () );
      ( "a gated workload missing from the parent side",
        spec,
        traj ~parent:(side ~workloads:[ "resume-chain" ] ()) () );
      ("another schema", spec, traj ~schema:"cheri_c.bench/v2" ());
      ( "a legacy document",
        spec,
        {|{"schema":"cheri_c.bench/v2",
"results":[{"workload":"dhry","abi":"A","cycles":1000,"instret":1000}]}|}
      );
      ("malformed JSON", spec, "{not json");
      ("a malformed spec", "{not json", traj ());
      ("a spec without end_to_end", {|{"workloads":[{"name":"x"}]}|}, traj ());
      ( "a metric that is not a number",
        spec,
        traj
          ~change:
            {|{"tenant-burst":{"correct":true,"attempted":1,"failed":0,
"metrics":{"jobs_per_s":{"value":"fast"}}}}|}
          () );
    ];
  (* an incorrect change or a larger failed share regresses *)
  let o = diff_exn (traj ~change:(side ~correct:(fun w -> w <> "tenant-burst") ()) ()) in
  check_bool "correct:false regresses" true (o.BC.o_regressed && o.BC.o_failures <> []);
  check_bool "an incorrect parent does not" false
    (diff_exn (traj ~parent:(side ~correct:(fun w -> w <> "tenant-burst") ()) ())).BC.o_regressed;
  let failing w = if w = "resume-chain" then 1 else 0 in
  check_bool "a larger failed share regresses" true
    (diff_exn (traj ~change:(side ~failed:failing ()) ())).BC.o_regressed;
  let both = side ~failed:failing () in
  check_bool "an equal failed share does not" false
    (diff_exn (traj ~parent:both ~change:both ())).BC.o_regressed;
  check_bool "paper-sweep's correctness is not gated" false
    (diff_exn (traj ~change:(side ~correct:(fun w -> w <> "paper-sweep") ()) ())).BC.o_regressed

let test_compare_doctor_worsen () =
  (* the BENCH_PR16 shape: a change far better than its parent (RSS 590
     -> 66 MiB), so worsening the change side alone would not bite *)
  let parent =
    side
      ~value:(fun _ m v ->
        match m with "rss_peak_mib" -> 5.9 *. v | "jobs_per_s" -> 0.5 *. v | _ -> 2. *. v)
      ()
  in
  let change = side ~value:(fun _ m v -> if m = "rss_peak_mib" then 0.66 *. v else v) () in
  let json = traj ~parent ~change () in
  check_bool "the file itself passes" false (diff_exn json).BC.o_regressed;
  let doctored, factor =
    match BC.doctor_worsen ~spec json with
    | Ok r -> r
    | Error e -> Alcotest.failf "doctor_worsen failed: %s" e
  in
  ignore (parse_ok "doctored report" doctored);
  let o = diff_exn doctored in
  check_int "all 6 gated metrics" 6 (List.length o.BC.o_metrics);
  check_bool "every gated metric regressed" true
    (List.for_all (fun m -> m.BC.m_regressed) o.BC.o_metrics);
  check_bool "the doctored parent is the change side" true
    (List.for_all
       (fun m -> m.BC.m_name <> "rss_peak_mib" || m.BC.m_old = 66.)
       o.BC.o_metrics);
  (* past the largest bound: a factor under it leaves metrics unflagged *)
  check_bool "factor past every bound" true (factor > 0.25);
  let mild, _ = Result.get_ok (BC.doctor_worsen ~factor:0.15 ~spec json) in
  check_bool "15% flags nothing" false (diff_exn mild).BC.o_regressed;
  (* against the far worse parent, the worsened change still passes *)
  let worse _ m v =
    match m with
    | "rss_peak_mib" -> 0.66 *. v *. (1. +. factor)
    | "jobs_per_s" -> v *. (1. -. factor)
    | _ -> v *. (1. +. factor)
  in
  let change_only = traj ~parent ~change:(side ~value:worse ()) () in
  check_bool "worsening only the change side would not bite" false
    (diff_exn change_only).BC.o_regressed;
  match BC.doctor_worsen ~spec (traj ~schema:"cheri_c.bench/v2" ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "doctored a foreign schema"

let suite =
  [
    Alcotest.test_case "counters, gauges, interning" `Quick test_counters_and_interning;
    Alcotest.test_case "null registry is a no-op" `Quick test_null_registry_is_noop;
    Alcotest.test_case "histogram bucket math" `Quick test_histogram_bucket_math;
    Alcotest.test_case "exact sample quantiles" `Quick test_quantile_of_exact;
    Alcotest.test_case "shard merge is jobs-deterministic" `Quick test_shard_merge_determinism;
    Alcotest.test_case "span nesting and parent links" `Quick test_span_nesting;
    Alcotest.test_case "jsonl export round-trips" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "prometheus export line-valid" `Quick test_prometheus_roundtrip;
    Alcotest.test_case "heartbeat atomic write" `Quick test_heartbeat_atomic_write;
    Alcotest.test_case "heartbeat interval + force" `Quick test_heartbeat_interval;
    Alcotest.test_case "heartbeat staleness boundaries + clock skew" `Quick
      test_heartbeat_staleness;
    Alcotest.test_case "heartbeat probe on real files" `Quick test_heartbeat_probe;
    Alcotest.test_case "status payload" `Quick test_status_json;
    Alcotest.test_case "compare thresholds" `Quick test_compare_thresholds;
    Alcotest.test_case "compare zero parent value takes the direction" `Quick
      test_compare_zero_parent;
    Alcotest.test_case "compare missing cells + mismatches" `Quick
      test_compare_missing_and_mismatch;
    Alcotest.test_case "compare gate bites on doctored report" `Quick
      test_compare_doctor_worsen;
  ]
