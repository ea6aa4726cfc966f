(* Running an operation stream and turning its samples into the
   end-to-end metrics. *)

open Common

(* One completed operation: when it started and ended on the
   benchmark's clock (Common.now, or the service clock), the simulated
   instructions it retired, and whether its stream was at a boundary
   after it. *)
type sample = { s_start : float; s_end : float; s_instret : int; s_boundary : bool }

(* An in-process workload's operations, in seed order. [step] performs
   the next one; [boundary] says whether a run may stop after it (whole
   passes, whole chains). [abandon] drops any half-done state after a
   step raised. *)
type stream = { step : unit -> int; boundary : unit -> bool; abandon : unit -> unit }

(* [t0] is the start on the benchmark's clock; [wall_s] and [clock_s]
   are how long the timed region took in wall time and on that clock. *)
type outcome = {
  t0 : float;
  samples : sample array;
  attempted : int;
  failed : int;
  wall_s : float;
  clock_s : float;
}

(* Every run completes at least this many operations. *)
let min_ops = 100

type until = Seconds of float | Ops of int

(* Run [s] until [until] is met at a boundary; a step that raises is a
   failed operation. [Seconds] counts wall time. *)
let drive until s =
  let t0 = now () and w0 = wall () in
  let acc = ref [] and n = ref 0 and failed = ref 0 in
  let enough () =
    match until with
    | Ops k -> !n >= k
    | Seconds sec -> !n >= min_ops && wall () -. w0 >= sec
  in
  while not (enough () && s.boundary ()) do
    Trace.op := !n;
    let a = now () in
    (match s.step () with
    | k ->
        let e = now () in
        acc := { s_start = a; s_end = e; s_instret = k; s_boundary = s.boundary () } :: !acc;
        Speed.tick ()
    | exception (Check_failed _ as e) -> raise e
    | exception e ->
        incr failed;
        if !failed <= 3 then prerr_endline ("perfbench: operation failed: " ^ Printexc.to_string e);
        s.abandon ());
    incr n
  done;
  Trace.op := -1;
  {
    t0;
    samples = Array.of_list (List.rev !acc);
    attempted = !n;
    failed = !failed;
    wall_s = wall () -. w0;
    clock_s = now () -. t0;
  }

(* -- metrics --------------------------------------------------------------- *)

type e2e = {
  setup_s : float;
  jobs_per_s : float;
  latency_p50_s : float;
  latency_tail : float * float * int;  (** value, percentile, samples *)
  sim_minsn_per_s : float;
  rss_peak_mib : float;
  busy_frac : float;  (** clock time over wall time in the timed region *)
  scale : float;  (** Speed.scale: every timing above is multiplied by it *)
  user_frac : float;  (** user share of the work's CPU time *)
  attempted : int;
  failed : int;
  instret : int;  (** exact: simulated instructions retired in the timed region *)
}

(* Throughput is measured per window and reported as the median
   window, so a few seconds of host interference move it less than a
   whole-run average would. A window closes at every [window]-th
   boundary in completion order (whole passes, whole chains), so each
   window holds a like mix of operations. *)
let jobs_rate ~window (o : outcome) =
  let done_ = Array.map (fun s -> (s.s_end, s.s_boundary)) o.samples in
  Array.sort compare done_;
  let rates = ref [] and start = ref o.t0 and ops = ref 0 and marks = ref 0 in
  Array.iter
    (fun (t, boundary) ->
      incr ops;
      if boundary then incr marks;
      if !marks = window then begin
        rates := (float_of_int !ops /. (t -. !start)) :: !rates;
        start := t;
        ops := 0;
        marks := 0
      end)
    done_;
  match !rates with
  | [] ->
      (* fewer than [window] boundaries: the whole run is one window *)
      let n = Array.length done_ in
      float_of_int n /. (fst done_.(n - 1) -. o.t0)
  | rs -> median rs

(* [insns_per_op], when given, replaces the samples' own instruction
   counts in sim_minsn_per_s. Timings are scaled to the reference
   host's speed by Speed.scale, given [work], the user and system CPU
   seconds of the processes that did the work. *)
let e2e ?insns_per_op ~window ~setup_s ~rss_peak_mib ~work:(user, sys) (o : outcome) =
  if Array.length o.samples < min_ops then
    fail "only %d operations completed, fewer than %d" (Array.length o.samples) min_ops;
  let scale = Speed.scale ~user ~sys in
  let lat = Array.to_list (Array.map (fun s -> scale *. (s.s_end -. s.s_start)) o.samples) in
  let jobs_per_s = jobs_rate ~window o /. scale in
  let instret = Array.fold_left (fun a s -> a + s.s_instret) 0 o.samples in
  {
    setup_s = scale *. setup_s;
    jobs_per_s;
    latency_p50_s = median lat;
    latency_tail = tail lat;
    (* operations per second times instructions per operation: the
       instruction mix of one window varies with which operations fell
       in it, the mix of the whole run far less *)
    sim_minsn_per_s =
      (let per_op =
         match insns_per_op with
         | Some k -> k
         | None -> float_of_int instret /. float_of_int (Array.length o.samples)
       in
       jobs_per_s *. per_op /. 1e6);
    rss_peak_mib;
    busy_frac = o.clock_s /. o.wall_s;
    scale;
    user_frac = user /. (user +. sys);
    attempted = o.attempted;
    failed = o.failed;
    instret;
  }

(* Run [body] on a fresh set-up and return its result with the set-up
   time: the median of [before] set-ups, the last of which [body] uses,
   and [after] more once [body] is done. Host speed drifts over seconds,
   so set-ups at both ends of the run keep the median from catching one
   slow stretch. Each set-up starts on a compacted heap, so garbage an
   earlier one left (warm-up machines of 32 MiB) is not collected inside
   a later one. A Speed probe precedes each set-up, so the host's
   speed is sampled across the whole run. [clock None] reads the clock before a set-up exists and
   [clock (Some st)] once [st] is set up; the default is Common.now. *)
let with_setups ?(before = 3) ?(after = 2) ?(clock = fun _ -> now ()) ~setup ~teardown body =
  let timed () =
    Gc.compact ();
    Speed.probe ();
    let t = clock None in
    let st = setup () in
    (st, clock (Some st) -. t)
  in
  let spare () =
    let st, dt = timed () in
    teardown st;
    dt
  in
  let early = List.init (before - 1) (fun _ -> spare ()) in
  let st, dt = timed () in
  let r = Fun.protect ~finally:(fun () -> teardown st) (fun () -> body st) in
  let late = List.init after (fun _ -> spare ()) in
  (r, median ((dt :: early) @ late))
