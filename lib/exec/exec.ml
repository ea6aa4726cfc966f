(* Parallel execution engine for bench sweeps and fuzz campaigns.

   The evaluation is embarrassingly parallel: every (workload x ABI)
   cell of the tables/figures and every fuzz seed is an independent run
   whose state — machine, heap, telemetry sink — is created per run.
   [Pool.map] fans such tasks over a fixed-size pool of OCaml 5
   domains with:

   - deterministic result ordering: results are keyed by submission
     index, so a 1-domain and an N-domain run of the same task list
     produce identical ordered results;
   - fault capture: an exception escaping a worker becomes a structured
     per-task error, never takes down the sweep or the other tasks
     (skip-and-record degradation);
   - bounded retry with seeded decorrelated-jitter backoff, for faults
     that are transient at the host level (fd exhaustion, OOM-killed
     child state) rather than deterministic task bugs;
   - per-task wall-clock timing, so sweeps can report an honest
     serial-time / wall-time speedup;
   - an [on_result] progress hook, serialized across domains, that
     campaigns use to append checkpoint records as tasks finish.

   [Pool.map_sliced] is the preemptive variant: tasks advance in
   bounded slices through a shared FIFO, so one enormous task cannot
   monopolize a worker while short tasks starve behind it, and a
   campaign can persist a checkpoint at every yield point. *)

module Obs = Cheri_obs.Obs

module Pool = struct
  type error = { task : int; exn : string; backtrace : string }
  (** a worker exception, attributed to the task that raised it *)

  type 'a cell = {
    index : int;  (** submission index: position in the input list *)
    result : ('a, error) result;
    elapsed_s : float;  (** wall-clock spent on this task alone, all attempts *)
    attempts : int;  (** 1 unless retries were needed *)
    slices : int;
        (** slice executions; under {!map}, one per attempt *)
  }

  exception Worker_failed of error

  (* Modest default: sweeps are memory-bandwidth-heavy simulations, so
     past a handful of domains the extra cores mostly contend. *)
  let default_jobs () = max 1 (min 4 (Domain.recommended_domain_count ()))

  let now = Unix.gettimeofday

  (* --- retry backoff ------------------------------------------------ *)

  (* SplitMix64, inlined (the seeded RNG of the fault campaigns lives in
     a library that depends on this one). Good enough to decorrelate
     sleep intervals; not used for anything statistical. *)
  let sm64 x =
    let open Int64 in
    let z = add x 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let unit_float ~seed ~task ~attempt =
    let h = sm64 (Int64.of_int seed) in
    let h = sm64 (Int64.logxor h (Int64.of_int task)) in
    let h = sm64 (Int64.logxor h (Int64.of_int attempt)) in
    Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

  (* Decorrelated jitter (the "AWS architecture blog" variant): each
     pause is uniform in [base, 3 * previous pause], capped at 64x the
     base. Compared with pure exponential doubling this spreads
     simultaneous retries apart — when a host-level fault (fd
     exhaustion, memory pressure) hits several workers at once, they
     come back staggered instead of in lockstep. The function is pure
     in (seed, task, attempt), so a retry schedule is reproducible and
     testable without sleeping. *)
  let backoff_duration ?cap_s ~base_s ~seed ~task ~attempt () =
    if base_s <= 0. || attempt < 1 then 0.
    else begin
      let cap =
        match cap_s with
        | Some c when c > 0. -> Float.max base_s c
        | _ -> 64. *. base_s
      in
      let prev = ref base_s in
      for a = 1 to attempt do
        let u = unit_float ~seed ~task ~attempt:a in
        let hi = Float.max base_s (3. *. !prev) in
        prev := Float.min cap (base_s +. (u *. (hi -. base_s)))
      done;
      !prev
    end

  (* --- shared plumbing ---------------------------------------------- *)

  (* metric handles resolved once per map call, not per task; counter
     values (tasks, retries, slices) are jobs-independent by
     construction — only the histograms carry wall time *)
  type pool_metrics = {
    pm_tasks : Obs.Counter.t;
    pm_retries : Obs.Counter.t;
    pm_slices : Obs.Counter.t;
    pm_retry_events : Obs.Counter.t;
        (* like pm_retries but incremented at retry time, not when the
           task's cell is recorded — a supervisor watching the registry
           mid-campaign sees retries as they happen *)
    pm_requeues : Obs.Counter.t;
        (* one increment per Yield that sends a task to the back of the
           queue; chaos harnesses bound "slices lost to a crash" from
           this and the per-cell slice counts alone *)
    pm_wait : Obs.Histogram.t;
    pm_wall : Obs.Histogram.t;
  }

  let pool_metrics obs =
    {
      pm_tasks = Obs.counter obs "pool_tasks_total";
      pm_retries = Obs.counter obs "pool_task_retries_total";
      pm_slices = Obs.counter obs "pool_task_slices_total";
      pm_retry_events = Obs.counter obs "pool_retries_total";
      pm_requeues = Obs.counter obs "pool_requeues_total";
      pm_wait = Obs.histogram obs "pool_queue_wait_seconds";
      pm_wall = Obs.histogram obs "pool_task_seconds";
    }

  let observe_cell pm cell =
    Obs.Counter.incr pm.pm_tasks;
    if cell.attempts > 1 then Obs.Counter.incr ~by:(cell.attempts - 1) pm.pm_retries;
    Obs.Counter.incr ~by:cell.slices pm.pm_slices;
    Obs.Histogram.observe pm.pm_wall cell.elapsed_s

  let serialize_hook on_result =
    match on_result with
    | None -> fun _ -> ()
    | Some hook ->
        let m = Mutex.create () in
        fun cell -> Mutex.protect m (fun () -> hook cell)

  let spawn_workers ~jobs ~n worker =
    if jobs <= 1 || n <= 1 then worker ()
    else begin
      (* results slots are disjoint per task and Domain.join gives the
         happens-before edge that publishes them to this domain *)
      let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
      List.iter Domain.join domains
    end

  let collect results =
    Array.to_list results
    |> List.map (function
         | Some cell -> cell
         | None -> assert false (* every index is claimed exactly once *))

  (* --- the preemptive engine (map_sliced) --------------------------- *)

  type ('s, 'r) progress = Yield of 's | Done of 'r

  type ('t, 's) job = {
    j_index : int;
    j_task : 't;
    mutable j_state : 's option;  (** [None] until [init] has run *)
    mutable j_attempts : int;
    mutable j_slices : int;
    mutable j_elapsed : float;
    mutable j_ready : float;  (** when the job last entered the queue *)
  }

  let new_job i task ready =
    { j_index = i; j_task = task; j_state = None; j_attempts = 1; j_slices = 0; j_elapsed = 0.;
      j_ready = ready }

  let cell_of job result =
    { index = job.j_index; result; elapsed_s = job.j_elapsed; attempts = job.j_attempts;
      slices = job.j_slices }

  (* Advance one job by one slice and route it: back of the queue on
     Yield, the result sink on Done or a spent retry budget, back to
     [init] (via the queue) on a fault with budget left. Shared by
     [map_sliced] (fixed task list) and [Stream] (live submissions) so
     the two engines cannot drift in retry/requeue/metrics semantics. *)
  let slice_step ~retries ~backoff_s ~backoff_seed ~pm ~init ~slice ~push ~record job =
    let t0 = now () in
    Obs.Histogram.observe pm.pm_wait (t0 -. job.j_ready);
    let attempt =
      try
        let s =
          match job.j_state with
          | Some s -> s
          | None ->
              let s = init job.j_task in
              job.j_state <- Some s;
              s
        in
        job.j_slices <- job.j_slices + 1;
        Ok (slice s)
      with e ->
        let backtrace = Printexc.get_backtrace () in
        Error
          {
            task = job.j_index;
            exn = Printexc.to_string e ^ Printf.sprintf " (attempt %d)" job.j_attempts;
            backtrace;
          }
    in
    job.j_elapsed <- job.j_elapsed +. (now () -. t0);
    match attempt with
    | Ok (Yield s') ->
        job.j_state <- Some s';
        Obs.Counter.incr pm.pm_requeues;
        push job
    | Ok (Done r) -> record job (Ok r)
    | Error e when job.j_attempts > retries -> record job (Error e)
    | Error _ ->
        Obs.Counter.incr pm.pm_retry_events;
        let pause =
          backoff_duration ~base_s:backoff_s ~seed:backoff_seed ~task:job.j_index
            ~attempt:job.j_attempts ()
        in
        if pause > 0. then Unix.sleepf pause;
        job.j_attempts <- job.j_attempts + 1;
        job.j_state <- None;
        push job

  (* [map_sliced ~init ~slice tasks] drives every task through
     repeated bounded [slice] calls instead of one run-to-completion
     call. A worker pops a task from the shared FIFO, advances it by
     exactly one slice, and on [Yield] pushes it to the back of the
     queue — so with T live tasks every task gets roughly every T-th
     slice (round-robin fair share), regardless of how long each task
     ultimately runs. [init] builds the per-task state (e.g. compile +
     create a machine); an exception from [init] or [slice] consumes
     one attempt, and a retry starts over from [init] — a half-advanced
     state is never resumed after a fault, because the fault may have
     corrupted it.

     Workers exit when they find the queue empty. That is safe: a task
     is either in the queue or held by exactly one worker, and the
     holder pushes it back (or records its cell) before popping again —
     so the last worker holding work drains it to completion. The tail
     of a sweep may therefore run on fewer domains than [jobs]; that
     costs only parallelism, never results.

     Determinism: cells come back in submission order, and each task's
     result depends only on its own init/slice sequence — so for
     deterministic tasks the results are bit-identical for every
     (jobs, slice-granularity) choice. *)
  let map_sliced ?(jobs = 1) ?(retries = 0) ?(backoff_s = 0.05) ?(backoff_seed = 0)
      ?(obs = Obs.default) ?on_result ~init ~slice tasks : 'r cell list =
    let inputs = Array.of_list tasks in
    let n = Array.length inputs in
    let results = Array.make n None in
    if n > 0 then begin
      let on_result = serialize_hook on_result in
      let pm = pool_metrics obs in
      let q = Queue.create () in
      let qm = Mutex.create () in
      let t_fill = now () in
      Array.iteri (fun i task -> Queue.push (new_job i task t_fill) q) inputs;
      let pop () =
        Mutex.protect qm (fun () -> if Queue.is_empty q then None else Some (Queue.pop q))
      in
      let push job =
        job.j_ready <- now ();
        Mutex.protect qm (fun () -> Queue.push job q)
      in
      let record job result =
        let cell = cell_of job result in
        observe_cell pm cell;
        results.(job.j_index) <- Some cell;
        on_result cell
      in
      let worker () =
        let rec drain () =
          match pop () with
          | None -> ()
          | Some job ->
              slice_step ~retries ~backoff_s ~backoff_seed ~pm ~init ~slice ~push ~record job;
              drain ()
        in
        drain ()
      in
      spawn_workers ~jobs ~n worker
    end;
    collect results

  (* [map ~jobs f tasks] runs [f] over every task on up to [jobs]
     domains (default 1: sequential, in the calling domain — callers
     opt in to parallelism) and returns the cells in submission order.
     It is [map_sliced] over one-slice tasks, so the two engines share
     one queue, one retry path and one set of metrics. A failing task
     is retried up to [retries] times (default 0) with
     decorrelated-jitter backoff starting at [backoff_s]; the surviving
     error never aborts the map. [on_result] fires once per finished
     task, serialized under one mutex, in completion (not submission)
     order. *)
  let map ?jobs ?retries ?backoff_s ?backoff_seed ?obs ?on_result f tasks : 'a cell list =
    map_sliced ?jobs ?retries ?backoff_s ?backoff_seed ?obs ?on_result ~init:Fun.id
      ~slice:(fun t -> Done (f t))
      tasks

  (* --- the dynamic preemptive engine (Stream) ----------------------- *)

  (* [map_sliced] needs the whole task list up front; a long-running
     service does not have one — tenants arrive over a socket while
     earlier tenants are mid-flight. [Stream] is the same sliced
     round-robin engine with a live submission side: domains are
     spawned at [create], [submit] enqueues a task at any later time,
     and [close] waits for the queue to drain. Results leave through
     [on_result] only (there is no final list to collect), serialized
     under one mutex exactly like the map engines. *)
  module Stream = struct
    type ('t, 's, 'r) t = {
      st_mu : Mutex.t;
      st_nonempty : Condition.t;
      st_q : ('t, 's) job Queue.t;
      mutable st_closed : bool;
      mutable st_next : int;  (* submission indices, 0-based *)
      mutable st_live : int;  (* submitted and not yet recorded *)
      mutable st_domains : unit Domain.t list;
    }

    let submit t task =
      Mutex.protect t.st_mu (fun () ->
          if t.st_closed then invalid_arg "Pool.Stream.submit: stream is closed";
          let i = t.st_next in
          t.st_next <- i + 1;
          t.st_live <- t.st_live + 1;
          Queue.push (new_job i task (now ())) t.st_q;
          Condition.signal t.st_nonempty;
          i)

    let live t = Mutex.protect t.st_mu (fun () -> t.st_live)

    let create ?(jobs = 1) ?(retries = 0) ?(backoff_s = 0.05) ?(backoff_seed = 0)
        ?(obs = Obs.default) ~init ~slice ~on_result () =
      let pm = pool_metrics obs in
      let on_result = serialize_hook (Some on_result) in
      let t =
        {
          st_mu = Mutex.create ();
          st_nonempty = Condition.create ();
          st_q = Queue.create ();
          st_closed = false;
          st_next = 0;
          st_live = 0;
          st_domains = [];
        }
      in
      let push job =
        job.j_ready <- now ();
        Mutex.protect t.st_mu (fun () ->
            Queue.push job t.st_q;
            Condition.signal t.st_nonempty)
      in
      let record job result =
        let cell = cell_of job result in
        observe_cell pm cell;
        on_result cell;
        Mutex.protect t.st_mu (fun () ->
            t.st_live <- t.st_live - 1;
            (* the last record under a closed stream releases every
               worker parked on the condition *)
            if t.st_closed && t.st_live = 0 then Condition.broadcast t.st_nonempty)
      in
      let advance job =
        slice_step ~retries ~backoff_s ~backoff_seed ~pm ~init ~slice ~push ~record job
      in
      let worker () =
        let rec next () =
          let job =
            Mutex.protect t.st_mu (fun () ->
                let rec wait () =
                  if not (Queue.is_empty t.st_q) then Some (Queue.pop t.st_q)
                  else if t.st_closed && t.st_live = 0 then None
                  else begin
                    (* live jobs may be held by other workers and come
                       back to the queue; wait for a push, a record, or
                       close *)
                    Condition.wait t.st_nonempty t.st_mu;
                    wait ()
                  end
                in
                wait ())
          in
          match job with
          | None -> ()
          | Some job ->
              advance job;
              next ()
        in
        next ()
      in
      t.st_domains <- List.init (max 1 jobs) (fun _ -> Domain.spawn worker);
      t

    let close t =
      Mutex.protect t.st_mu (fun () ->
          t.st_closed <- true;
          Condition.broadcast t.st_nonempty);
      List.iter Domain.join t.st_domains
  end

  let get cell = match cell.result with Ok v -> v | Error e -> raise (Worker_failed e)
  let serial_seconds cells = List.fold_left (fun acc c -> acc +. c.elapsed_s) 0. cells

  let pp_error ppf e =
    Format.fprintf ppf "task %d raised %s" e.task e.exn;
    if String.trim e.backtrace <> "" then Format.fprintf ppf "@.%s" e.backtrace
end

(* Wall-clock a thunk; the companion to [Pool.serial_seconds] when
   reporting sweep speedups. *)
let wall f =
  let t0 = Pool.now () in
  let v = f () in
  (v, Pool.now () -. t0)

let () =
  (* worker backtraces are only useful if the runtime records them *)
  Printexc.record_backtrace true
