(** Parallel execution engine for bench sweeps and fuzz campaigns.

    Tasks are independent (workload x ABI) runs; {!Pool.map} fans them
    over OCaml 5 domains with deterministic result ordering, structured
    fault capture, bounded seeded-jitter retry and per-task timing.
    {!Pool.map_sliced} adds preemptive time-slicing: tasks advance in
    bounded slices through a shared round-robin queue, so long tasks
    cannot starve short ones and campaigns can checkpoint at every
    yield point. *)

module Pool : sig
  type error = { task : int; exn : string; backtrace : string }
  (** a worker exception, attributed to the task that raised it *)

  type 'a cell = {
    index : int;  (** submission index: position in the input list *)
    result : ('a, error) result;
    elapsed_s : float;
        (** wall-clock spent on this task alone, all attempts/slices *)
    attempts : int;  (** 1 unless retries were needed *)
    slices : int;
        (** slice executions; under {!map}, one per attempt *)
  }

  exception Worker_failed of error

  val default_jobs : unit -> int
  (** [min 4 (Domain.recommended_domain_count ())], at least 1. *)

  val now : unit -> float
  (** [Unix.gettimeofday]; exposed for callers that time around a map. *)

  val backoff_duration :
    ?cap_s:float -> base_s:float -> seed:int -> task:int -> attempt:int -> unit -> float
  (** The pause taken before retry [attempt] (1-based) of [task]:
      decorrelated jitter, each pause uniform in [\[base_s, 3 x previous\]]
      and capped at [cap_s] (default [64 x base_s]; a non-positive
      [cap_s] falls back to the default, and a [cap_s] below [base_s]
      clamps to [base_s]). The cap is an explicit contract, not an
      artifact of the curve: no (seed, task, attempt) can quote a pause
      above it, so a caller that surfaces these pauses as client-facing
      retry-after hints can bound the worst hint it will ever emit.
      Pure in its arguments, so a retry schedule is reproducible across
      runs and testable without sleeping. Returns 0 when
      [base_s <= 0]. *)

  val map :
    ?jobs:int ->
    ?retries:int ->
    ?backoff_s:float ->
    ?backoff_seed:int ->
    ?obs:Cheri_obs.Obs.t ->
    ?on_result:('a cell -> unit) ->
    ('t -> 'a) ->
    't list ->
    'a cell list
  (** Run the function over every task on up to [jobs] domains
      (default 1: sequential in the calling domain) and return cells in
      submission order. A failing task is retried up to [retries] times
      (default 0), pausing {!backoff_duration} seconds between attempts
      ([backoff_s] base, default 0.05 s; [backoff_seed] decorrelates
      schedules across runs, default 0); the surviving error is
      recorded, never raised. [on_result] fires once per finished task,
      serialized under a mutex, in completion order. This is
      {!map_sliced} over one-slice tasks; a retried task re-enters the
      queue behind the tasks already waiting.

      [obs] (default {!Cheri_obs.Obs.default}) receives the pool
      metrics: [pool_tasks_total], [pool_task_retries_total] and
      [pool_task_slices_total] counters (values independent of [jobs])
      plus [pool_queue_wait_seconds] and [pool_task_seconds]
      histograms. Two live-progress counters ride along for watchers
      that read the registry mid-run: [pool_retries_total] ticks at the
      moment a retry is decided (not when the task's cell is finally
      recorded) and [pool_requeues_total] ticks every time a sliced
      task yields back to the queue — together with per-cell [slices]
      they let a chaos harness bound "work lost to a crash" from
      metrics alone. *)

  (** What one slice of work produced: either an updated state to
      continue from, or the task's final result. *)
  type ('s, 'r) progress = Yield of 's | Done of 'r

  val map_sliced :
    ?jobs:int ->
    ?retries:int ->
    ?backoff_s:float ->
    ?backoff_seed:int ->
    ?obs:Cheri_obs.Obs.t ->
    ?on_result:('r cell -> unit) ->
    init:('t -> 's) ->
    slice:('s -> ('s, 'r) progress) ->
    't list ->
    'r cell list
  (** Preemptive {!map}: [init] builds a task's state, and the engine
      then advances tasks one bounded [slice] call at a time through a
      shared FIFO — a task that yields goes to the back of the queue,
      so live tasks share the workers round-robin regardless of their
      total length. Retry semantics match {!map}, with one rule: a
      retry restarts from [init] (a state that faulted mid-slice is
      never resumed). For deterministic tasks the returned cells are
      bit-identical for every (jobs, slice-granularity) choice; only
      [elapsed_s] varies. *)

  (** The dynamic preemptive engine: {!map_sliced} semantics without a
      fixed task list. A long-running service submits tasks as they
      arrive over the wire while earlier tasks are mid-slice; domains
      are spawned once at {!Stream.create} and park on a condition
      variable when idle. *)
  module Stream : sig
    type ('t, 's, 'r) t

    val create :
      ?jobs:int ->
      ?retries:int ->
      ?backoff_s:float ->
      ?backoff_seed:int ->
      ?obs:Cheri_obs.Obs.t ->
      init:('t -> 's) ->
      slice:('s -> ('s, 'r) progress) ->
      on_result:('r cell -> unit) ->
      unit ->
      ('t, 's, 'r) t
    (** Spawn [max 1 jobs] worker domains (the caller's domain is never
        a worker — it stays free to feed the stream) sharing one FIFO.
        Slice, retry, requeue and metrics semantics are {e the same
        code} as {!map_sliced}. [on_result] is the only result channel
        (cells stream out in completion order, serialized under one
        mutex); cell [index] is the value {!submit} returned. *)

    val submit : ('t, 's, 'r) t -> 't -> int
    (** Enqueue a task; returns its submission index. The task may
        start — and even finish — before [submit] returns, so any state
        keyed by the index must be registered before calling.
        Raises [Invalid_argument] after {!close}. *)

    val live : ('t, 's, 'r) t -> int
    (** Tasks submitted and not yet delivered to [on_result]. *)

    val close : ('t, 's, 'r) t -> unit
    (** Refuse further submissions, drain every live task to its
        result, and join the worker domains. *)
  end

  val get : 'a cell -> 'a
  (** The task's value, or raises {!Worker_failed} with its error. *)

  val serial_seconds : 'a cell list -> float
  (** Sum of per-task elapsed times: the serial cost of the sweep, to
      compare against the wall-clock of the parallel run. *)

  val pp_error : Format.formatter -> error -> unit
end

val wall : (unit -> 'a) -> 'a * float
(** Wall-clock a thunk; the companion to {!Pool.serial_seconds} when
    reporting sweep speedups. *)
