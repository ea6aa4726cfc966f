(** Deterministic, seeded fault-injection campaigns over the compiled
    workloads — the experimental stress test of the paper's central
    claim that CHERI turns silent memory corruption into deterministic
    traps.

    A campaign is the cross product (workload x ABI x fault kind x
    seed). Each task replays its workload to a seed-derived instruction
    index, applies one fault there, runs the machine to completion
    under the fuel/wall-clock watchdog, and classifies the outcome
    against an unperturbed reference run. All fault parameters derive
    from (seed, workload, ABI, kind) via {!Rng}, and reports carry no
    timing, so a campaign resumed from a checkpoint reproduces the
    uninterrupted run's JSON byte for byte. *)

(** {1 Fault kinds} *)

type kind =
  | Bitflip
      (** flip one bit of live program data through the store path —
          the negative control: tags protect pointers, not plain data *)
  | Tag_clear
      (** a stray store over a stored pointer: on CHERI the granule
          tag clears (§4.2) and the next dereference traps; on MIPS the
          pointer silently changes *)
  | Tag_set
      (** forge a tag onto a granule of plain data (a tag-SRAM upset);
          dangerous only if the program later loads that granule as a
          capability, which provenance-respecting code never does *)
  | Cap_field
      (** corrupt one field (base/length/offset/perms) of a live
          capability, in a register or in memory *)
  | Alloc_fail  (** arm an allocator failure: an upcoming malloc/free traps *)

val all_kinds : kind list
val kind_key : kind -> string
val kind_of_key : string -> kind option

val pointer_protecting : kind -> bool
(** The tag/bounds fault kinds, for which the CHERI ABIs are expected
    to show {e zero} silent corruptions: [Tag_clear] (the §4.2
    integrity rule) and [Cap_field] (guard-field checks, provenance on
    address fields). [Tag_set] is excluded: forging a tag is a fault
    below the architecture, which the tag bit cannot police — it is a
    measured control, like [Bitflip]. *)

(** {1 Verdicts} *)

type verdict =
  | Detected of string  (** trapped; carries the pretty-printed trap *)
  | Masked  (** reference exit status and output anyway *)
  | Silent of string  (** wrong behaviour, no trap; carries the diff *)
  | Hung  (** fuel or wall-clock watchdog fired *)

val verdict_key : verdict -> string
(** ["detected" | "masked" | "silent" | "hang"]. *)

type record = {
  workload : string;
  abi : string;
  kind : kind;
  seed : int;
  trigger : int;  (** instruction index the fault was applied at *)
  detail : string;  (** what exactly was perturbed *)
  verdict : verdict;
}

(** {1 Workloads} *)

type workload = { w_name : string; w_source : Cheri_compiler.Abi.t -> string }

val builtin_workloads : workload list
(** Olden (4 kernels), Dhrystone, tcpdump, zlib — with parameters
    scaled down for replay (hundreds of thousands of instructions). *)

val workload_names : string list
val find_workload : string -> workload option

(** {1 Single injections} *)

type reference
(** A compiled workload plus its unperturbed run: outcome, output and
    retired-instruction count. Immutable; shared across the (kind,
    seed) tasks of one (workload, ABI) pair. *)

val default_fuel : int

val reference :
  ?fuel:int -> ?deadline_s:float -> workload -> Cheri_compiler.Abi.t -> reference

val run_one : ?fuel:int -> ?deadline_s:float -> reference -> kind -> int -> record
(** [run_one r kind seed] performs one injection. If the reference run
    itself was reaped by a watchdog, the record inherits [Hung]
    without replaying — a runaway workload degrades its own cell, not
    the campaign. *)

(** {1 Campaigns} *)

type campaign = {
  c_workloads : workload list;
  c_kinds : kind list;
  c_seeds : int;  (** seeds per (workload, ABI, kind) cell *)
  c_first_seed : int;
  c_fuel : int;
  c_deadline_s : float option;
}

val default_campaign :
  ?workloads:workload list ->
  ?kinds:kind list ->
  ?seeds:int ->
  ?first_seed:int ->
  ?fuel:int ->
  ?deadline_s:float ->
  unit ->
  campaign

type error = {
  e_workload : string;
  e_abi : string;
  e_kind : kind;
  e_seed : int;
  e_exn : string;
}

type report = {
  r_campaign : campaign;
  r_records : record list;
      (** canonical (workload, ABI, kind, seed) order, independent of
          job count and resume history *)
  r_errors : error list;
  r_resumed : int;  (** records restored from the checkpoint *)
  r_jobs : int;
  r_wall_s : float;
  r_task_seconds : float list;
      (** wall time of each freshly executed task, completion order —
          feeds the report's excludable "timing" key, never the
          byte-identical sections *)
}

exception Resume_mismatch of string
(** {!Cheri_util.Journal.Resume_mismatch}, re-exported. *)

val run :
  ?jobs:int ->
  ?retries:int ->
  ?checkpoint:string ->
  ?resume:string ->
  ?limit:int ->
  ?slice:int ->
  ?obs:Cheri_obs.Obs.t ->
  ?heartbeat:Cheri_obs.Obs.Heartbeat.t ->
  campaign ->
  report
(** Run every task of the campaign over the domain pool.

    [obs] (default {!Cheri_obs.Obs.default}) receives
    [inject_tasks_total], [inject_errors_total], [inject_resumed_total]
    and per-verdict [inject_verdicts_total{verdict=...}] counters —
    all independent of [jobs]/[slice]/resume history — plus the
    [inject_task_seconds] latency histogram and campaign/task/slice
    spans. [heartbeat] makes the campaign write a
    {!Cheri_obs.Obs.status_json} file from its serialized result hook:
    once at start, at most once per interval as tasks finish, and once
    at the end.

    [checkpoint] keeps a {!Cheri_util.Journal} of finished tasks;
    [resume] skips every task of this campaign such a file records
    (raises {!Resume_mismatch}; an uncreatable [checkpoint] raises
    {!Cheri_util.Journal.Checkpoint_unwritable}). The two may name one
    file. [limit]
    caps how many pending tasks execute — a deterministic way to
    produce a partial checkpoint, as a kill would.

    [slice] switches to the preemptive engine
    ({!Cheri_exec.Exec.Pool.map_sliced}): each task advances at most
    [slice] instructions per turn through a fair round-robin queue.
    Because the simulation stops only between instructions, the report
    is bit-identical to the unsliced run for every slice size and job
    count. With [checkpoint] also set, every in-flight task saves a
    {!Cheri_snapshot.Resumable} checkpoint to a
    [<checkpoint>.inflight.<task>.snap] sidecar at each yield, and
    [resume] restores such tasks mid-run; any sidecar failure restarts
    the task, never yields a wrong record. *)

(** {1 Reporting} *)

type counts = { n_detected : int; n_masked : int; n_silent : int; n_hung : int }

val matrix : report -> ((string * kind) * counts) list
(** Per (ABI name, kind) verdict counts, ABI-major, in campaign kind
    order — the detection-rate matrix. *)

val silent_count : report -> abi:string -> kind list -> int
(** Silent-corruption outcomes for one ABI summed over [kinds] — the
    acceptance check ({!pointer_protecting} kinds must count 0 on the
    CHERI ABIs). *)

val report_json : ?timing:bool -> report -> string
(** Deterministic report JSON (schema [cheri_c.inject/v1]): campaign
    parameters, error list, detection matrix, then every record in
    canonical order. All timing lives in one ["timing"] key (wall
    clock, job count, task-wall p50/p90/p99), emitted by default and
    dropped with [~timing:false] — resumed and uninterrupted runs emit
    identical bytes once timing is excluded. *)

val record_json : record -> string
val pp_report : Format.formatter -> report -> unit
