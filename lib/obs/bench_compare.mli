(** The bench regression gate: diff two committed BENCH_PR*.json files
    and fail on a throughput (or latency, or size) regression beyond a
    bound — turning the repo's bench trajectory into an enforced check
    instead of a hand-inspected artifact.

    Schema families are keyed by the [schema] field up to the [/vN]
    suffix. Four legacy families, measured by jobs since retired from
    [bench/main.exe], are gated at one [threshold_pct] for every
    metric:
    - [cheri_c.bench] (v1/v2): per workload×ABI [cycles] and [instret],
      both lower-better and fully deterministic;
    - [cheri_c.bench-perf]: per-cell [insn_per_s] (higher-better) and
      [minor_words_per_insn] (lower-better);
    - [cheri_c.snap-bench]: per-workload [save_ms]/[restore_ms]/[bytes]
      (lower-better) plus the [slicing] throughput block
      (higher-better);
    - [cheri_c.serve-bench]: [jobs_per_s] (higher-better) and
      [p50_ms]/[p99_ms]/[recovery_ms] (lower-better).

    [perfbench-trajectory] is a perfbench result pair
    ([parent]/[change], each [<workload>.metrics.<name>.value]). What
    it gates is read from the BENCHMARK.json [spec], never from a
    table here: its cells are the spec's [workloads], its metrics the
    [end_to_end] names read from the [change] side, each with the
    direction of its [better] and a threshold of its own [bound] (a
    fraction: 0.25 is 25%). A NEW workload whose [correct] is false,
    or whose [failed]/[attempted] share is larger than OLD's, is a
    regression too.

    Comparing files from different families is an error; [v1] vs [v2]
    of the same family is fine (the cell shape is compatible). *)

type direction = Higher_better | Lower_better

type metric = {
  m_cell : string;  (** e.g. ["dhrystone/cheri-v2"], ["slicing"] or ["tenant-burst"] *)
  m_name : string;  (** e.g. ["cycles"] *)
  m_dir : direction;
  m_old : float;
  m_new : float;
  m_delta_pct : float;  (** signed; positive = regressed direction *)
  m_bound_pct : float;  (** regressed when [m_delta_pct] exceeds this *)
  m_regressed : bool;
}

type outcome = {
  o_family : string;
  o_threshold_pct : float option;
      (** the legacy families' one threshold; [None] for per-metric
          bounds from the spec *)
  o_metrics : metric list;
  o_missing : string list;  (** cells present in OLD, absent from NEW *)
  o_failures : string list;
      (** perfbench-trajectory workloads whose NEW side is incorrect or
          fails a larger share of operations *)
  o_regressed : bool;
      (** any metric beyond its bound, any failure — or, unless
          [quick], any missing cell *)
}

val diff :
  ?threshold_pct:float ->
  ?quick:bool ->
  ?spec:string ->
  old_json:string ->
  new_json:string ->
  unit ->
  (outcome, string) result
(** [threshold_pct] (legacy families only; default 10) is refused with
    [Error] for perfbench-trajectory, which needs [spec], the contents
    of BENCHMARK.json. [quick] (default false) compares only the cell
    intersection — for gating against an older committed file whose
    sweep was smaller. Cells only in NEW, and perfbench workloads the
    spec does not gate, are always ignored (growth is not a
    regression). Malformed input of any kind is an [Error], never an
    exception. *)

val pp_outcome : Format.formatter -> outcome -> unit

val doctor_worsen : ?factor:float -> ?spec:string -> string -> (string * float, string) result
(** Re-serialize the report with every gated metric worsened by
    [factor], and return it with the factor used: the self-test's
    synthetic regression. The default is 0.2 (20%, comfortably past
    the 10% threshold) for the legacy families and 0.1 past the
    largest bound in [spec] for perfbench-trajectory. Unrelated fields
    pass through byte-preserved ([Num] lexemes are kept verbatim). *)
