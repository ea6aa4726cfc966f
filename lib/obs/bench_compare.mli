(** The bench regression gate over a committed perfbench result.

    A [perfbench-trajectory/v1] document holds the medians of one
    session's alternating runs of the parent commit and of the change
    ([parent]/[change], each [<workload>.metrics.<name>.value]). The
    gate compares the change side against the parent side of the same
    document, so both were measured on one host in one session, as the
    paper measures every overhead against a baseline of the same run.

    What it gates is read from the BENCHMARK.json [spec], never from a
    table here: its cells are the spec's [workloads], its metrics the
    [end_to_end] names, each with the direction of its [better] and a
    threshold of its own [bound] (a fraction: 0.25 is 25%). A change
    side whose [correct] is false, or whose [failed]/[attempted] share
    is larger than the parent's, is a regression too. *)

type direction = Higher_better | Lower_better

type metric = {
  m_cell : string;  (** the workload, e.g. ["tenant-burst"] *)
  m_name : string;  (** e.g. ["jobs_per_s"] *)
  m_dir : direction;
  m_old : float;  (** the parent side *)
  m_new : float;  (** the change side *)
  m_delta_pct : float;
      (** signed; positive = regressed direction; from a zero parent
          value, [infinity] if the change moved the wrong way and
          [neg_infinity] if it moved the right way *)
  m_bound_pct : float;  (** regressed when [m_delta_pct] exceeds this *)
  m_regressed : bool;
}

type outcome = {
  o_metrics : metric list;  (** every gated workload x every end-to-end metric *)
  o_failures : string list;
      (** workloads whose change side is incorrect or fails a larger
          share of operations *)
  o_regressed : bool;  (** any metric beyond its bound, or any failure *)
}

val diff : spec:string -> string -> (outcome, string) result
(** [diff ~spec json] gates [json]'s change side against its parent
    side. [spec] is the contents of BENCHMARK.json. Workloads the spec
    does not gate are ignored. A gated workload missing from either
    side, another schema, and malformed input of any kind are an
    [Error], never an exception. *)

val pp_outcome : Format.formatter -> outcome -> unit

val doctor_worsen : ?factor:float -> spec:string -> string -> (string * float, string) result
(** The bite check's synthetic regression: a copy of the document whose
    parent side is its change side, and whose change side has every
    gated metric worsened by [factor] (default 0.1 past the largest
    bound in [spec]). Returned with the factor used; [diff] must flag
    every metric of it. Unrelated fields pass through byte-preserved
    ([Num] lexemes are kept verbatim). *)
