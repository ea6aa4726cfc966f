(** Fleet-level observability: a process-wide metrics registry, span
    tracing and a crash-safe heartbeat file.

    The campaign layers (the domain pool, fuzz/inject, snapshotting)
    run for minutes to hours; this module is the one place their
    runtime behaviour is surfaced — counters, gauges and fixed-bucket
    latency histograms, plus lightweight spans recording the
    campaign → task → slice → snapshot nesting. Three exporters share
    one registry snapshot: human {!pp}, JSONL {!to_jsonl}, and
    Prometheus-style text {!to_prometheus}.

    {b Concurrency.} Counter and histogram updates are sharded per
    domain ({!Domain.DLS}): a pool worker increments a plain mutable
    cell it owns, with no atomics or locks on the hot path; shards are
    merged under a mutex only when a value is read or exported. Shards
    outlive their domain, so nothing is lost when workers join.

    {b Determinism.} Exported {e counter} values depend only on what
    the campaign did, never on [--jobs] or wall time — the same
    campaign at [--jobs 1] and [--jobs 4] dumps byte-identical
    counters. Everything timing-dependent (gauges, histograms, spans)
    is segregated behind the [?timing] flag on the exporters, mirroring
    the [?timing] key of the campaign reports, so byte-identity checks
    compare [~timing:false] output.

    {b Zero cost when off.} Every operation on {!null} (or a metric
    obtained from it) is a single load-and-branch; the machine's
    per-retired-instruction path is never instrumented directly —
    instruction and fault counters are bridged from
    [Telemetry] snapshots after a run. *)

type t
(** A metrics registry. *)

val create : unit -> t
(** A fresh live registry — campaigns that must prove [--jobs]
    determinism use private registries so process-wide activity cannot
    leak into the comparison. *)

val null : t
(** The disabled registry: every operation on it (and on metrics
    obtained from it) is a no-op. *)

val default : t
(** The process-wide registry. Always live; instrumented layers that
    are not handed an explicit registry record here, and [--metrics]
    dumps it. *)

val is_live : t -> bool

(** {1 Metrics}

    Metrics are interned by name: asking the same registry for the
    same name returns the same metric (asking with a different type
    raises [Invalid_argument]). Names follow Prometheus conventions
    ([snake_case], unit-suffixed, e.g. [pool_task_seconds]); a counter
    name may carry a fixed label set inline, e.g.
    [inject_verdicts_total{verdict="detected"}]. *)

module Counter : sig
  type t

  val incr : ?by:int -> t -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [0;1], linearly interpolated within the
      bucket containing the target rank (the usual Prometheus
      estimate), exact at the observed min/max ends. [nan] when
      empty. *)
end

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t

val histogram : ?buckets:float array -> t -> string -> Histogram.t
(** [buckets] are strictly increasing upper bounds; an implicit [+Inf]
    bucket is always appended. Defaults to {!default_buckets}. *)

val default_buckets : float array
(** Latency buckets in seconds, 10µs to 30s. *)

val quantile_of : float list -> float -> float
(** Exact sample quantile (sorted, linear interpolation between
    order statistics) — for the small per-task wall-time lists the
    campaign reports carry. [nan] on the empty list. *)

(** {1 Spans}

    A span is one timed region with an id, an optional parent and a
    label. [with_] maintains a per-domain current-span stack, so
    nested instrumented regions parent automatically within a domain
    (a snapshot save inside a task slice records the slice as its
    parent); cross-domain nesting passes [?parent] explicitly. The
    registry keeps the first {!Span.cap} completed spans and counts
    the rest as dropped. *)

module Span : sig
  type span

  val none : span
  (** The null span: valid as an explicit [?parent], never recorded. *)

  val id : span -> int
  (** Unique per registry, starting at 1; 0 is {!none}. *)

  val enter : t -> ?parent:span -> string -> span
  val exit : t -> span -> unit

  val with_ : t -> ?parent:span -> string -> (unit -> 'a) -> 'a
  (** Times [f], records the span on return or exception. Parent
      defaults to {!current}. *)

  val current : t -> span option
  (** Innermost [with_] span on this domain, if any. *)

  val recorded : t -> int
  val dropped : t -> int
  val cap : int
end

(** {1 Exporters}

    All three render one consistent snapshot. [timing] defaults to
    [true]; [~timing:false] restricts output to the deterministic
    counter section (sorted by name) for byte-identity comparison. *)

val pp : Format.formatter -> t -> unit

val to_jsonl : ?timing:bool -> t -> string
(** One JSON object per line: [{"kind":"counter",...}] lines first
    (sorted by name), then gauge/histogram/span lines when [timing]. *)

val to_prometheus : ?timing:bool -> t -> string
(** Text exposition format: [# TYPE] comments, [_bucket]/[_sum]/
    [_count] series for histograms. *)

(** {1 Heartbeat}

    A cooperative liveness file: campaigns call {!Heartbeat.beat} from
    their (already serialized) per-result hook, and at most once per
    interval the payload is written atomically — temp file then
    [rename] — so a reader (or a SIGKILL) can never observe a torn
    file; at worst a stale one plus an orphaned [.tmp]. Write failures
    are swallowed: a full disk must not kill the campaign. *)

module Heartbeat : sig
  type t

  val create : ?interval_s:float -> path:string -> unit -> t
  (** [interval_s] defaults to 1.0. The first [beat] always writes. *)

  val path : t -> string

  val beat : t -> (unit -> string) -> unit
  (** Write [payload ()] to {!path} if the interval has elapsed. The
      thunk is only forced when a write happens. *)

  val force : t -> (unit -> string) -> unit
  (** Write unconditionally (campaign start and final state). *)

  val write_atomic : path:string -> string -> unit
  (** The underlying temp+rename write; raises on I/O failure. *)

  val staleness :
    interval_s:float -> now:float -> mtime:float -> [ `Fresh | `Stale of float ]
  (** The supervisor-side classification: a status file last written at
      [mtime] is [`Stale age] when [now - mtime > 2 *. interval_s] —
      one interval of legitimate silence plus one of scheduling slack.
      Exactly 2x is still [`Fresh] (the boundary belongs to the
      writer). A future [mtime] (clock skew between writer and prober)
      is [`Fresh]: skew must never reap a beating worker. Pure, so the
      boundary cases are testable without touching a filesystem. *)

  val probe :
    ?now:float -> interval_s:float -> string -> [ `Fresh | `Stale of float | `Missing ]
  (** {!staleness} of the file's mtime ([`Missing] when it cannot be
      stat'ed). [now] defaults to the current time; pass it explicitly
      to make a probe decision reproducible in tests. *)
end

val status_json :
  ?verdicts:(string * int) list ->
  ?p99_task_s:float ->
  tasks_done:int ->
  tasks_total:int ->
  elapsed_s:float ->
  unit ->
  string
(** The standard heartbeat payload ([cheri_c.status/v1]): progress,
    verdict counts so far, elapsed, a simple rate-based ETA and the
    p99 task latency when known. *)

(** {1 Campaign progress} (the fuzz and fault-injection campaigns) *)

module Progress : sig
  type t

  val create : ?heartbeat:Heartbeat.t -> total:int -> string list -> t
  (** [total] tasks, seeded with the verdicts of those restored from a
      journal; writes a first {!status_json} beat. *)

  val finish : t -> ?verdict:string -> float -> unit
  (** One more task done in that many seconds, tallied under [verdict]. *)

  val walls : t -> float list
  (** The finished tasks' wall times, in completion order. *)

  val force : t -> unit
end

val timing_json : jobs:int -> wall_s:float -> ?serial_s:float -> float list -> string
(** A campaign report's excludable ["timing"] object. *)
