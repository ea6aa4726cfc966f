(** The supervised multi-tenant simulation service.

    One supervisor process owns a Unix-domain socket and a fleet of
    worker {e processes} (children of the host binary, re-executed with
    a hidden argv marker — so chaos testing can deliver real SIGKILL).
    Tenants are admitted under a bounded cap ({!Admission}), scheduled
    preemptively on each worker's {!Cheri_exec.Exec.Pool.Stream} in
    fuel-bounded slices, and checkpointed to disk with
    {!Cheri_snapshot.Snapshot} at every yield.

    Recovery invariant: a worker death (crash, SIGKILL, or a stalled
    heartbeat answered with SIGKILL) costs each of its tenants at most
    the one slice that was in flight; everything up to the last
    checkpoint is resumed byte-identically (output, cycles, instret).
    A checkpoint that fails validation — torn write, damaged sidecar —
    demotes to a clean restart from slice zero, never an error.

    Migration plane (for {!Router}): checkpoints are self-describing
    (the note embeds the full assignment), so a checkpoint {e file} is
    a complete live tenant — a router moves one between shard
    directories with a rename and re-submits under the same global id.
    A [drain] (wire op, or SIGTERM) parks every tenant at its next
    yield with zero slices lost, writes a manifest of parked tenants
    and untaken results, and exits 0. *)

(** {1 Configuration} *)

type config = {
  dir : string;  (** state directory: socket, status files, checkpoints *)
  socket : string;
  workers : int;  (** worker processes *)
  worker_jobs : int;  (** pool domains per worker *)
  capacity : int;  (** admission cap on live tenants *)
  slice : int;  (** default per-slice fuel *)
  fuel : int;  (** default per-tenant total fuel budget *)
  heartbeat_s : float;  (** worker heartbeat interval; stale after 2x *)
  tick_s : float;  (** supervisor select timeout / probe period *)
  status_s : float;  (** supervisor status-file heartbeat interval *)
  retry_base_s : float;  (** admission retry-after hint base *)
  seed : int;
  corrupt_requeue : int;
      (** chaos hook: 0 = off; [k] = the [k]-th requeued tenant that
          has a checkpoint on disk gets that checkpoint damaged before
          any worker can resume from it *)
}

val default_config : dir:string -> config
(** 2 workers x 1 domain, capacity 64, 100k-instruction slices, 200M
    fuel, 0.25 s heartbeats, 50 ms ticks, 1 s status beats. *)

val config_to_json : config -> string
val config_of_json : string -> (config, string) result

(** {1 Wire types} (exposed for the router, chaos harness and tests) *)

type assignment = {
  a_tenant : int;
  a_source : string;
  a_abi : string;
  a_fuel : int;
  a_slice : int;
  a_deadline_s : float option;
  a_restarts : int;
  a_migrations : int;  (** cross-shard moves in this tenant's lineage *)
}

val assignment_to_json : assignment -> Cheri_util.Json.t
val assignment_of_json : Cheri_util.Json.t -> (assignment, string) result

type tresult = {
  r_outcome : string;
      (** ["exit:N"], ["trap:...@pc=N"], ["fuel_exhausted"], or
          ["deadline_exceeded"] *)
  r_output : string;
  r_cycles : int;
  r_instret : int;
  r_slices : int;
  r_resumed : bool;  (** resumed from a checkpoint at least once *)
  r_scratch : bool;  (** a checkpoint load failed; restarted from slice 0 *)
  r_migrations : int;  (** cross-shard moves in this tenant's lineage *)
}

val tresult_fields : tresult -> (string * Cheri_util.Json.t) list
val tresult_of_json : Cheri_util.Json.t -> (tresult, string) result

val result_json : tresult -> restarts:int -> Cheri_util.Json.t
(** The [result] object of a [done] poll reply, in both tiers. *)

type submit = {
  sb_source : string;
  sb_abi : string;  (** canonical name; CHERIv3 when absent *)
  sb_fuel : int;
  sb_slice : int;
  sb_deadline_s : float option;
}

val submit_of_json : fuel:int -> slice:int -> Cheri_util.Json.t -> (submit, Cheri_util.Json.t) result
(** The submit validation of both tiers, with the tier's default
    [fuel] and [slice]; the error is the [bad_request] reply. *)

(** {1 Checkpoint sidecars} *)

module Checkpoint : sig
  val schema : string
  (** ["cheri_c.serve-inflight/v1"] — the snapshot note schema. The
      migration fields were added without a schema bump: they default
      on parse, so pre-migration checkpoints still load. *)

  type meta = {
    ck_tenant : int;
    ck_slices : int;
    ck_wall_s : float;
    ck_resumed : bool;  (** lineage-cumulative: ever resumed *)
    ck_scratch : bool;  (** lineage-cumulative: ever restarted clean *)
    ck_migrations : int;
    ck_restarts : int;
    ck_source : string;  (** [""] in pre-migration checkpoints *)
    ck_abi : string;
    ck_fuel : int;
    ck_slice : int;
    ck_deadline_s : float option;
  }

  val path : dir:string -> tenant:int -> string

  val note :
    tenant:int ->
    slices:int ->
    wall_s:float ->
    resumed:bool ->
    scratch:bool ->
    migrations:int ->
    restarts:int ->
    source:string ->
    abi:string ->
    fuel:int ->
    slice:int ->
    deadline_s:float option ->
    string
  (** The JSON note embedded in a tenant checkpoint. Self-describing:
      it carries the full assignment, so the file alone suffices to
      requeue the tenant (orphan sweep, cross-shard migration). *)

  val parse_note : string -> (meta, string) result
  (** Rejects foreign schemas. *)

  val self_describing : meta -> bool
  (** The note carries enough ([source], [abi], positive [fuel] and
      [slice]) to rebuild the whole assignment. *)
end

(** {1 Hand-off entries}

    What a supervisor hands upward: to a router's [take] request while
    running, or through the drain manifest when exiting. *)

type taken =
  | T_done of { tk_tenant : int; tk_restarts : int; tk_result : tresult }
  | T_failed of { tk_tenant : int; tk_restarts : int; tk_migrations : int; tk_detail : string }
  | T_drained of {
      tk_tenant : int;
      tk_source : string;
      tk_abi : string;
      tk_fuel : int;
      tk_slice : int;
      tk_deadline_s : float option;
      tk_restarts : int;
      tk_migrations : int;
      tk_slices : int;
      tk_checkpoint : bool;  (** a checkpoint file backs the resume *)
    }

val taken_tenant : taken -> int
val taken_to_json : taken -> Cheri_util.Json.t
val taken_of_json : Cheri_util.Json.t -> (taken, string) result

val manifest_schema : string
(** ["cheri_c.serve-drain/v1"] — the drained-supervisor manifest. *)

val manifest_path : dir:string -> string
(** [dir/drained.json]: written (temp+rename) by a draining supervisor
    right before it exits 0; read by the router at reap time. *)

val manifest_of_json : string -> (taken list, string) result

val write_manifest : dir:string -> taken list -> unit
(** Write {!manifest_path} (temp+rename, so never torn); a write
    failure is swallowed. The router writes its fleet manifest with
    this too. *)

(** {1 Startup helpers} (exposed for tests) *)

val sweep_checkpoints : dir:string -> Checkpoint.meta list * int
(** Scan [dir/checkpoints] for orphaned [*.snap] files: load-verify
    each, return the metas of valid self-describing ones (requeue
    candidates, sorted by filename) and the count of corrupt or
    non-self-describing ones (deleted). *)

(** {1 Reference execution} *)

val run_serial :
  abi:string -> fuel:int -> slice:int -> string -> (tresult, string) result
(** Run a source in-process through the {e same} fuel-sliced loop a
    worker uses (minus checkpoints and heartbeats). The chaos harness
    compares every disturbed tenant against this — byte-identical
    output/cycles/instret and an exact expected slice count. *)

(** {1 Process entry points} *)

val worker_marker : string
val server_marker : string

val child_dispatch : unit -> unit
(** Call this {e first} in the main of any binary that hosts the
    service (before CLI parsing): if [argv.(1)] is {!worker_marker} or
    {!server_marker}, the process runs as that service child on the
    JSON config in [argv.(2)] and never returns. *)

val server_main : ?worker_prog:string -> config -> unit
(** Run the supervisor in this process: sweep orphaned checkpoints,
    bind the socket, spawn workers, serve until a [shutdown] request —
    or drain (wire op or SIGTERM: park every tenant at its next yield,
    write the manifest, stop) and return. Exits 2 with a structured
    message if the socket path is genuinely in use.

    Each worker runs [worker_prog] (default [Sys.executable_name]) with
    {!worker_marker} and its JSON config as arguments; the program must
    call {!child_dispatch} first. A test can pass a wrapper that
    disturbs a worker's frame stream.

    A worker whose frame stream turns corrupt is SIGKILLed (counted in
    [serve_corrupt_frame_kills_total] and the [corrupt_frame_kills]
    stats field) and reaped like any death: its tenants resume from
    their checkpoints. *)
