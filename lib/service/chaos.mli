(** Kill-a-worker chaos harness: an open-loop client that floods a
    real (separate-process) server past its admission cap, SIGSTOPs one
    worker (the stale-heartbeat path must SIGKILL it), SIGKILLs
    [kills] more, damages one requeued tenant's checkpoint on disk,
    then replays every tenant through {!Service.run_serial} and
    asserts byte-identity — outcome, output, cycles, instret and the
    slice count — plus the requeue/rejection ledger. *)

type cfg = {
  ch_tenants : int;
  ch_kills : int;  (** SIGKILLs on top of the one stall-kill *)
  ch_seed : int;
  ch_workers : int;
  ch_worker_jobs : int;
  ch_slice : int;  (** per-slice fuel (small = many checkpoints) *)
  ch_keep : bool;  (** keep the state dir for post-mortem *)
  ch_verbose : bool;
}

val default : cfg
(** 16 tenants, 3 kills, seed 42, 2 workers x 1 domain, 20k slices. *)

val run : cfg -> int
(** Run the harness; returns a process exit code (0 = every assertion
    held). The server and its state directory live under [/tmp] and
    are torn down unless [ch_keep]. *)

(** {1 Fleet harness} — shard-level faults against the {!Router}. *)

type fleet_cfg = {
  f_tenants : int;
  f_shards : int;  (** clamped to >= 3 *)
  f_workers : int;  (** worker processes per shard *)
  f_seed : int;
  f_slice : int;
  f_keep : bool;
  f_verbose : bool;
}

val fleet_default : fleet_cfg
(** 15 tenants over 3 shards x 1 worker, seed 7, 20k slices. *)

val run_fleet : fleet_cfg -> int
(** Drive a router fleet through one whole-shard SIGSTOP (stale-
    heartbeat SIGKILL + failover), one direct SIGTERM drain under
    load, one whole-shard SIGKILL, and one admin drain + rebalance;
    assert byte-identity of every tenant against {!Service.run_serial}
    (outcome, output, cycles, instret, slices), exact migration/drain
    accounting (sum of per-tenant migration counters = router
    migrations; deaths/stalls/drains exactly as scheduled), admission
    hints under the {!Admission.hint_cap_s} ceiling, and a clean
    SIGTERM exit 0 leaving a fleet manifest. Returns an exit code. *)

(** Minimal protocol client, shared with perfbench and the tests. *)
module Client : sig
  type t

  val spawn_server : Service.config -> int
  (** Re-exec this binary as a supervisor child; returns its pid.
      Requires the host binary to call {!Service.child_dispatch}. *)

  val spawn_router : Router.rconfig -> int
  (** Re-exec this binary as a router child; returns its pid.
      Requires the host binary to call {!Router.child_dispatch}. *)

  val wait_socket : string -> timeout_s:float -> bool
  val connect : string -> t
  val request : t -> Cheri_util.Json.t -> (Cheri_util.Json.t, string) result
  val close : t -> unit
end

val rm_rf : string -> unit
