(** The shard router: one client-facing socket over N supervisor
    shards, with live tenant migration, graceful drain, and automatic
    failover.

    Each shard is a full PR-8 supervisor ({!Service.server_main}) in
    its own process, on its own state directory and Unix socket, with
    its own worker pool. The router admits tenants once, fleet-wide
    ({!Admission}), assigns global tenant ids, and places each tenant
    by rendezvous hashing; shards adopt router placements
    unconditionally via the explicit-tenant submit path.

    Because checkpoints are self-describing, a live tenant migrates
    between shards as a file rename plus an adopt-submit. The router
    performs migrations on three triggers: a drain (admin verb, shard
    SIGTERM, or fleet SIGTERM — zero slices lost), an evict during
    rebalance (zero slices lost), and failover after a shard dies or
    stops answering (at most one slice lost). The migration lineage
    counter rides the assignment into the worker and back out in the
    result, so [sum of migrations reported by finished tenants =
    migrations the router performed] — an invariant the chaos harness
    checks exactly.

    Wire protocol (same framing as {!Protocol}): ops [submit], [poll],
    [stats], [metrics], [shutdown], plus the admin verbs [drain]
    (["shard": k] — park that shard's tenants and hold the slot) and
    [rebalance] (revive held slots, evict tenants off non-owner
    shards). SIGTERM drains every shard, writes a fleet manifest
    ({!Service.manifest_path} in the fleet directory), and exits 0. *)

type rconfig = {
  r_dir : string;  (** fleet state directory; shard [k] lives in [shard_<k>/] *)
  r_socket : string;  (** the one client-facing socket *)
  r_shards : int;
  r_workers : int;  (** worker processes per shard *)
  r_worker_jobs : int;
  r_capacity : int;  (** fleet-wide admission cap *)
  r_slice : int;
  r_fuel : int;
  r_heartbeat_s : float;  (** worker heartbeat inside each shard *)
  r_status_s : float;  (** shard status-file beat; stale after 2x *)
  r_tick_s : float;  (** router select timeout / maintenance period *)
  r_take_s : float;  (** per-shard result-harvest period *)
  r_req_timeout_s : float;  (** wire deadline for one shard request *)
  r_retry_base_s : float;
  r_seed : int;
}

val default_rconfig : dir:string -> rconfig
(** 3 shards x 2 workers x 1 domain, fleet capacity 64. *)

val rconfig_to_json : rconfig -> string
val rconfig_of_json : string -> (rconfig, string) result

val shard_dir : rconfig -> int -> string
val shard_config : rconfig -> int -> Service.config

val mix : int -> int
(** The splitmix-style step behind placement (and the chaos harness's
    synthetic tenants): kept in 62 bits, identical on any 64-bit-word
    OCaml. *)

val hrw_order : seed:int -> shards:int -> int -> int list
(** All shard ids ranked for a tenant id, best first — the head is the
    rendezvous owner, the tail the deterministic fallback order.
    Exposed for tests (stability, permutation). *)

val router_marker : string

val child_dispatch : unit -> unit
(** Call alongside {!Service.child_dispatch} in any binary that hosts
    the fleet: if [argv.(1)] is {!router_marker}, the process runs the
    router on the JSON rconfig in [argv.(2)] and never returns. *)

val router_main : rconfig -> unit
(** Run the router in this process: spawn the shards, serve the fleet
    socket until [shutdown] — or SIGTERM (drain every shard, absorb
    their manifests, write the fleet manifest, stop) — and return.
    Exits 2 with a structured message if the socket path is genuinely
    in use. *)
