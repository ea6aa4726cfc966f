(* The shard router: one client-facing front-end over N supervisor
   shards, with live tenant migration as a first-class operation.

   Topology: the router owns the client socket and spawns each shard
   as a separate supervisor process (Service.server_main via the
   hidden argv marker) on its own state directory and Unix socket.
   Tenants are admitted once, fleet-wide, at the router (shards adopt
   router placements unconditionally — the explicit-tenant submit
   path), and placed by rendezvous hashing so placement is stable and
   deterministic for a given fleet shape.

   Migration rides entirely on the self-describing checkpoint files:
   a parked tenant IS its checkpoint, so moving one between shards is
   a file rename plus an adopt-submit — no state is copied over the
   wire. Three flows produce migrations:

   - drain (admin verb, shard SIGTERM, or router SIGTERM): the shard
     parks every tenant at its next yield, writes a manifest
     (drained.json) of parked tenants and untaken results, and exits
     0; the router reaps the manifest and requeues the parked tenants
     on surviving shards. Zero slices are lost.
   - evict (rebalance): one tenant is parked mid-run and handed back
     through the next [take]; same zero-loss contract.
   - failover (shard SIGKILLed, or SIGKILLed by the router after its
     status heartbeat went stale / its connection stopped answering):
     the router stages whatever checkpoints the dead shard left and
     requeues; each tenant loses at most the one slice in flight.

   The router's view of shard health is two independent signals: the
   shard's status-file heartbeat (ages visibly under SIGSTOP — the
   supervisor analog of the PR-8 worker stall plane) and the wire
   itself (a [take] that times out repeatedly). Either one answers a
   wedged shard with SIGKILL and the failover path; a *dead* shard is
   caught by waitpid in the same tick.

   Accounting is exact by construction: the router increments its
   migrations counter at the same moment it increments the tenant's
   migration lineage counter, and that counter rides the assignment
   into the worker and back out through the result — so the sum of
   migrations reported by finished tenants equals the migrations the
   router performed, and the chaos harness asserts it. *)

module Json = Cheri_util.Json
module Obs = Cheri_obs.Obs
module Snapshot = Cheri_snapshot.Snapshot

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

(* The fleet's supervisor settings are one Service.config: the router
   reads its socket, directory, admission and timing from it, and
   every shard runs a copy of it placed in its own directory. *)
type rconfig = {
  r_shards : int;
  r_take_s : float;  (** per-shard result-harvest period *)
  r_req_timeout_s : float;  (** wire deadline for one shard request *)
  r_service : Service.config;
}

let default_rconfig ~dir =
  {
    r_shards = 3;
    r_take_s = 0.2;
    r_req_timeout_s = 1.5;
    r_service =
      {
        (Service.default_config ~dir) with
        Service.socket = Filename.concat dir "fleet.sock";
        status_s = 0.25;
      };
  }

let rconfig_to_json c =
  Printf.sprintf {|{"shards":%d,"take_s":%s,"req_timeout_s":%s,"service":%s}|} c.r_shards
    (Json.number c.r_take_s) (Json.number c.r_req_timeout_s) (Service.config_to_json c.r_service)

let rconfig_of_json s =
  let ( let* ) = Result.bind in
  let* j = Result.map_error (( ^ ) "rconfig: ") (Json.parse s) in
  let* service =
    match Json.member "service" j with
    | Some (Json.Obj _ as o) -> Service.config_of_json (Json.encode o)
    | _ -> Error "rconfig: missing service object"
  in
  let d = default_rconfig ~dir:service.Service.dir in
  let f k dflt = Option.value ~default:dflt (Json.mem_float k j) in
  Ok
    {
      r_shards = Option.value ~default:d.r_shards (Json.mem_int "shards" j);
      r_take_s = f "take_s" d.r_take_s;
      r_req_timeout_s = f "req_timeout_s" d.r_req_timeout_s;
      r_service = service;
    }

let shard_dir cfg k = Filename.concat cfg.r_service.Service.dir (Printf.sprintf "shard_%d" k)

let shard_config cfg k : Service.config =
  let dir = shard_dir cfg k in
  {
    cfg.r_service with
    Service.dir;
    socket = (Service.default_config ~dir).Service.socket;
    (* per-shard admission never gates router placements (adoption is
       forced); the fleet-wide cap just keeps direct-to-shard debugging
       submissions possible, and a supervisor refuses a cap below 1 *)
    capacity = max 1 cfg.r_service.Service.capacity;
    seed = cfg.r_service.Service.seed + ((k + 1) * 7919);
    corrupt_requeue = 0;
  }

(* ------------------------------------------------------------------ *)
(* Rendezvous hashing                                                  *)

(* splitmix-style mix kept in 62 bits, identical on any 64-bit-word
   OCaml — placement must not depend on the host *)
let mix x =
  let x = (x + 0x1E3779B97F4A7C15) land 0x3FFFFFFFFFFFFFFF in
  let x = (x lxor (x lsr 30)) * 0x2545F4914F6CDD1D land 0x3FFFFFFFFFFFFFFF in
  (x lxor (x lsr 27)) land 0x3FFFFFFFFFFFFFFF

let hrw_score ~seed ~gid ~shard = mix ((gid * 1_000_003) + (shard * 97) + seed)

(* all shards ranked for [gid], best first: the head is the owner, the
   tail is the deterministic fallback order when the owner cannot take
   the tenant (draining, dead, held) *)
let hrw_order ~seed ~shards gid =
  List.init shards (fun k -> (hrw_score ~seed ~gid ~shard:k, k))
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Router state                                                        *)

(* a shard slot's own state; pid and liveness live in its
   Supervisor.child *)
type shard = {
  sh_id : int;
  sh_cfg : Service.config;
  mutable sh_conn : (Unix.file_descr * Protocol.Reader.t) option;
  mutable sh_draining : bool;
  mutable sh_held : bool;  (** admin-drained slot: do not respawn *)
  mutable sh_drain_t : float;  (** 0. unless a router-initiated drain is in flight *)
  mutable sh_timeouts : int;  (** consecutive wire timeouts *)
  mutable sh_last_take : float;
}

type placement =
  | P_queued
  | P_shard of int
  | P_done of { pd_restarts : int; pd_result : Service.tresult }
  | P_failed of string

type rtenant = {
  rt_gid : int;
  rt_source : string;
  rt_abi : string;
  rt_fuel : int;
  rt_slice : int;
  rt_deadline_s : float option;
  mutable rt_place : placement;
  mutable rt_restarts : int;
  mutable rt_migrations : int;
  mutable rt_slices : int;  (** last known, from drain entries *)
  mutable rt_has_ckpt : bool;  (** a staged checkpoint backs the requeue *)
  mutable rt_mig_t : float;  (** un-placement time, for migration latency *)
}

type router = {
  cfg : rconfig;
  adm : Admission.t;
  fe : Frontend.t;
  tenants : (int, rtenant) Hashtbl.t;
  mutable next_gid : int;
  shards : shard Supervisor.t;
  hb : Obs.Heartbeat.t;
  t0 : float;
  mutable shutdown : bool;
  mutable draining : bool;  (** fleet drain (router SIGTERM) in progress *)
  mutable migrations : int;
  mutable drains : int;
  mutable shard_deaths : int;
  mutable stall_kills : int;
  mig_h : Obs.Histogram.t;
  drain_h : Obs.Histogram.t;
}

let sigterm_fleet = ref false

let tick c = Obs.Counter.incr (Lazy.force c)
let c_migrations = lazy (Obs.counter Obs.default "service_migrations_total")
let c_drains = lazy (Obs.counter Obs.default "service_drains_total")
let c_shard_deaths = lazy (Obs.counter Obs.default "service_shard_deaths_total")
let c_stall_kills = lazy (Obs.counter Obs.default "service_stall_kills_total")
let g_shards_live = lazy (Obs.gauge Obs.default "service_shards_live")

let g_shard_tenants =
  let tbl = Hashtbl.create 8 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some g -> g
    | None ->
        let g = Obs.gauge Obs.default (Printf.sprintf "service_shard_tenants{shard=\"%d\"}" k) in
        Hashtbl.add tbl k g;
        g

let placed_on r k =
  Hashtbl.fold
    (fun _ t acc -> match t.rt_place with P_shard s when s = k -> acc + 1 | _ -> acc)
    r.tenants 0

let eligible (c : shard Supervisor.child) =
  c.alive && (not c.data.sh_draining) && not c.data.sh_held

(* ------------------------------------------------------------------ *)
(* Checkpoint staging                                                  *)

(* A checkpoint leaving a shard is parked under [dir/staging] until
   its tenant lands somewhere: the dead/drained shard slot will be
   respawned on the same directory, and its startup orphan sweep must
   find nothing — the router, not the shard, owns these tenants. *)
let staging_dir r = Filename.concat r.cfg.r_service.dir "staging"

let staged_path r gid = Filename.concat (staging_dir r) (Printf.sprintf "tenant_%04d.snap" gid)

(* only the image moves; its spare stays behind and is deleted *)
let stage_checkpoint r ~from_shard gid =
  let src = Service.Checkpoint.path ~dir:(shard_dir r.cfg from_shard) ~tenant:gid in
  Snapshot.remove_spare src;
  if Sys.file_exists src then (
    match Unix.rename src (staged_path r gid) with
    | () -> true
    | exception Unix.Unix_error _ -> false)
  else false

let unstage_checkpoint r ~to_shard gid =
  let src = staged_path r gid in
  if Sys.file_exists src then (
    let dst = Service.Checkpoint.path ~dir:(shard_dir r.cfg to_shard) ~tenant:gid in
    match Unix.rename src dst with
    | () -> true
    | exception Unix.Unix_error _ -> false)
  else false

let restage_checkpoint r ~from_shard gid =
  (* a placement that failed after the file moved: pull it back *)
  ignore (stage_checkpoint r ~from_shard gid : bool)

(* ------------------------------------------------------------------ *)
(* Shard process management                                            *)

let drop_conn sh =
  (match sh.sh_conn with
  | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  sh.sh_conn <- None

let shard_status_path cfg k = Filename.concat (shard_dir cfg k) "status.json"

(* worker pids of a shard, from its (atomically written) status file —
   used to finish off a SIGKILLed shard's workers so no orphan can
   keep writing checkpoints into a directory the router has already
   harvested *)
let shard_worker_pids cfg k =
  match Supervisor.read_file (shard_status_path cfg k) with
  | None -> []
  | Some s -> (
      match Json.parse s with
      | Error _ -> []
      | Ok j -> (
          match Json.member "workers" j with
          | Some (Json.Arr ws) ->
              List.filter_map
                (fun w ->
                  match (Json.mem_bool "alive" w, Json.mem_int "pid" w) with
                  | Some true, Some pid when pid > 0 -> Some pid
                  | _ -> None)
                ws
          | _ -> []))

let spawn_shard r (c : shard Supervisor.child) =
  let sh = c.data in
  let dir = sh.sh_cfg.Service.dir in
  Supervisor.mkdir_p (Filename.concat dir "checkpoints");
  (* the router owns tenant placement: a respawned shard must come up
     empty, not orphan-adopt leftovers of its previous incarnation
     (those checkpoints were staged at failover; anything left is a
     torn straggler), and so are their spares *)
  (match Sys.readdir (Filename.concat dir "checkpoints") with
  | files ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".snap" || Filename.check_suffix f (Snapshot.spare ".snap") then
            try Sys.remove (Filename.concat dir (Filename.concat "checkpoints" f))
            with Sys_error _ -> ())
        files
  | exception Sys_error _ -> ());
  (try Sys.remove (shard_status_path r.cfg sh.sh_id) with Sys_error _ -> ());
  (try Sys.remove (Service.manifest_path ~dir) with Sys_error _ -> ());
  Supervisor.spawn c [ Service.server_marker; Service.config_to_json sh.sh_cfg ];
  sh.sh_draining <- false;
  sh.sh_drain_t <- 0.;
  sh.sh_timeouts <- 0;
  sh.sh_last_take <- now ()

(* run before a shard is SIGKILLed (and again at its reap): after
   these kills return, nothing can write into the shard's checkpoint
   directory while we harvest it *)
let kill_workers r sh =
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (shard_worker_pids r.cfg sh.sh_id);
  drop_conn sh

let connect_shard sh =
  match sh.sh_conn with
  | Some c -> Some c
  | None -> (
      match Protocol.connect sh.sh_cfg.Service.socket with
      | fd ->
          let c = (fd, Protocol.Reader.create ()) in
          sh.sh_conn <- Some c;
          Some c
      | exception Unix.Unix_error _ -> None)

(* one request/response on the shard's long-lived connection; a
   timeout poisons the connection (a late reply would desynchronize
   request/response pairing), so it is dropped and re-dialed *)
let shard_request r sh json =
  match connect_shard sh with
  | None -> `Down
  | Some (fd, rd) -> (
      match Protocol.request_timeout fd rd ~timeout_s:r.cfg.r_req_timeout_s json with
      | `Ok j ->
          sh.sh_timeouts <- 0;
          `Ok j
      | `Timeout ->
          sh.sh_timeouts <- sh.sh_timeouts + 1;
          drop_conn sh;
          `Timeout
      | `Error e ->
          drop_conn sh;
          `Error e)

(* fire-and-forget op on a throwaway connection: used for [drain] and
   [shutdown], whose replies are deferred or unwanted — they must not
   ride the paired request/response connection *)
let shard_send_oneway sh json =
  match Protocol.connect sh.sh_cfg.Service.socket with
  | exception Unix.Unix_error _ -> false
  | fd ->
      let sent =
        match Protocol.write_frame fd (Json.encode json) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      sent

(* ------------------------------------------------------------------ *)
(* Migration bookkeeping                                               *)

let release_if_live r t =
  match t.rt_place with
  | P_done _ | P_failed _ -> ()
  | P_queued | P_shard _ -> Admission.release r.adm

(* requeue a tenant that just left [from_shard]: bump its migration
   lineage (and the router counter, in lockstep — their equality is a
   chaos invariant), stage its checkpoint if one exists, and put it
   back on the queue for the next schedule pass *)
let migrate_out r t ~from_shard ~crashed ~slices =
  tick c_migrations;
  r.migrations <- r.migrations + 1;
  t.rt_migrations <- t.rt_migrations + 1;
  if crashed then t.rt_restarts <- t.rt_restarts + 1;
  if slices >= 0 then t.rt_slices <- slices;
  t.rt_has_ckpt <- stage_checkpoint r ~from_shard t.rt_gid;
  t.rt_mig_t <- now ();
  t.rt_place <- P_queued

(* one harvested entry (live [take] or drain manifest) from [sh] *)
let absorb_entry r sh (e : Service.taken) =
  let gid = Service.taken_tenant e in
  match Hashtbl.find_opt r.tenants gid with
  | None -> () (* raced a shutdown/unknown adoption; drop *)
  | Some t -> (
      let from_this_shard =
        match t.rt_place with P_shard k -> k = sh.sh_id | _ -> false
      in
      match e with
      | Service.T_done { tk_restarts; tk_result; _ } ->
          (* accept a completion even if the placement map says queued:
             a failover may have requeued a tenant whose result was
             already in the shard's table *)
          if from_this_shard || t.rt_place = P_queued then begin
            release_if_live r t;
            if t.rt_place = P_queued && t.rt_has_ckpt then (
              try Sys.remove (staged_path r gid) with Sys_error _ -> ());
            t.rt_place <-
              P_done { pd_restarts = max t.rt_restarts tk_restarts; pd_result = tk_result }
          end
      | Service.T_failed { tk_detail; _ } ->
          if from_this_shard || t.rt_place = P_queued then begin
            release_if_live r t;
            t.rt_place <- P_failed tk_detail
          end
      | Service.T_drained { tk_slices; _ } ->
          (* a parked tenant handed back: this is the migration path —
             but only when the placement map still points here (a
             failover may already have staged and requeued it) *)
          if from_this_shard then
            migrate_out r t ~from_shard:sh.sh_id ~crashed:false ~slices:tk_slices)

(* everything the placement map says is on [sh] but that no manifest
   or take entry accounted for: crash requeue (at most one slice lost) *)
let failover_tenants r sh =
  Hashtbl.iter
    (fun _ t ->
      match t.rt_place with
      | P_shard k when k = sh.sh_id ->
          migrate_out r t ~from_shard:sh.sh_id ~crashed:true ~slices:(-1)
      | _ -> ())
    r.tenants

(* ------------------------------------------------------------------ *)
(* Reaping: manifests, failover, respawn                               *)

let process_manifest r sh entries =
  r.drains <- r.drains + 1;
  tick c_drains;
  if sh.sh_drain_t > 0. then begin
    Obs.Histogram.observe r.drain_h (now () -. sh.sh_drain_t);
    sh.sh_drain_t <- 0.
  end;
  List.iter (absorb_entry r sh) entries

(* the reap callback: [c] is already marked dead *)
let on_shard_exit r (c : shard Supervisor.child) status =
  let sh = c.data in
  drop_conn sh;
  c.pid <- -1;
  let dir = sh.sh_cfg.Service.dir in
  let manifest =
    match Supervisor.read_file (Service.manifest_path ~dir) with
    | None -> None
    | Some s -> ( match Service.manifest_of_json s with Ok es -> Some es | Error _ -> None)
  in
  (try Sys.remove (Service.manifest_path ~dir) with Sys_error _ -> ());
  (match (manifest, status) with
  | Some entries, Unix.WEXITED 0 ->
      (* clean drain: the manifest is the complete hand-off *)
      process_manifest r sh entries;
      (* belt and braces: anything the manifest somehow missed *)
      failover_tenants r sh
  | Some entries, _ ->
      (* died mid-drain wrap-up: honor what was written, crash the rest *)
      process_manifest r sh entries;
      failover_tenants r sh
  | None, _ ->
      (* dirty death (SIGKILL, crash): stage and requeue *)
      r.shard_deaths <- r.shard_deaths + 1;
      tick c_shard_deaths;
      (* finish off any workers the dead supervisor left: an orphan
         would keep checkpointing into a directory we are about to
         harvest and hand to a new incarnation *)
      kill_workers r sh;
      failover_tenants r sh);
  sh.sh_draining <- false

let reap_shards r = Supervisor.reap r.shards ~on_exit:(on_shard_exit r)

let respawn_shards r =
  if not (r.draining || r.shutdown) then
    Array.iter
      (fun (c : shard Supervisor.child) ->
        if (not c.alive) && not c.data.sh_held then spawn_shard r c)
      r.shards

(* ------------------------------------------------------------------ *)
(* Health probing and harvesting                                       *)

(* every live shard is probed, and one whose wire stopped answering
   counts as stale too: beating stopped or requests time out while the
   process is alive — SIGSTOP or a wedged supervisor — and reap turns
   the kill into a failover *)
let probe_shards r =
  Supervisor.probe r.shards
    ~wedged:(fun c -> c.data.sh_timeouts >= 3)
    ~grace_s:(3.0 +. (2. *. r.cfg.r_service.status_s))
    ~interval_s:r.cfg.r_service.status_s
    ~path:(fun c -> shard_status_path r.cfg c.data.sh_id)
    ~on_stale:(fun c ->
      r.stall_kills <- r.stall_kills + 1;
      tick c_stall_kills;
      kill_workers r c.data)

let take_from r (c : shard Supervisor.child) =
  let sh = c.data in
  if c.alive && now () -. sh.sh_last_take >= r.cfg.r_take_s then begin
    sh.sh_last_take <- now ();
    match shard_request r sh (Json.Obj [ ("op", Json.str "take") ]) with
    | `Ok j -> (
        match Json.member "entries" j with
        | Some (Json.Arr es) ->
            List.iter
              (fun ej ->
                match Service.taken_of_json ej with
                | Ok e -> absorb_entry r sh e
                | Error _ -> ())
              es
        | _ -> ())
    | `Timeout | `Error _ | `Down -> ()
  end

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)

let submit_to_shard r sh (t : rtenant) =
  let moved = unstage_checkpoint r ~to_shard:sh.sh_id t.rt_gid in
  let req =
    Json.Obj
      ([
         ("op", Json.str "submit");
         ("tenant", Json.int t.rt_gid);
         ("source", Json.str t.rt_source);
         ("abi", Json.str t.rt_abi);
         ("fuel", Json.int t.rt_fuel);
         ("slice", Json.int t.rt_slice);
         ("restarts", Json.int t.rt_restarts);
         ("migrations", Json.int t.rt_migrations);
       ]
      @ match t.rt_deadline_s with Some d -> [ ("deadline_s", Json.float d) ] | None -> [])
  in
  match shard_request r sh req with
  | `Ok j when Json.mem_bool "ok" j = Some true ->
      t.rt_place <- P_shard sh.sh_id;
      if t.rt_mig_t > 0. then begin
        Obs.Histogram.observe r.mig_h (now () -. t.rt_mig_t);
        t.rt_mig_t <- 0.
      end;
      true
  | `Ok _ | `Timeout | `Error _ | `Down ->
      if moved then restage_checkpoint r ~from_shard:sh.sh_id t.rt_gid;
      false

let schedule r =
  if not r.draining then begin
    let queued =
      Hashtbl.fold (fun _ t acc -> if t.rt_place = P_queued then t :: acc else acc) r.tenants []
      |> List.sort (fun a b -> compare a.rt_gid b.rt_gid)
    in
    List.iter
      (fun t ->
        let order = hrw_order ~seed:r.cfg.r_service.seed ~shards:r.cfg.r_shards t.rt_gid in
        ignore
          (List.exists
             (fun k ->
               let c = r.shards.(k) in
               eligible c && submit_to_shard r c.data t)
             order
            : bool))
      queued
  end

(* fleet pressure: the admission cap clients see shrinks with the live
   shard fraction, so retry-after hints stretch exactly when capacity
   actually shrank *)
let update_capacity r =
  let live = Array.fold_left (fun a c -> if eligible c then a + 1 else a) 0 r.shards in
  let cap = max 1 (r.cfg.r_service.capacity * max 1 live / max 1 r.cfg.r_shards) in
  Admission.set_capacity r.adm cap;
  Obs.Gauge.set (Lazy.force g_shards_live) (float_of_int live);
  for k = 0 to Array.length r.shards - 1 do
    Obs.Gauge.set (g_shard_tenants k) (float_of_int (placed_on r k))
  done

(* ------------------------------------------------------------------ *)
(* Drain verbs                                                         *)

let drain_shard (c : shard Supervisor.child) ~hold =
  let sh = c.data in
  if c.alive && not sh.sh_draining then begin
    sh.sh_draining <- true;
    sh.sh_drain_t <- now ();
    if hold then sh.sh_held <- true;
    ignore (shard_send_oneway sh (Json.Obj [ ("op", Json.str "drain") ]) : bool)
  end
  else if (not c.alive) && hold then sh.sh_held <- true

let initiate_fleet_drain r =
  if not r.draining then begin
    r.draining <- true;
    Array.iter (drain_shard ~hold:true) r.shards
  end

(* the fleet analog of the shard manifest: queued tenants (with their
   staged checkpoints) and untaken results, written when a SIGTERM
   drain completes so a successor fleet could adopt them *)
let fleet_manifest_entries r =
  Hashtbl.fold
    (fun _ t acc ->
      let e =
        match t.rt_place with
        | P_done { pd_restarts; pd_result } ->
            Some
              (Service.T_done
                 { tk_tenant = t.rt_gid; tk_restarts = pd_restarts; tk_result = pd_result })
        | P_failed d ->
            Some
              (Service.T_failed
                 {
                   tk_tenant = t.rt_gid;
                   tk_restarts = t.rt_restarts;
                   tk_migrations = t.rt_migrations;
                   tk_detail = d;
                 })
        | P_queued | P_shard _ ->
            Some
              (Service.T_drained
                 {
                   tk_tenant = t.rt_gid;
                   tk_source = t.rt_source;
                   tk_abi = t.rt_abi;
                   tk_fuel = t.rt_fuel;
                   tk_slice = t.rt_slice;
                   tk_deadline_s = t.rt_deadline_s;
                   tk_restarts = t.rt_restarts;
                   tk_migrations = t.rt_migrations;
                   tk_slices = t.rt_slices;
                   tk_checkpoint = t.rt_has_ckpt;
                 })
      in
      match e with Some e -> e :: acc | None -> acc)
    r.tenants []
  |> List.sort (fun a b -> compare (Service.taken_tenant a) (Service.taken_tenant b))

let write_fleet_manifest r =
  let entries = fleet_manifest_entries r in
  Service.write_manifest ~dir:r.cfg.r_service.dir entries;
  List.length entries

(* a SIGTERM fleet drain is finished once every shard has exited (their
   manifests absorbed): everything live is parked in staging *)
let maybe_finish_fleet_drain r =
  if r.draining && not r.shutdown then
    if Array.for_all (fun (c : shard Supervisor.child) -> not c.alive) r.shards then begin
      ignore (write_fleet_manifest r : int);
      r.shutdown <- true
    end

(* ------------------------------------------------------------------ *)
(* Client requests                                                     *)

let err = Frontend.err

let handle_submit r j =
  if r.draining then err "draining"
  else
    match Service.submit_of_json ~fuel:r.cfg.r_service.fuel ~slice:r.cfg.r_service.slice j with
    | Error reply -> reply
    | Ok sb -> (
        match Admission.request r.adm with
        | Admission.Reject { retry_after_s } ->
            err "overloaded" ~extra:[ ("retry_after_s", Json.float retry_after_s) ]
        | Admission.Admit ->
            let gid = r.next_gid in
            r.next_gid <- gid + 1;
            Hashtbl.replace r.tenants gid
              {
                rt_gid = gid;
                rt_source = sb.Service.sb_source;
                rt_abi = sb.sb_abi;
                rt_fuel = sb.sb_fuel;
                rt_slice = sb.sb_slice;
                rt_deadline_s = sb.sb_deadline_s;
                rt_place = P_queued;
                rt_restarts = 0;
                rt_migrations = 0;
                rt_slices = 0;
                rt_has_ckpt = false;
                rt_mig_t = 0.;
              };
            Json.Obj [ ("ok", Json.bool true); ("tenant", Json.int gid) ])

let handle_poll r j =
  match Json.mem_int "tenant" j with
  | None -> err "bad_request" ~extra:[ ("detail", Json.str "missing tenant") ]
  | Some gid -> (
      match Hashtbl.find_opt r.tenants gid with
      | None -> err "unknown_tenant"
      | Some t ->
          let base = [ ("ok", Json.bool true); ("tenant", Json.int gid) ] in
          let state, extra =
            match t.rt_place with
            | P_queued -> ("queued", [])
            | P_shard k -> ("running", [ ("shard", Json.int k) ])
            | P_done { pd_restarts; pd_result } ->
                ("done", [ ("result", Service.result_json pd_result ~restarts:pd_restarts) ])
            | P_failed d -> ("failed", [ ("detail", Json.str d) ])
          in
          Json.Obj (base @ [ ("state", Json.str state) ] @ extra))

let status_fields r =
  let queued = ref 0 and placed = ref 0 and done_ = ref 0 and failed = ref 0 in
  Hashtbl.iter
    (fun _ t ->
      match t.rt_place with
      | P_queued -> incr queued
      | P_shard _ -> incr placed
      | P_done _ -> incr done_
      | P_failed _ -> incr failed)
    r.tenants;
  let live_shards =
    Array.fold_left (fun a (c : shard Supervisor.child) -> if c.alive then a + 1 else a) 0 r.shards
  in
  [
    ("schema", Json.str "cheri_c.serve-fleet-status/v1");
    ("pid", Json.int (Unix.getpid ()));
    ("shards_total", Json.int r.cfg.r_shards);
    ("shards_live", Json.int live_shards);
    ("capacity", Json.int (Admission.capacity r.adm));
    ("live", Json.int (Admission.live r.adm));
    ("queued", Json.int !queued);
    ("running", Json.int !placed);
    ("done", Json.int !done_);
    ("failed", Json.int !failed);
    ("admitted", Json.int (Admission.admitted r.adm));
    ("rejected", Json.int (Admission.rejected r.adm));
    ("migrations", Json.int r.migrations);
    ("drains", Json.int r.drains);
    ("shard_deaths", Json.int r.shard_deaths);
    ("stall_kills", Json.int r.stall_kills);
    ("draining", Json.bool r.draining);
    ( "shards",
      Json.Arr
        (Array.to_list r.shards
        |> List.map (fun (c : shard Supervisor.child) ->
               let sh = c.data in
               Json.Obj
                 [
                   ("id", Json.int sh.sh_id);
                   ("pid", Json.int c.pid);
                   ("alive", Json.bool c.alive);
                   ("draining", Json.bool sh.sh_draining);
                   ("held", Json.bool sh.sh_held);
                   ("tenants", Json.int (placed_on r sh.sh_id));
                 ])) );
    ("elapsed_s", Json.float (now () -. r.t0));
  ]

let status_payload r () = Json.encode (Json.Obj (status_fields r))

let handle_admin_drain r j =
  match Json.mem_int "shard" j with
  | None -> err "bad_request" ~extra:[ ("detail", Json.str "missing shard") ]
  | Some k when k < 0 || k >= r.cfg.r_shards -> err "unknown_shard"
  | Some k ->
      let c = r.shards.(k) in
      if not c.alive then
        Json.Obj [ ("ok", Json.bool true); ("shard", Json.int k); ("state", Json.str "down") ]
      else begin
        drain_shard c ~hold:true;
        Json.Obj [ ("ok", Json.bool true); ("shard", Json.int k); ("state", Json.str "draining") ]
      end

(* revive held slots, then evict every tenant sitting on a shard that
   is no longer its rendezvous owner; the evicted checkpoints flow back
   through [take] and re-place on the owner *)
let handle_rebalance r =
  let revived = ref 0 in
  Array.iter
    (fun (c : shard Supervisor.child) ->
      if c.data.sh_held then begin
        c.data.sh_held <- false;
        incr revived
      end)
    r.shards;
  respawn_shards r;
  let evictions = ref 0 in
  Hashtbl.iter
    (fun _ t ->
      match t.rt_place with
      | P_shard k -> (
          let order = hrw_order ~seed:r.cfg.r_service.seed ~shards:r.cfg.r_shards t.rt_gid in
          match List.find_opt (fun s -> eligible r.shards.(s)) order with
          | Some owner when owner <> k ->
              let c = r.shards.(k) in
              if c.alive then begin
                match
                  shard_request r c.data
                    (Json.Obj [ ("op", Json.str "evict"); ("tenant", Json.int t.rt_gid) ])
                with
                | `Ok _ -> incr evictions
                | `Timeout | `Error _ | `Down -> ()
              end
          | _ -> ())
      | _ -> ())
    r.tenants;
  Json.Obj
    [ ("ok", Json.bool true); ("revived", Json.int !revived); ("evictions", Json.int !evictions) ]

(* the router's own ops; stats, metrics and shutdown are the
   Frontend's *)
let handlers r =
  let reply f j = Some (Frontend.Reply (f j)) in
  {
    Frontend.status = (fun () -> status_fields r);
    shutdown = (fun () -> r.shutdown <- true);
    request =
      (fun op j ->
        match op with
        | "submit" -> reply (handle_submit r) j
        | "poll" -> reply (handle_poll r) j
        | "drain" -> reply (handle_admin_drain r) j
        | "rebalance" -> reply (fun _ -> handle_rebalance r) j
        | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

(* ask every live shard to shut down; stragglers past the deadline
   lose their workers and then their own process *)
let shutdown_shards r =
  Supervisor.stop r.shards ~deadline_s:5.0
    ~quit:(fun c ->
      ignore (shard_send_oneway c.data (Json.Obj [ ("op", Json.str "shutdown") ]) : bool))
    ~on_kill:(fun c -> kill_workers r c.data)
    ~on_exit:(on_shard_exit r)

let router_main (cfg : rconfig) =
  let svc = cfg.r_service in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  sigterm_fleet := false;
  (* register the fleet counters up front so the metrics op exports
     them at 0 rather than only after the first migration/death *)
  List.iter
    (fun c -> ignore (Lazy.force c))
    [ c_migrations; c_drains; c_shard_deaths; c_stall_kills ];
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> sigterm_fleet := true));
  Supervisor.mkdir_p (Filename.concat svc.dir "staging");
  (try Sys.remove (Service.manifest_path ~dir:svc.dir) with Sys_error _ -> ());
  let fe = Frontend.listen svc.socket in
  let r =
    {
      cfg;
      adm =
        Admission.create ~seed:svc.seed ~retry_base_s:svc.retry_base_s
          ~capacity:(max 1 svc.capacity) ();
      fe;
      tenants = Hashtbl.create 64;
      next_gid = 0;
      shards =
        Supervisor.create (max 1 cfg.r_shards) (fun k ->
            {
              sh_id = k;
              sh_cfg = shard_config cfg k;
              sh_conn = None;
              sh_draining = false;
              sh_held = false;
              sh_drain_t = 0.;
              sh_timeouts = 0;
              sh_last_take = 0.;
            });
      hb =
        Obs.Heartbeat.create
          ~interval_s:(if svc.status_s > 0. then svc.status_s else 1.0)
          ~path:(Filename.concat svc.dir "status.json") ();
      t0 = now ();
      shutdown = false;
      draining = false;
      migrations = 0;
      drains = 0;
      shard_deaths = 0;
      stall_kills = 0;
      mig_h = Obs.histogram Obs.default "service_migration_seconds";
      drain_h = Obs.histogram Obs.default "service_drain_seconds";
    }
  in
  Array.iter (spawn_shard r) r.shards;
  Obs.Heartbeat.force r.hb (status_payload r);
  let h = handlers r in
  let rec loop () =
    if not r.shutdown then begin
      Frontend.tick r.fe h ~timeout_s:svc.tick_s;
      if !sigterm_fleet then initiate_fleet_drain r;
      reap_shards r;
      probe_shards r;
      Array.iter (take_from r) r.shards;
      respawn_shards r;
      schedule r;
      update_capacity r;
      maybe_finish_fleet_drain r;
      Obs.Heartbeat.beat r.hb (status_payload r);
      loop ()
    end
  in
  loop ();
  if not r.draining then shutdown_shards r;
  Obs.Heartbeat.force r.hb (status_payload r);
  Frontend.close r.fe

(* ------------------------------------------------------------------ *)
(* Child dispatch                                                      *)

let router_marker = "serve-router-child"

let child_dispatch () =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = router_marker then
    match rconfig_of_json Sys.argv.(2) with
    | Ok cfg ->
        router_main cfg;
        exit 0
    | Error e ->
        prerr_endline ("serve router child: " ^ e);
        exit 2
