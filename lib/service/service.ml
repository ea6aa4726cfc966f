(* The supervised multi-tenant simulation service.

   Topology: one supervisor process owns a Unix-domain listen socket
   and N worker processes (spawned via create_process of our own
   executable with a hidden argv marker, so real SIGKILL kills real
   processes). Clients speak length-prefixed JSON frames (Protocol);
   the supervisor admits tenants under a bounded cap (Admission),
   assigns them to the least-loaded worker, and multiplexes everything
   — listen socket, client connections, worker event pipes — under one
   select loop. The process mechanics are shared with the Router:
   Supervisor spawns, reaps, probes and stops the workers, Frontend
   owns the socket, the clients and the select tick; this module keeps
   only the policy (requeue on death, probe only busy workers).

   Workers run tenants preemptively on an Exec.Pool.Stream: every
   slice is [Machine.run ~yield:true] for a bounded fuel budget, and
   every yield writes a CRC-guarded cheri_snapshot checkpoint
   (temp+rename) before the tenant re-enters the round-robin queue.
   The recovery invariant follows: when a worker dies, the supervisor
   drains its event pipe (completions that made it into the pipe are
   honored), requeues the remaining tenants, and a respawned worker
   resumes each one from its last checkpoint — so a crash costs at
   most the one slice that was in flight, and the snapshot
   byte-identity guarantee makes the recovered tenant's output /
   cycles / instret indistinguishable from an undisturbed run. A
   checkpoint that fails CRC validation (torn by the crash, or
   damaged on disk) is not an error the tenant sees: the worker
   restarts it cleanly from slice zero.

   Liveness is the PR 6 heartbeat plane: workers beat a status file
   every slice (interval-gated), the supervisor probes file age with
   Supervisor.probe each tick, and a stalled-but-alive worker
   (stuck syscall, SIGSTOP) is SIGKILLed and treated exactly like a
   crashed one. *)

module Json = Cheri_util.Json
module Obs = Cheri_obs.Obs
module Pool = Cheri_exec.Exec.Pool
module Abi = Cheri_compiler.Abi
module Codegen = Cheri_compiler.Codegen
module Machine = Cheri_isa.Machine
module Resumable = Cheri_snapshot.Resumable

let jint n = Json.Num (string_of_int n)
let jfloat f = if f <> f then Json.Null else Json.Num (Json.number f)
let jbool b = Json.Bool b
let jstr s = Json.Str s
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  dir : string;  (** state directory: socket, status files, checkpoints *)
  socket : string;
  workers : int;  (** worker processes *)
  worker_jobs : int;  (** domains per worker *)
  capacity : int;  (** admission cap on live tenants *)
  slice : int;  (** default per-slice fuel *)
  fuel : int;  (** default per-tenant total fuel budget *)
  heartbeat_s : float;  (** worker heartbeat interval *)
  tick_s : float;  (** supervisor select timeout / probe period *)
  status_s : float;  (** supervisor status-file heartbeat interval *)
  retry_base_s : float;  (** admission retry-after hint base *)
  seed : int;
  corrupt_requeue : int;
      (** chaos hook: 0 = off; k = the k-th requeue that has a
          checkpoint on disk gets that checkpoint damaged first, to
          prove a bad sidecar means a clean restart, not a crash *)
}

let default_config ~dir =
  {
    dir;
    socket = Filename.concat dir "serve.sock";
    workers = 2;
    worker_jobs = 1;
    capacity = 64;
    slice = 100_000;
    fuel = Machine.default_fuel;
    heartbeat_s = 0.25;
    tick_s = 0.05;
    status_s = 1.0;
    retry_base_s = 0.05;
    seed = 0;
    corrupt_requeue = 0;
  }

let config_to_json c =
  Json.encode
    (Json.Obj
       [
         ("dir", jstr c.dir);
         ("socket", jstr c.socket);
         ("workers", jint c.workers);
         ("worker_jobs", jint c.worker_jobs);
         ("capacity", jint c.capacity);
         ("slice", jint c.slice);
         ("fuel", jint c.fuel);
         ("heartbeat_s", jfloat c.heartbeat_s);
         ("tick_s", jfloat c.tick_s);
         ("status_s", jfloat c.status_s);
         ("retry_base_s", jfloat c.retry_base_s);
         ("seed", jint c.seed);
         ("corrupt_requeue", jint c.corrupt_requeue);
       ])

let config_of_json s =
  match Json.parse s with
  | Error e -> Error ("config: " ^ e)
  | Ok j -> (
      match (Json.mem_str "dir" j, Json.mem_str "socket" j) with
      | Some dir, Some socket ->
          let d = default_config ~dir in
          let i k dflt = Option.value ~default:dflt (Json.mem_int k j) in
          let f k dflt = Option.value ~default:dflt (Json.mem_float k j) in
          Ok
            {
              dir;
              socket;
              workers = i "workers" d.workers;
              worker_jobs = i "worker_jobs" d.worker_jobs;
              capacity = i "capacity" d.capacity;
              slice = i "slice" d.slice;
              fuel = i "fuel" d.fuel;
              heartbeat_s = f "heartbeat_s" d.heartbeat_s;
              tick_s = f "tick_s" d.tick_s;
              status_s = f "status_s" d.status_s;
              retry_base_s = f "retry_base_s" d.retry_base_s;
              seed = i "seed" d.seed;
              corrupt_requeue = i "corrupt_requeue" d.corrupt_requeue;
            }
      | _ -> Error "config: missing dir/socket")

type worker_config = { w_dir : string; w_id : int; w_jobs : int; w_heartbeat_s : float }

let worker_config_to_json w =
  Json.encode
    (Json.Obj
       [
         ("dir", jstr w.w_dir);
         ("id", jint w.w_id);
         ("jobs", jint w.w_jobs);
         ("heartbeat_s", jfloat w.w_heartbeat_s);
       ])

let worker_config_of_json s =
  match Json.parse s with
  | Error e -> Error ("worker config: " ^ e)
  | Ok j -> (
      match Json.(mem_str "dir" j, mem_int "id" j, mem_int "jobs" j, mem_float "heartbeat_s" j) with
      | Some w_dir, Some w_id, Some w_jobs, Some w_heartbeat_s ->
          Ok { w_dir; w_id; w_jobs; w_heartbeat_s }
      | _ -> Error "worker config: missing field")

(* ------------------------------------------------------------------ *)
(* Tenant assignments and results                                      *)

type assignment = {
  a_tenant : int;
  a_source : string;
  a_abi : string;
  a_fuel : int;
  a_slice : int;
  a_deadline_s : float option;
  a_restarts : int;  (** how many times this tenant has been requeued *)
  a_migrations : int;  (** how many times the router moved it across shards *)
}

let assignment_to_json a =
  Json.Obj
    [
      ("op", jstr "run");
      ("tenant", jint a.a_tenant);
      ("source", jstr a.a_source);
      ("abi", jstr a.a_abi);
      ("fuel", jint a.a_fuel);
      ("slice", jint a.a_slice);
      ("deadline_s", match a.a_deadline_s with Some d -> jfloat d | None -> Json.Null);
      ("restarts", jint a.a_restarts);
      ("migrations", jint a.a_migrations);
    ]

let assignment_of_json j =
  match
    Json.(mem_int "tenant" j, mem_str "source" j, mem_str "abi" j, mem_int "fuel" j, mem_int "slice" j)
  with
  | Some a_tenant, Some a_source, Some a_abi, Some a_fuel, Some a_slice ->
      Ok
        {
          a_tenant;
          a_source;
          a_abi;
          a_fuel;
          a_slice;
          a_deadline_s = Json.mem_float "deadline_s" j;
          a_restarts = Option.value ~default:0 (Json.mem_int "restarts" j);
          a_migrations = Option.value ~default:0 (Json.mem_int "migrations" j);
        }
  | _ -> Error "assignment: missing field"

type tresult = {
  r_outcome : string;
  r_output : string;
  r_cycles : int;
  r_instret : int;
  r_slices : int;
  r_resumed : bool;  (** resumed from a checkpoint at least once *)
  r_scratch : bool;  (** a checkpoint load failed; restarted from slice 0 *)
  r_migrations : int;  (** cross-shard moves in this tenant's lineage *)
}

let tresult_fields r =
  [
    ("outcome", jstr r.r_outcome);
    ("output", jstr r.r_output);
    ("cycles", jint r.r_cycles);
    ("instret", jint r.r_instret);
    ("slices", jint r.r_slices);
    ("resumed", jbool r.r_resumed);
    ("scratch", jbool r.r_scratch);
    ("migrations", jint r.r_migrations);
  ]

let result_json r ~restarts = Json.Obj (tresult_fields r @ [ ("restarts", jint restarts) ])

let tresult_of_json j =
  match
    ( Json.mem_str "outcome" j,
      Json.mem_str "output" j,
      Json.mem_int "cycles" j,
      Json.mem_int "instret" j,
      Json.mem_int "slices" j )
  with
  | Some r_outcome, Some r_output, Some r_cycles, Some r_instret, Some r_slices ->
      Ok
        {
          r_outcome;
          r_output;
          r_cycles;
          r_instret;
          r_slices;
          r_resumed = Option.value ~default:false (Json.mem_bool "resumed" j);
          r_scratch = Option.value ~default:false (Json.mem_bool "scratch" j);
          r_migrations = Option.value ~default:0 (Json.mem_int "migrations" j);
        }
  | _ -> Error "result: missing field"

let outcome_string (o : Machine.outcome) =
  match o with
  | Machine.Exit c -> Printf.sprintf "exit:%Ld" c
  | Machine.Trap { trap; pc } ->
      Printf.sprintf "trap:%s@pc=%d" (Format.asprintf "%a" Machine.pp_trap trap) pc
  | Machine.Fuel_exhausted | Machine.Deadline_exceeded -> "fuel_exhausted"
  | Machine.Yielded -> "yielded"

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)

module Checkpoint = struct
  let schema = "cheri_c.serve-inflight/v1"

  type meta = {
    ck_tenant : int;
    ck_slices : int;
    ck_wall_s : float;
    ck_resumed : bool;  (** this lineage has resumed from a checkpoint *)
    ck_scratch : bool;  (** this lineage has restarted from scratch *)
    ck_migrations : int;  (** cross-shard moves in this lineage *)
    ck_restarts : int;
    ck_source : string;  (** "" in pre-migration checkpoints *)
    ck_abi : string;
    ck_fuel : int;
    ck_slice : int;
    ck_deadline_s : float option;
  }

  let path ~dir ~tenant =
    Filename.concat dir (Printf.sprintf "checkpoints/tenant_%04d.snap" tenant)

  (* resumed/scratch ride in the note so they are lineage-cumulative:
     a tenant that scratch-restarted after a corrupted checkpoint still
     reports scratch=true even if a later death resumes it cleanly.
     The full assignment (source, abi, fuel, slice, deadline) rides
     along too, making the checkpoint self-describing: a supervisor
     that finds one at startup — its predecessor was SIGKILLed, or a
     router moved the file in from a dead shard — can requeue the
     tenant from the file alone, with no other surviving state. The
     schema string is unchanged from v1: all new fields default on
     parse, so pre-migration checkpoints still load (they just cannot
     be orphan-requeued, lacking a source). *)
  let note ~tenant ~slices ~wall_s ~resumed ~scratch ~migrations ~restarts ~source ~abi
      ~fuel ~slice ~deadline_s =
    Resumable.note ~schema
      [
        ("tenant", jint tenant);
        ("slices", jint slices);
        ("wall_s", jfloat wall_s);
        ("resumed", jbool resumed);
        ("scratch", jbool scratch);
        ("migrations", jint migrations);
        ("restarts", jint restarts);
        ("source", jstr source);
        ("abi", jstr abi);
        ("fuel", jint fuel);
        ("slice", jint slice);
        ("deadline_s", match deadline_s with Some d -> jfloat d | None -> Json.Null);
      ]

  (* the fields of a note already opened under [schema] *)
  let meta_of_json j =
    match (Json.mem_int "tenant" j, Json.mem_int "slices" j, Json.mem_float "wall_s" j) with
    | Some ck_tenant, Some ck_slices, Some ck_wall_s ->
        let b k = Option.value ~default:false (Json.mem_bool k j) in
        let i k = Option.value ~default:0 (Json.mem_int k j) in
        Some
          {
            ck_tenant;
            ck_slices;
            ck_wall_s;
            ck_resumed = b "resumed";
            ck_scratch = b "scratch";
            ck_migrations = i "migrations";
            ck_restarts = i "restarts";
            ck_source = Option.value ~default:"" (Json.mem_str "source" j);
            ck_abi = Option.value ~default:"" (Json.mem_str "abi" j);
            ck_fuel = i "fuel";
            ck_slice = i "slice";
            ck_deadline_s = Json.mem_float "deadline_s" j;
          }
    | _ -> None

  let parse_note s =
    match Resumable.open_note ~schema s with
    | Error e -> Error ("checkpoint note: " ^ e)
    | Ok j -> Option.to_result ~none:"checkpoint note: missing field" (meta_of_json j)

  (* the note of a CRC-checked checkpoint file *)
  let read path =
    match Resumable.read_note path with
    | Ok note -> parse_note note
    | Error e -> Error (Cheri_snapshot.Snapshot.error_to_string e)

  (* a note carrying enough to rebuild the whole assignment *)
  let self_describing m = m.ck_source <> "" && m.ck_abi <> "" && m.ck_fuel > 0 && m.ck_slice > 0
end

(* ------------------------------------------------------------------ *)
(* The serial reference: the exact slicing loop a worker runs, minus
   checkpoints, heartbeats and the deadline watchdog. The chaos harness
   replays every tenant through this after the disturbed run — the
   byte-identity assertion compares against precisely this code path,
   including the slice count (so "slices lost to a kill" is observed
   minus expected, not a guess from instret arithmetic). *)

let run_serial ~abi:abi_key ~fuel ~slice source =
  match Abi.of_key abi_key with
  | None -> Error (Printf.sprintf "unknown abi %S" abi_key)
  | Some abi -> (
      match Codegen.compile_source abi source with
      | exception e -> Error (Printexc.to_string e)
      | linked ->
          let m = Codegen.machine_for abi linked in
          let finish ~slices outcome =
            Ok
              {
                r_outcome = outcome;
                r_output = Machine.output m;
                r_cycles = Machine.cycles m;
                r_instret = Machine.instret m;
                r_slices = slices;
                r_resumed = false;
                r_scratch = false;
                r_migrations = 0;
              }
          in
          let rec go slices =
            let remaining = fuel - Machine.instret m in
            if remaining <= 0 then finish ~slices "fuel_exhausted"
            else
              match Machine.run ~fuel:(min slice remaining) ~yield:true m with
              | Machine.Yielded ->
                  if Machine.instret m >= fuel then finish ~slices:(slices + 1) "fuel_exhausted"
                  else go (slices + 1)
              | o -> finish ~slices:(slices + 1) (outcome_string o)
          in
          go 0)

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)

type tstate = {
  ts_a : assignment;
  ts_m : Machine.t;
  ts_ckpt : string;
  mutable ts_slices : int;
  mutable ts_wall : float;
  mutable ts_resumed : bool;
  mutable ts_scratch : bool;
}

(* what a worker task yields up: a finished tenant, or one parked at a
   checkpoint because the worker is draining (or the tenant was
   evicted) — the checkpoint is on disk, the tenant resumes elsewhere *)
type wresult = W_done of tresult | W_drained of { d_slices : int; d_migrations : int }

let worker_hb_path ~dir ~id =
  Filename.concat dir (Printf.sprintf "workers/worker_%d.status.json" id)

let worker_main (w : worker_config) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let hb = Obs.Heartbeat.create ~interval_s:w.w_heartbeat_s ~path:(worker_hb_path ~dir:w.w_dir ~id:w.w_id) () in
  let slices_done = Atomic.make 0 in
  let tenants_done = Atomic.make 0 in
  (* drain/evict plane: [draining] parks every task at its next yield;
     [evicted] parks just the named tenants. Both are read from pool
     domains, written from the control loop. *)
  let draining = Atomic.make false in
  let evict_mu = Mutex.create () in
  let evicted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let is_evicted tid = Mutex.protect evict_mu (fun () -> Hashtbl.mem evicted tid) in
  (* compile cache: tenants often share sources (retries, fleets). An
     entry lives exactly as long as some live tenant on this worker
     uses it: [acquire] counts a reference, and the tenant's result
     (done, failed or parked) drops it. A key whose compile raised was
     never added, and compiling is deterministic, so [release] of a
     key with no entry is that tenant's and a no-op. The cache is hit
     from pool domains, hence the mutex. *)
  let cache_mu = Mutex.create () in
  let cache = Hashtbl.create 16 in
  (* its size, for the heartbeat: read without the lock, so a beat
     never waits behind a compile *)
  let cache_entries = Atomic.make 0 in
  let acquire abi key source =
    Mutex.protect cache_mu (fun () ->
        match Hashtbl.find_opt cache (key, source) with
        | Some (linked, refs) ->
            incr refs;
            linked
        | None ->
            let linked = Codegen.compile_source abi source in
            Hashtbl.add cache (key, source) (linked, ref 1);
            Atomic.incr cache_entries;
            linked)
  in
  let release (a : assignment) =
    Mutex.protect cache_mu (fun () ->
        match Hashtbl.find_opt cache (a.a_abi, a.a_source) with
        | Some (_, refs) when !refs > 1 -> decr refs
        | Some _ ->
            Hashtbl.remove cache (a.a_abi, a.a_source);
            Atomic.decr cache_entries
        | None -> ())
  in
  let payload () =
    Json.encode
      (Json.Obj
         [
           ("schema", jstr "cheri_c.serve-worker/v1");
           ("worker", jint w.w_id);
           ("pid", jint (Unix.getpid ()));
           ("slices", jint (Atomic.get slices_done));
           ("done", jint (Atomic.get tenants_done));
           ("compile_cache", jint (Atomic.get cache_entries));
         ])
  in
  let init (a : assignment) =
    let abi =
      match Abi.of_key a.a_abi with
      | Some abi -> abi
      | None -> failwith (Printf.sprintf "unknown abi %S" a.a_abi)
    in
    let linked = acquire abi a.a_abi a.a_source in
    let ckpt = Checkpoint.path ~dir:w.w_dir ~tenant:a.a_tenant in
    let fresh () = Codegen.machine_for abi linked in
    (* Resume from the last checkpoint of this very tenant; every
       failure is a clean restart from slice zero (Resumable). A
       damaged checkpoint costs recomputation, never correctness and
       never the worker. *)
    let accept j =
      match Checkpoint.meta_of_json j with
      | Some ck when ck.Checkpoint.ck_tenant = a.a_tenant -> Some ck
      | _ -> None
    in
    match Resumable.resume ~schema:Checkpoint.schema ~accept ~abi:a.a_abi ~fresh ckpt with
    | Some (m, ck) ->
        {
          ts_a = a;
          ts_m = m;
          ts_ckpt = ckpt;
          ts_slices = ck.Checkpoint.ck_slices;
          ts_wall = ck.Checkpoint.ck_wall_s;
          ts_resumed = true;
          ts_scratch = ck.Checkpoint.ck_scratch;
        }
    | None ->
        {
          ts_a = a;
          ts_m = fresh ();
          ts_ckpt = ckpt;
          ts_slices = 0;
          ts_wall = 0.;
          ts_resumed = false;
          ts_scratch = a.a_restarts > 0;
        }
  in
  let finish st outcome =
    W_done
      {
        r_outcome = outcome;
        r_output = Machine.output st.ts_m;
        r_cycles = Machine.cycles st.ts_m;
        r_instret = Machine.instret st.ts_m;
        r_slices = st.ts_slices;
        r_resumed = st.ts_resumed;
        r_scratch = st.ts_scratch;
        r_migrations = st.ts_a.a_migrations;
      }
  in
  let checkpoint st =
    let a = st.ts_a in
    let note =
      Checkpoint.note ~tenant:a.a_tenant ~slices:st.ts_slices ~wall_s:st.ts_wall
        ~resumed:st.ts_resumed ~scratch:st.ts_scratch ~migrations:a.a_migrations
        ~restarts:a.a_restarts ~source:a.a_source ~abi:a.a_abi ~fuel:a.a_fuel ~slice:a.a_slice
        ~deadline_s:a.a_deadline_s
    in
    (* best-effort: a failed save costs a restart-from-scratch later,
       not the tenant *)
    Resumable.save ~note ~abi:st.ts_a.a_abi ~path:st.ts_ckpt st.ts_m
  in
  let park st =
    (* the checkpoint must be durable before the drained event can be
       emitted: the event is the router's license to resume the tenant
       elsewhere from this exact file *)
    checkpoint st;
    Pool.Done (W_drained { d_slices = st.ts_slices; d_migrations = st.ts_a.a_migrations })
  in
  let slice_fn st =
    let a = st.ts_a in
    if Atomic.get draining || is_evicted a.a_tenant then park st
    else
      let remaining = a.a_fuel - Machine.instret st.ts_m in
      if remaining <= 0 then Pool.Done (finish st "fuel_exhausted")
      else begin
        let t0 = now () in
        let o = Machine.run ~fuel:(min a.a_slice remaining) ~yield:true st.ts_m in
        st.ts_wall <- st.ts_wall +. (now () -. t0);
        st.ts_slices <- st.ts_slices + 1;
        Atomic.incr slices_done;
        Obs.Heartbeat.beat hb payload;
        match o with
        | Machine.Yielded ->
            if Machine.instret st.ts_m >= a.a_fuel then Pool.Done (finish st "fuel_exhausted")
            else if match a.a_deadline_s with Some d -> st.ts_wall > d | None -> false then
              Pool.Done (finish st "deadline_exceeded")
            else begin
              checkpoint st;
              Pool.Yield st
            end
        | o -> Pool.Done (finish st (outcome_string o))
      end
  in
  (* submission index -> assignment, so an init/slice exception (whose
     cell carries only the index) can still be attributed to a tenant.
     Registered under the mutex BEFORE submit returns — a fast worker
     domain may finish the task before submit's caller resumes. *)
  let tbl_mu = Mutex.create () in
  let by_index : (int, assignment) Hashtbl.t = Hashtbl.create 16 in
  let out_frame json = Protocol.write_frame Unix.stdout (Json.encode json) in
  let on_result (cell : _ Pool.cell) =
    let a =
      Mutex.protect tbl_mu (fun () ->
          let a = Hashtbl.find by_index cell.Pool.index in
          Hashtbl.remove by_index cell.Pool.index;
          a)
    in
    release a;
    match cell.Pool.result with
    | Ok (W_done r) ->
        Atomic.incr tenants_done;
        (* the done event must be on the wire before the checkpoint is
           removed: if we die in between, the supervisor drains the
           event at reap time and never requeues; the reverse order
           could lose the whole tenant *)
        out_frame (Json.Obj (("event", jstr "done") :: ("tenant", jint a.a_tenant) :: tresult_fields r));
        Resumable.discard (Checkpoint.path ~dir:w.w_dir ~tenant:a.a_tenant)
    | Ok (W_drained d) ->
        (* parked, not finished: the checkpoint stays on disk *)
        out_frame
          (Json.Obj
             [
               ("event", jstr "drained");
               ("tenant", jint a.a_tenant);
               ("slices", jint d.d_slices);
               ("migrations", jint d.d_migrations);
             ])
    | Error e ->
        out_frame
          (Json.Obj
             [
               ("event", jstr "error");
               ("tenant", jint a.a_tenant);
               ("detail", jstr e.Pool.exn);
             ])
  in
  let stream =
    Pool.Stream.create ~jobs:(max 1 w.w_jobs) ~retries:0 ~init ~slice:slice_fn ~on_result ()
  in
  Obs.Heartbeat.force hb payload;
  let reader = Protocol.Reader.create () in
  let handle f =
    match Json.parse f with
    | Error _ -> exit 3
    | Ok j -> (
        match Json.mem_str "op" j with
        | Some "run" -> (
            match assignment_of_json j with
            | Error _ -> exit 3
            | Ok a ->
                Mutex.protect tbl_mu (fun () ->
                    let i = Pool.Stream.submit stream a in
                    Hashtbl.replace by_index i a);
                Obs.Heartbeat.beat hb payload)
        | Some "drain" ->
            (* every task parks at its next slice turn; once the stream
               is empty the main loop exits 0 (clean drain) *)
            Atomic.set draining true
        | Some "evict" -> (
            match Json.mem_int "tenant" j with
            | Some tid -> Mutex.protect evict_mu (fun () -> Hashtbl.replace evicted tid ())
            | None -> ())
        | Some "quit" -> exit 0
        | _ -> ())
  in
  (* The main loop must NOT block in a plain read: an idle worker that
     stops beating looks exactly like a stalled one, and once the
     spawn grace expires the supervisor would reap a perfectly healthy
     process. So: select with a sub-interval timeout and beat on every
     wakeup (Heartbeat.beat is interval-gated, so the file is written
     at most once per interval). *)
  let buf = Bytes.create 65536 in
  let rec loop () =
    Obs.Heartbeat.beat hb payload;
    (* a draining worker exits once every task has parked or finished:
       [Stream.live] counts tasks not yet delivered to on_result, so
       zero means every done/drained event is already on the wire *)
    if Atomic.get draining && Pool.Stream.live stream = 0 then exit 0;
    match Protocol.Reader.next reader with
    | `Corrupt _ -> exit 0 (* supervisor gone mad: checkpoints carry the work *)
    | `Frame f ->
        handle f;
        loop ()
    | `Awaiting -> (
        match Unix.select [ Unix.stdin ] [] [] (w.w_heartbeat_s /. 2.) with
        | [], _, _ -> loop ()
        | _ -> (
            match Unix.read Unix.stdin buf 0 (Bytes.length buf) with
            | 0 -> exit 0 (* supervisor gone: in-flight work is in the checkpoints *)
            | n ->
                Protocol.Reader.feed reader (Bytes.sub_string buf 0 n);
                loop ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let worker_marker = "serve-worker-child"
let server_marker = "serve-server-child"

(* a worker slot's own state; pid, liveness and stall live in its
   Supervisor.child *)
type worker = {
  wk_id : int;
  mutable wk_to : Unix.file_descr;
  mutable wk_from : Unix.file_descr;
  mutable wk_reader : Protocol.Reader.t;
  mutable wk_tenants : int list;
}

(* a tenant parked at a checkpoint, waiting for the router to move it *)
type drained_info = {
  dr_slices : int;
  dr_migrations : int;
  dr_checkpoint : bool;  (** a checkpoint file exists (false: resume = restart) *)
}

type tstatus =
  | Queued
  | Running of int
  | Finished of tresult
  | Failed of string
  | Drained of drained_info

type tenant = {
  t_id : int;
  t_source : string;
  t_abi : string;
  t_fuel : int;
  t_slice : int;
  t_deadline_s : float option;
  mutable t_status : tstatus;
  mutable t_restarts : int;
  mutable t_migrations : int;
  t_submit_t : float;
  mutable t_done_t : float;
}

type server = {
  s_cfg : config;
  s_adm : Admission.t;
  s_fe : Frontend.t;
  s_tenants : (int, tenant) Hashtbl.t;
  mutable s_next_tenant : int;
  s_workers : worker Supervisor.t;
  s_worker_prog : string option;  (* what a worker re-executes; None = this binary *)
  s_hb : Obs.Heartbeat.t;
  s_t0 : float;
  s_job_seconds : Obs.Histogram.t;
  mutable s_done : int;
  mutable s_failed : int;
  mutable s_requeues : int;
  mutable s_worker_deaths : int;
  mutable s_stall_kills : int;
  mutable s_frame_kills : int;
  mutable s_corruptions : int;
  mutable s_corrupted : int list;
  mutable s_corrupt_armed : int;  (* counts down; 0 = fired/disarmed *)
  mutable s_shutdown : bool;
  mutable s_draining : bool;
  mutable s_orphans_requeued : int;
  mutable s_orphans_discarded : int;
}

(* SIGTERM = drain: set from the signal handler, consumed by the loop *)
let sigterm_drain = ref false

let counter name = Obs.counter Obs.default ("serve_" ^ name)

let c_admitted = lazy (counter "admitted_total")
let c_rejected = lazy (counter "rejected_total")
let c_done = lazy (counter "done_total")
let c_failed = lazy (counter "failed_total")
let c_requeues = lazy (counter "requeues_total")
let c_deaths = lazy (counter "worker_deaths_total")
let c_stalls = lazy (counter "stall_kills_total")
let c_frame_kills = lazy (counter "corrupt_frame_kills_total")
let c_corruptions = lazy (counter "corruptions_total")

let c_orphans_requeued = lazy (Obs.counter Obs.default "service_orphans_requeued_total")
let c_orphans_discarded = lazy (Obs.counter Obs.default "service_orphans_discarded_total")
let tick c = Obs.Counter.incr (Lazy.force c)

let spawn_worker s (c : worker Supervisor.child) =
  let cfg = s.s_cfg and wk = c.data in
  (* drop the dead incarnation's status file so staleness never blames
     the new worker for its predecessor's silence *)
  (try Sys.remove (worker_hb_path ~dir:cfg.dir ~id:wk.wk_id) with Sys_error _ -> ());
  let to_r, to_w = Unix.pipe ~cloexec:true () in
  let from_r, from_w = Unix.pipe ~cloexec:true () in
  let wcfg =
    worker_config_to_json
      { w_dir = cfg.dir; w_id = wk.wk_id; w_jobs = cfg.worker_jobs; w_heartbeat_s = cfg.heartbeat_s }
  in
  Supervisor.spawn ?prog:s.s_worker_prog c ~stdin:to_r ~stdout:from_w [ worker_marker; wcfg ];
  Unix.close to_r;
  Unix.close from_w;
  Unix.set_nonblock from_r;
  wk.wk_to <- to_w;
  wk.wk_from <- from_r;
  wk.wk_reader <- Protocol.Reader.create ();
  wk.wk_tenants <- []

let tenant_of_id s tid = Hashtbl.find_opt s.s_tenants tid

let status_fields s =
  let queued = ref 0 and running = ref 0 and drained = ref 0 in
  Hashtbl.iter
    (fun _ t ->
      match t.t_status with
      | Queued -> incr queued
      | Running _ -> incr running
      | Drained _ -> incr drained
      | Finished _ | Failed _ -> ())
    s.s_tenants;
  [
    ("schema", jstr "cheri_c.serve-status/v1");
    ("pid", jint (Unix.getpid ()));
    ("capacity", jint (Admission.capacity s.s_adm));
    ("live", jint (Admission.live s.s_adm));
    ("queued", jint !queued);
    ("running", jint !running);
    ("drained", jint !drained);
    ("draining", jbool s.s_draining);
    ("orphans_requeued", jint s.s_orphans_requeued);
    ("orphans_discarded", jint s.s_orphans_discarded);
    ("admitted", jint (Admission.admitted s.s_adm));
    ("rejected", jint (Admission.rejected s.s_adm));
    ("done", jint s.s_done);
    ("failed", jint s.s_failed);
    ("requeues", jint s.s_requeues);
    ("worker_deaths", jint s.s_worker_deaths);
    ("stall_kills", jint s.s_stall_kills);
    ("corrupt_frame_kills", jint s.s_frame_kills);
    ("corruptions", jint s.s_corruptions);
    ("corrupted", Json.Arr (List.rev_map jint s.s_corrupted));
    ( "workers",
      Json.Arr
        (Array.to_list s.s_workers
        |> List.map (fun (c : worker Supervisor.child) ->
               Json.Obj
                 [
                   ("id", jint c.data.wk_id);
                   ("pid", jint c.pid);
                   ("alive", jbool c.alive);
                   ("tenants", jint (List.length c.data.wk_tenants));
                 ])) );
    ("elapsed_s", jfloat (now () -. s.s_t0));
  ]

let status_payload s () = Json.encode (Json.Obj (status_fields s))

(* deterministically damage a checkpoint file in place: flip one bit in
   the middle so the CRC (or the header) no longer validates *)
let damage_file path =
  match Cheri_util.File.read path with
  | Error _ | Ok "" -> false
  | Ok s -> (
      let b = Bytes.of_string s in
      let pos = Bytes.length b / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      Result.is_ok (Cheri_util.File.write path (Bytes.unsafe_to_string b)))

(* reconstruct a parked tenant's position from its checkpoint file —
   used when the worker died before it could report the park (its
   drained event never reached the pipe) *)
let drained_from_disk s t =
  let ckpt = Checkpoint.path ~dir:s.s_cfg.dir ~tenant:t.t_id in
  let slices =
    if not (Sys.file_exists ckpt) then None
    else
      match Checkpoint.read ckpt with
      | Ok ck -> Some ck.Checkpoint.ck_slices
      | Error _ -> Some 0 (* torn file: the resume will scratch-restart *)
  in
  {
    dr_slices = Option.value ~default:0 slices;
    dr_migrations = t.t_migrations;
    dr_checkpoint = slices <> None;
  }

let mark_drained s t info =
  match t.t_status with
  | Queued | Running _ ->
      t.t_status <- Drained info;
      Admission.release s.s_adm
  | Finished _ | Failed _ | Drained _ -> ()

let requeue s tid =
  match tenant_of_id s tid with
  | None -> ()
  | Some t -> (
      match t.t_status with
      | Running _ when s.s_draining ->
          (* a worker crash mid-drain: the tenant is parked at whatever
             checkpoint survives (≤1 slice stale) instead of being
             rescheduled on a fleet that is going away *)
          t.t_restarts <- t.t_restarts + 1;
          mark_drained s t (drained_from_disk s t)
      | Running _ ->
          t.t_status <- Queued;
          t.t_restarts <- t.t_restarts + 1;
          s.s_requeues <- s.s_requeues + 1;
          tick c_requeues;
          (* chaos hook: the k-th requeue that has a checkpoint on disk
             gets it damaged before any worker can resume from it *)
          if s.s_corrupt_armed > 0 then begin
            let ckpt = Checkpoint.path ~dir:s.s_cfg.dir ~tenant:tid in
            if Sys.file_exists ckpt then begin
              s.s_corrupt_armed <- s.s_corrupt_armed - 1;
              if s.s_corrupt_armed = 0 && damage_file ckpt then begin
                s.s_corruptions <- s.s_corruptions + 1;
                s.s_corrupted <- tid :: s.s_corrupted;
                tick c_corruptions
              end
            end
          end
      | Queued | Finished _ | Failed _ | Drained _ -> ())

let least_loaded s =
  Array.to_list s.s_workers
  |> List.filter_map (fun (c : worker Supervisor.child) ->
         if c.alive && not c.stalled then Some c.data else None)
  |> List.fold_left
       (fun acc wk ->
         match acc with
         | None -> Some wk
         | Some best ->
             if List.length wk.wk_tenants < List.length best.wk_tenants then Some wk else acc)
       None

let schedule s =
  if s.s_draining then ()
  else
  let queued =
    Hashtbl.fold (fun tid t acc -> match t.t_status with Queued -> (tid, t) :: acc | _ -> acc)
      s.s_tenants []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (tid, t) ->
      match least_loaded s with
      | None -> () (* every worker dead or draining; the tick respawns *)
      | Some wk -> (
          let a =
            {
              a_tenant = tid;
              a_source = t.t_source;
              a_abi = t.t_abi;
              a_fuel = t.t_fuel;
              a_slice = t.t_slice;
              a_deadline_s = t.t_deadline_s;
              a_restarts = t.t_restarts;
              a_migrations = t.t_migrations;
            }
          in
          match Protocol.write_frame wk.wk_to (Json.encode (assignment_to_json a)) with
          | () ->
              t.t_status <- Running wk.wk_id;
              wk.wk_tenants <- tid :: wk.wk_tenants
          | exception Unix.Unix_error _ ->
              (* the worker died under us; leave the tenant queued —
                 the reap pass will recycle the worker and reschedule *)
              ()))
    queued

let finish_tenant s wk tid result =
  match tenant_of_id s tid with
  | None -> ()
  | Some t -> (
      match t.t_status with
      | Running w when w = wk.wk_id -> (
          wk.wk_tenants <- List.filter (fun x -> x <> tid) wk.wk_tenants;
          t.t_done_t <- now ();
          Obs.Histogram.observe s.s_job_seconds (t.t_done_t -. t.t_submit_t);
          Admission.release s.s_adm;
          match result with
          | Ok r ->
              t.t_status <- Finished r;
              s.s_done <- s.s_done + 1;
              tick c_done
          | Error detail ->
              t.t_status <- Failed detail;
              s.s_failed <- s.s_failed + 1;
              tick c_failed)
      | _ -> () (* late event from a drained pipe for a reassigned tenant *))

let handle_worker_frame s wk frame =
  match Json.parse frame with
  | Error _ -> ()
  | Ok j -> (
      match (Json.mem_str "event" j, Json.mem_int "tenant" j) with
      | Some "done", Some tid -> (
          match tresult_of_json j with
          | Ok r -> finish_tenant s wk tid (Ok r)
          | Error e -> finish_tenant s wk tid (Error e))
      | Some "drained", Some tid -> (
          match tenant_of_id s tid with
          | None -> ()
          | Some t -> (
              match t.t_status with
              | Running w when w = wk.wk_id ->
                  wk.wk_tenants <- List.filter (fun x -> x <> tid) wk.wk_tenants;
                  let ckpt = Checkpoint.path ~dir:s.s_cfg.dir ~tenant:tid in
                  mark_drained s t
                    {
                      dr_slices = Option.value ~default:0 (Json.mem_int "slices" j);
                      dr_migrations =
                        Option.value ~default:t.t_migrations (Json.mem_int "migrations" j);
                      dr_checkpoint = Sys.file_exists ckpt;
                    }
              | _ -> ()))
      | Some "error", Some tid ->
          finish_tenant s wk tid
            (Error (Option.value ~default:"worker error" (Json.mem_str "detail" j)))
      | _ -> ())

(* A frame stream that stops parsing never parses again: the reader
   cannot find the next frame boundary, so no later done, drained or
   error event of that worker would be read, and its fresh heartbeat
   would keep its tenants [running] for good. Such a worker is killed
   like a stalled one (marked, so it gets no new tenants and is killed
   once); its reap requeues the tenants from their checkpoints. The
   worker side does the same on a corrupt supervisor stream: it exits. *)
let drain_worker_frames s (c : worker Supervisor.child) =
  let wk = c.data in
  let rec go () =
    match Protocol.Reader.next wk.wk_reader with
    | `Frame f ->
        handle_worker_frame s wk f;
        go ()
    | `Awaiting -> ()
    | `Corrupt _ ->
        if c.alive && not c.stalled then begin
          c.stalled <- true;
          s.s_frame_kills <- s.s_frame_kills + 1;
          tick c_frame_kills;
          try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()
        end
  in
  go ()

(* read whatever the worker pipe holds right now; [`Eof] once the
   write end is gone (worker dead and buffer drained) *)
let pump_worker s (c : worker Supervisor.child) =
  let wk = c.data in
  let buf = Bytes.create 65536 in
  let rec go () =
    match Unix.read wk.wk_from buf 0 (Bytes.length buf) with
    | 0 -> `Eof
    | n ->
        Protocol.Reader.feed wk.wk_reader (Bytes.sub_string buf 0 n);
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Open
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> `Eof
  in
  let state = go () in
  drain_worker_frames s c;
  state

(* the reap callback: [c] is already marked dead *)
let on_worker_death s (c : worker Supervisor.child) =
  let wk = c.data in
  (* a worker exiting 0 because its drain completed is not a death *)
  if not s.s_draining then begin
    s.s_worker_deaths <- s.s_worker_deaths + 1;
    tick c_deaths
  end;
  (* completions that reached the pipe before the crash are honored
     first — only tenants with no buffered done event are requeued,
     which is what bounds the loss at one in-flight slice *)
  let rec drain_to_eof () = match pump_worker s c with `Eof -> () | `Open -> drain_to_eof () in
  drain_to_eof ();
  (try Unix.close wk.wk_from with Unix.Unix_error _ -> ());
  (try Unix.close wk.wk_to with Unix.Unix_error _ -> ());
  let orphans = List.rev wk.wk_tenants in
  wk.wk_tenants <- [];
  List.iter (requeue s) orphans;
  (* a draining supervisor is going away: no respawn, the parked
     tenants leave with the manifest *)
  if not s.s_draining then begin
    spawn_worker s c;
    schedule s
  end

(* only workers holding tenants are probed: an idle worker has nothing
   a stall could cost *)
let probe_workers s =
  let cfg = s.s_cfg in
  Supervisor.probe s.s_workers
    ~eligible:(fun c -> c.data.wk_tenants <> [])
    ~grace_s:((2. *. cfg.heartbeat_s) +. 1.0)
    ~interval_s:cfg.heartbeat_s
    ~path:(fun c -> worker_hb_path ~dir:cfg.dir ~id:c.data.wk_id)
    ~on_stale:(fun _ ->
      s.s_stall_kills <- s.s_stall_kills + 1;
      tick c_stalls)

(* ---------- hand-off entries ---------- *)

(* What a supervisor hands upward — to a router's [take] request while
   running, or through the drain manifest when exiting. One shape for
   both channels, so the router adopts results and parked tenants with
   a single parser whether the shard is alive or already gone. *)

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

let taken_tenant = function
  | T_done e -> e.tk_tenant
  | T_failed e -> e.tk_tenant
  | T_drained e -> e.tk_tenant

let taken_to_json = function
  | T_done e ->
      Json.Obj
        (("tenant", jint e.tk_tenant) :: ("state", jstr "done")
        :: ("restarts", jint e.tk_restarts) :: tresult_fields e.tk_result)
  | T_failed e ->
      Json.Obj
        [
          ("tenant", jint e.tk_tenant);
          ("state", jstr "failed");
          ("detail", jstr e.tk_detail);
          ("restarts", jint e.tk_restarts);
          ("migrations", jint e.tk_migrations);
        ]
  | T_drained e ->
      Json.Obj
        [
          ("tenant", jint e.tk_tenant);
          ("state", jstr "drained");
          ("source", jstr e.tk_source);
          ("abi", jstr e.tk_abi);
          ("fuel", jint e.tk_fuel);
          ("slice", jint e.tk_slice);
          ("deadline_s", match e.tk_deadline_s with Some d -> jfloat d | None -> Json.Null);
          ("restarts", jint e.tk_restarts);
          ("migrations", jint e.tk_migrations);
          ("slices", jint e.tk_slices);
          ("checkpoint", jbool e.tk_checkpoint);
        ]

let taken_of_json j =
  let i k = Option.value ~default:0 (Json.mem_int k j) in
  match (Json.mem_int "tenant" j, Json.mem_str "state" j) with
  | Some tid, Some "done" -> (
      match tresult_of_json j with
      | Ok r -> Ok (T_done { tk_tenant = tid; tk_restarts = i "restarts"; tk_result = r })
      | Error e -> Error e)
  | Some tid, Some "failed" ->
      Ok
        (T_failed
           {
             tk_tenant = tid;
             tk_restarts = i "restarts";
             tk_migrations = i "migrations";
             tk_detail = Option.value ~default:"failed" (Json.mem_str "detail" j);
           })
  | Some tid, Some "drained" -> (
      match (Json.mem_str "source" j, Json.mem_str "abi" j) with
      | Some tk_source, Some tk_abi ->
          Ok
            (T_drained
               {
                 tk_tenant = tid;
                 tk_source;
                 tk_abi;
                 tk_fuel = i "fuel";
                 tk_slice = i "slice";
                 tk_deadline_s = Json.mem_float "deadline_s" j;
                 tk_restarts = i "restarts";
                 tk_migrations = i "migrations";
                 tk_slices = i "slices";
                 tk_checkpoint = Option.value ~default:false (Json.mem_bool "checkpoint" j);
               })
      | _ -> Error "taken entry: drained without source/abi")
  | Some _, Some st -> Error ("taken entry: unknown state " ^ st)
  | _ -> Error "taken entry: missing tenant/state"

let taken_of_tenant (t : tenant) =
  match t.t_status with
  | Finished r -> Some (T_done { tk_tenant = t.t_id; tk_restarts = t.t_restarts; tk_result = r })
  | Failed d ->
      Some
        (T_failed
           {
             tk_tenant = t.t_id;
             tk_restarts = t.t_restarts;
             tk_migrations = t.t_migrations;
             tk_detail = d;
           })
  | Drained i ->
      Some
        (T_drained
           {
             tk_tenant = t.t_id;
             tk_source = t.t_source;
             tk_abi = t.t_abi;
             tk_fuel = t.t_fuel;
             tk_slice = t.t_slice;
             tk_deadline_s = t.t_deadline_s;
             tk_restarts = t.t_restarts;
             tk_migrations = i.dr_migrations;
             tk_slices = i.dr_slices;
             tk_checkpoint = i.dr_checkpoint;
           })
  | Queued | Running _ -> None

(* ---------- drain manifest ---------- *)

(* the supervisor's will: written (temp+rename, so never torn) right
   before a drained supervisor exits, read by the router at reap time *)

let manifest_schema = "cheri_c.serve-drain/v1"
let manifest_path ~dir = Filename.concat dir "drained.json"

let manifest_to_json entries =
  Json.Obj
    [ ("schema", jstr manifest_schema); ("entries", Json.Arr (List.map taken_to_json entries)) ]

let manifest_of_json s =
  match Json.parse s with
  | Error e -> Error ("drain manifest: " ^ e)
  | Ok j -> (
      match Json.mem_str "schema" j with
      | Some sch when sch = manifest_schema -> (
          match Json.member "entries" j with
          | Some (Json.Arr l) ->
              List.fold_left
                (fun acc e ->
                  match (acc, taken_of_json e) with
                  | Ok xs, Ok x -> Ok (x :: xs)
                  | (Error _ as err), _ -> err
                  | _, Error e -> Error e)
                (Ok []) l
              |> Result.map List.rev
          | _ -> Error "drain manifest: missing entries")
      | Some sch -> Error ("drain manifest: foreign schema " ^ sch)
      | None -> Error "drain manifest: no schema")

let write_manifest ~dir entries =
  try Obs.Heartbeat.write_atomic ~path:(manifest_path ~dir) (Json.encode (manifest_to_json entries))
  with Sys_error _ | Unix.Unix_error _ -> ()

(* ---------- client requests ---------- *)

let err = Frontend.err

type submit = {
  sb_source : string;
  sb_abi : string;
  sb_fuel : int;
  sb_slice : int;
  sb_deadline_s : float option;
}

(* The one submit validation, for both tiers: a source, a known ABI
   (CHERIv3 by default, stored under its canonical name), fuel and
   slice defaulted from the tier's config and at least 1. *)
let submit_of_json ~fuel ~slice j =
  let bad detail = Error (err "bad_request" ~extra:[ ("detail", jstr detail) ]) in
  match Json.mem_str "source" j with
  | None -> bad "missing source"
  | Some sb_source -> (
      let abi = Option.value ~default:"CHERIv3" (Json.mem_str "abi" j) in
      match Abi.of_key abi with
      | None -> bad (Printf.sprintf "unknown abi %S" abi)
      | Some a ->
          let sb_fuel = Option.value ~default:fuel (Json.mem_int "fuel" j) in
          let sb_slice = Option.value ~default:slice (Json.mem_int "slice" j) in
          if sb_fuel < 1 || sb_slice < 1 then bad "fuel and slice must be >= 1"
          else
            Ok
              {
                sb_source;
                sb_abi = Abi.name a;
                sb_fuel;
                sb_slice;
                sb_deadline_s = Json.mem_float "deadline_s" j;
              })

let handle_submit s j =
  if s.s_draining then err "draining"
  else
    match submit_of_json ~fuel:s.s_cfg.fuel ~slice:s.s_cfg.slice j with
    | Error reply -> reply
    | Ok sb -> (
        (* an explicit tenant id marks an adoption: a router is placing
           (or re-placing) a globally-admitted tenant, so per-shard
           admission must not bounce it — capacity was charged at first
           admission, and a rejection here would strand a tenant that
           already holds a fleet slot *)
        let explicit = Json.mem_int "tenant" j in
        match explicit with
        | Some tid when Hashtbl.mem s.s_tenants tid ->
            err "tenant_exists" ~extra:[ ("tenant", jint tid) ]
        | _ -> (
            let decision =
              match explicit with
              | Some _ ->
                  Admission.admit_forced s.s_adm;
                  Admission.Admit
              | None -> Admission.request s.s_adm
            in
            match decision with
            | Admission.Reject { retry_after_s } ->
                tick c_rejected;
                err "overloaded" ~extra:[ ("retry_after_s", jfloat retry_after_s) ]
            | Admission.Admit ->
                tick c_admitted;
                let tid = match explicit with Some tid -> tid | None -> s.s_next_tenant in
                s.s_next_tenant <- max s.s_next_tenant (tid + 1);
                Hashtbl.replace s.s_tenants tid
                  {
                    t_id = tid;
                    t_source = sb.sb_source;
                    t_abi = sb.sb_abi;
                    t_fuel = sb.sb_fuel;
                    t_slice = sb.sb_slice;
                    t_deadline_s = sb.sb_deadline_s;
                    t_status = Queued;
                    t_restarts = Option.value ~default:0 (Json.mem_int "restarts" j);
                    t_migrations = Option.value ~default:0 (Json.mem_int "migrations" j);
                    t_submit_t = now ();
                    t_done_t = 0.;
                  };
                schedule s;
                Json.Obj [ ("ok", jbool true); ("tenant", jint tid) ]))

let handle_poll s j =
  match Json.mem_int "tenant" j with
  | None -> err "bad_request" ~extra:[ ("detail", jstr "missing tenant") ]
  | Some tid -> (
      match tenant_of_id s tid with
      | None -> err "unknown_tenant"
      | Some t ->
          let base = [ ("ok", jbool true); ("tenant", jint tid) ] in
          let state, extra =
            match t.t_status with
            | Queued -> ("queued", [])
            | Running w -> ("running", [ ("worker", jint w) ])
            | Finished r -> ("done", [ ("result", result_json r ~restarts:t.t_restarts) ])
            | Failed d -> ("failed", [ ("detail", jstr d) ])
            | Drained i ->
                ( "drained",
                  [ ("slices", jint i.dr_slices); ("migrations", jint i.dr_migrations) ] )
          in
          Json.Obj (base @ [ ("state", jstr state) ] @ extra))

(* Start a drain: refuse new admissions, park every queued tenant at
   its (possibly absent) checkpoint, and ask every worker to park its
   running ones at their next yield. Completion is detected by the main
   loop once nothing is Running; nothing is interrupted mid-slice, so
   drained checkpoints are exact, not torn. *)
(* a control frame down a worker's pipe; a dead pipe is the reap
   pass's business *)
let tell wk fields =
  try Protocol.write_frame wk.wk_to (Json.encode (Json.Obj fields)) with Unix.Unix_error _ -> ()

let initiate_drain s =
  if not s.s_draining then begin
    s.s_draining <- true;
    Hashtbl.iter
      (fun _ t ->
        match t.t_status with
        | Queued -> mark_drained s t (drained_from_disk s t)
        | _ -> ())
      s.s_tenants;
    Array.iter
      (fun (c : worker Supervisor.child) -> if c.alive then tell c.data [ ("op", jstr "drain") ])
      s.s_workers
  end

let handle_evict s j =
  match Json.mem_int "tenant" j with
  | None -> err "bad_request" ~extra:[ ("detail", jstr "missing tenant") ]
  | Some tid -> (
      match tenant_of_id s tid with
      | None -> err "unknown_tenant"
      | Some t -> (
          let ok state = Json.Obj [ ("ok", jbool true); ("state", jstr state) ] in
          match t.t_status with
          | Queued ->
              mark_drained s t (drained_from_disk s t);
              ok "drained"
          | Running w -> (
              (* a dying worker drops the frame: the reap pass will
                 requeue the tenant; the router's next evict finds it
                 Queued *)
              Array.iter
                (fun (c : worker Supervisor.child) ->
                  if c.alive && c.data.wk_id = w then
                    tell c.data [ ("op", jstr "evict"); ("tenant", jint tid) ])
                s.s_workers;
              ok "evicting")
          | Drained _ -> ok "drained"
          | Finished _ -> ok "done"
          | Failed _ -> ok "failed"))

(* collect-and-remove every terminal tenant: the one result channel a
   router needs (polling per-tenant would race worker deaths) *)
let handle_take s =
  let taken =
    Hashtbl.fold
      (fun tid t acc -> match taken_of_tenant t with Some e -> (tid, e) :: acc | None -> acc)
      s.s_tenants []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter (fun (tid, _) -> Hashtbl.remove s.s_tenants tid) taken;
  Json.Obj
    [ ("ok", jbool true); ("entries", Json.Arr (List.map (fun (_, e) -> taken_to_json e) taken)) ]

(* the supervisor's own ops; stats, metrics and shutdown are the
   Frontend's. A drain is answered when it completes. *)
let handlers s =
  let reply r = Some (Frontend.Reply r) in
  {
    Frontend.status = (fun () -> status_fields s);
    shutdown = (fun () -> s.s_shutdown <- true);
    request =
      (fun op j ->
        match op with
        | "submit" -> reply (handle_submit s j)
        | "poll" -> reply (handle_poll s j)
        | "take" -> reply (handle_take s)
        | "evict" -> reply (handle_evict s j)
        | "drain" ->
            initiate_drain s;
            Some (Frontend.Defer "drain")
        | _ -> None);
  }

(* ---------- startup: orphan sweep ---------- *)

(* Sweep the checkpoints directory for orphans — tenants whose
   supervisor was SIGKILLed out from under them. Each file is
   load-verified (CRC and note schema): a valid self-describing
   checkpoint yields its meta so the caller can requeue the tenant; a
   corrupt or pre-migration one (no embedded assignment to requeue
   from) is deleted and counted. Spares ([*.snap.tmp]) are deleted
   uncounted: nothing reads them, and a save recreates one. Exposed for
   tests. *)
let sweep_checkpoints ~dir =
  let cdir = Filename.concat dir "checkpoints" in
  let entries = try Array.to_list (Sys.readdir cdir) with Sys_error _ -> [] in
  List.iter
    (fun f ->
      if Filename.check_suffix f (Cheri_snapshot.Snapshot.spare ".snap") then
        try Sys.remove (Filename.concat cdir f) with Sys_error _ -> ())
    entries;
  let files = List.filter (fun f -> Filename.check_suffix f ".snap") entries |> List.sort compare in
  let valid, discarded =
    List.fold_left
      (fun (valid, discarded) f ->
        let path = Filename.concat cdir f in
        match Checkpoint.read path with
        | Ok m when Checkpoint.self_describing m -> (m :: valid, discarded)
        | Ok _ | Error _ ->
            Resumable.discard path;
            (valid, discarded + 1))
      ([], 0) files
  in
  (List.rev valid, discarded)

(* drain finished: everything is parked or terminal — write the will,
   answer every admin who asked, and let the loop fall out *)
let maybe_finish_drain s =
  if s.s_draining && not s.s_shutdown then begin
    let all_parked =
      Hashtbl.fold
        (fun _ t acc -> acc && match t.t_status with Running _ -> false | _ -> true)
        s.s_tenants true
    in
    if all_parked then begin
      let entries =
        Hashtbl.fold
          (fun _ t acc -> match taken_of_tenant t with Some e -> e :: acc | None -> acc)
          s.s_tenants []
        |> List.sort (fun a b -> compare (taken_tenant a) (taken_tenant b))
      in
      write_manifest ~dir:s.s_cfg.dir entries;
      Frontend.resolve s.s_fe "drain"
        (Json.Obj
           [ ("ok", jbool true); ("drained", jbool true); ("tenants", jint (List.length entries)) ]);
      s.s_shutdown <- true
    end
  end

let server_main ?worker_prog (cfg : config) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  sigterm_drain := false;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> sigterm_drain := true));
  Supervisor.mkdir_p (Filename.concat cfg.dir "workers");
  Supervisor.mkdir_p (Filename.concat cfg.dir "checkpoints");
  (try Sys.remove (manifest_path ~dir:cfg.dir) with Sys_error _ -> ());
  let fe = Frontend.listen cfg.socket in
  let s =
    {
      s_cfg = cfg;
      s_adm =
        Admission.create ~seed:cfg.seed ~retry_base_s:cfg.retry_base_s ~capacity:cfg.capacity ();
      s_fe = fe;
      s_tenants = Hashtbl.create 64;
      s_next_tenant = 0;
      s_workers =
        Supervisor.create (max 1 cfg.workers) (fun i ->
            {
              wk_id = i;
              wk_to = Unix.stderr;
              wk_from = Unix.stderr;
              wk_reader = Protocol.Reader.create ();
              wk_tenants = [];
            });
      s_worker_prog = worker_prog;
      s_hb =
        Obs.Heartbeat.create
          ~interval_s:(if cfg.status_s > 0. then cfg.status_s else 1.0)
          ~path:(Filename.concat cfg.dir "status.json") ();
      s_t0 = now ();
      s_job_seconds = Obs.histogram Obs.default "serve_job_seconds";
      s_done = 0;
      s_failed = 0;
      s_requeues = 0;
      s_worker_deaths = 0;
      s_stall_kills = 0;
      s_frame_kills = 0;
      s_corruptions = 0;
      s_corrupted = [];
      s_corrupt_armed = cfg.corrupt_requeue;
      s_shutdown = false;
      s_draining = false;
      s_orphans_requeued = 0;
      s_orphans_discarded = 0;
    }
  in
  (* adopt orphans before anything can race them: checkpoints left by a
     SIGKILLed predecessor in this directory become queued tenants
     again (their next worker resumes from the file); corrupt ones are
     deleted and counted, never retried *)
  let recovered, discarded = sweep_checkpoints ~dir:cfg.dir in
  List.iter
    (fun (m : Checkpoint.meta) ->
      Admission.admit_forced s.s_adm;
      tick c_admitted;
      tick c_orphans_requeued;
      s.s_orphans_requeued <- s.s_orphans_requeued + 1;
      s.s_next_tenant <- max s.s_next_tenant (m.Checkpoint.ck_tenant + 1);
      Hashtbl.replace s.s_tenants m.Checkpoint.ck_tenant
        {
          t_id = m.Checkpoint.ck_tenant;
          t_source = m.Checkpoint.ck_source;
          t_abi = m.Checkpoint.ck_abi;
          t_fuel = m.Checkpoint.ck_fuel;
          t_slice = m.Checkpoint.ck_slice;
          t_deadline_s = m.Checkpoint.ck_deadline_s;
          t_status = Queued;
          t_restarts = m.Checkpoint.ck_restarts + 1;
          t_migrations = m.Checkpoint.ck_migrations;
          t_submit_t = now ();
          t_done_t = 0.;
        })
    recovered;
  s.s_orphans_discarded <- discarded;
  for _ = 1 to discarded do
    tick c_orphans_discarded
  done;
  Array.iter (spawn_worker s) s.s_workers;
  schedule s;
  Obs.Heartbeat.force s.s_hb (status_payload s);
  let h = handlers s in
  let pump_fd fd =
    Array.iter
      (fun (c : worker Supervisor.child) ->
        if c.alive && c.data.wk_from = fd then ignore (pump_worker s c : [ `Eof | `Open ]))
      s.s_workers
  in
  let rec loop () =
    if not s.s_shutdown then begin
      let worker_fds =
        Array.to_list s.s_workers
        |> List.filter_map (fun (c : worker Supervisor.child) ->
               if c.alive then Some c.data.wk_from else None)
      in
      Frontend.tick s.s_fe h ~timeout_s:cfg.tick_s ~extra:worker_fds ~on_extra:pump_fd;
      Supervisor.reap s.s_workers ~on_exit:(fun c _ -> on_worker_death s c);
      probe_workers s;
      if !sigterm_drain then initiate_drain s;
      schedule s;
      maybe_finish_drain s;
      Obs.Heartbeat.beat s.s_hb (status_payload s);
      loop ()
    end
  in
  loop ();
  Obs.Heartbeat.force s.s_hb (status_payload s);
  Supervisor.stop s.s_workers ~deadline_s:2.0
    ~quit:(fun c ->
      tell c.data [ ("op", jstr "quit") ];
      try Unix.close c.data.wk_to with Unix.Unix_error _ -> ())
    ~on_exit:(fun _ _ -> ());
  Array.iter
    (fun (c : worker Supervisor.child) ->
      try Unix.close c.data.wk_from with Unix.Unix_error _ -> ())
    s.s_workers;
  Frontend.close s.s_fe

(* ------------------------------------------------------------------ *)
(* Child dispatch                                                      *)

(* Host binaries (cheri-serve, bench/main) call this before their own
   argument parsing: a process re-executed with a marker in argv[1] is
   a service child, not a CLI invocation. *)
let child_dispatch () =
  if Array.length Sys.argv >= 3 then
    if Sys.argv.(1) = worker_marker then
      match worker_config_of_json Sys.argv.(2) with
      | Ok w -> worker_main w
      | Error e ->
          prerr_endline ("serve worker child: " ^ e);
          exit 2
    else if Sys.argv.(1) = server_marker then
      match config_of_json Sys.argv.(2) with
      | Ok cfg ->
          server_main cfg;
          exit 0
      | Error e ->
          prerr_endline ("serve server child: " ^ e);
          exit 2
