(* Kill-a-worker chaos harness for the multi-tenant service.

   The harness is an open-loop client of a real server: it spawns the
   supervisor as a separate process, floods it with more tenants than
   the admission cap (asserting the overflow gets structured
   `overloaded` rejections with retry-after hints, not queue growth),
   and while the fleet is busy it disrupts it for real — one worker is
   SIGSTOPped (the supervisor must detect the stale heartbeat and
   SIGKILL it), [kills] more are SIGKILLed outright, and one requeued
   tenant's checkpoint file is damaged on disk (the supervisor's
   corrupt_requeue hook), which must demote to a clean restart rather
   than crash anything.

   The verdict is byte-identity: after every tenant completes, each one
   is replayed in-process through Service.run_serial — the exact
   fuel-sliced loop a worker runs — and output, cycles, instret,
   outcome AND slice count must match exactly. Slice-count equality is
   the "at most one slice lost" invariant made observable: a tenant's
   slice counter rides inside its checkpoint note, so the only slice a
   crash can take is the one in flight (counted by neither side), and
   any further loss — a stale checkpoint, a replayed slice — would show
   up as a count mismatch. The requeue ledger is cross-checked too:
   the sum of per-tenant restart counters must equal the supervisor's
   requeues counter, which is itself bounded by deaths x capacity. *)

module Json = Cheri_util.Json

let jint n = Json.Num (string_of_int n)
let jstr s = Json.Str s
let now = Unix.gettimeofday

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | st -> (
      match st.Unix.st_kind with
      | Unix.S_DIR ->
          Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
          (try Unix.rmdir path with Unix.Unix_error _ -> ())
      | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Client: spawn a server process, speak the protocol to it            *)

module Client = struct
  type t = { fd : Unix.file_descr; rd : Protocol.Reader.t }

  let spawn_server cfg = Supervisor.exec [ Service.server_marker; Service.config_to_json cfg ]
  let spawn_router rcfg = Supervisor.exec [ Router.router_marker; Router.rconfig_to_json rcfg ]

  let connect path = { fd = Protocol.connect path; rd = Protocol.Reader.create () }

  let wait_socket path ~timeout_s =
    let deadline = now () +. timeout_s in
    let rec go () =
      match connect path with
      | c ->
          Unix.close c.fd;
          true
      | exception Unix.Unix_error _ ->
          if now () > deadline then false
          else begin
            ignore (Unix.select [] [] [] 0.02);
            go ()
          end
    in
    go ()

  let request t j = Protocol.request t.fd t.rd j
  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* The live row of a stats array ([key] = "workers" or "shards")
   holding the most tenants, as (row, pid, tenants); ties keep the
   earlier row. *)
let busiest ?(ok = fun _ -> true) st key =
  match Json.member key st with
  | Some (Json.Arr rows) ->
      List.fold_left
        (fun acc row ->
          match (Json.mem_bool "alive" row, Json.mem_int "pid" row, Json.mem_int "tenants" row) with
          | Some true, Some pid, Some n when n >= 1 && ok row -> (
              match acc with Some (_, _, best_n) when best_n >= n -> acc | _ -> Some (row, pid, n))
          | _ -> acc)
        None rows
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Synthetic tenants                                                   *)

let tenant_source ~seed ~index =
  let mix = Router.mix in
  let r0 = mix ((seed * 1_000_003) + index) in
  let r1 = mix r0 and r2 = mix (mix r0) in
  let iters = 20_000 + (r0 mod 60_000) in
  let stride = 1 + (r1 mod 997) in
  let acc0 = r2 mod 100_000 in
  Printf.sprintf
    {|
int main(void) {
  long *tab = (long *)malloc(8 * 64);
  for (long i = 0; i < 64; i++) { tab[i] = %d + i * %d; }
  long acc = %d;
  for (long i = 0; i < %d; i++) {
    acc = acc * 1103515245 + 12345 + tab[i & 63];
  }
  print_int(acc & 1048575);
  return 0;
}
|}
    (stride * 7) stride acc0 iters

let spin_source = {|
int main(void) {
  long i = 0;
  while (1) { i = i + 1; }
  return 0;
}
|}

let abis = [| "mips"; "cheriv2"; "cheriv3" |]

(* ------------------------------------------------------------------ *)
(* The harness                                                         *)

type cfg = {
  ch_tenants : int;
  ch_kills : int;
  ch_seed : int;
  ch_workers : int;
  ch_worker_jobs : int;
  ch_slice : int;
  ch_keep : bool;
  ch_verbose : bool;
}

let default =
  {
    ch_tenants = 16;
    ch_kills = 3;
    ch_seed = 42;
    ch_workers = 2;
    ch_worker_jobs = 1;
    ch_slice = 20_000;
    ch_keep = false;
    ch_verbose = false;
  }

type spec = {
  x_index : int;
  x_source : string;
  x_abi : string;
  x_fuel : int;
  x_slice : int;
  mutable x_tid : int option;
  mutable x_result : Json.t option;  (* the poll "result" object *)
  mutable x_restarts : int;
}

exception Chaos_failure of string

(* ------------------------------------------------------------------ *)
(* What both harnesses share once their service is up                  *)

(* [n] tenants over the three ABIs; the last one never terminates, so
   the fuel watchdog must cut it off deterministically *)
let make_specs ~seed ~slice n =
  Array.init n (fun i ->
      let spin = i = n - 1 in
      {
        x_index = i;
        x_source = (if spin then spin_source else tenant_source ~seed ~index:i);
        x_abi = (if spin then "cheriv3" else abis.(i mod Array.length abis));
        x_fuel = (if spin then 150_000 else 50_000_000);
        x_slice = slice;
        x_tid = None;
        x_result = None;
        x_restarts = 0;
      })

(* a client session plus the assertion and admission ledgers *)
type session = {
  cl : Client.t;
  label : string;
  errors : string list ref;
  mutable rejections : int;
  mutable best_hint : float;
}

let err ss fmt = Printf.ksprintf (fun m -> ss.errors := m :: !(ss.errors)) fmt

let request ss j =
  match Client.request ss.cl j with
  | Ok r -> r
  | Error e -> raise (Chaos_failure (ss.label ^ " request failed: " ^ e))

let stats ss = request ss (Json.Obj [ ("op", jstr "stats") ])

(* spawn the service with [spawn], wait for its socket and run [body]
   on a session; the process is SIGKILLed and reaped whatever happens,
   and [dir] removed unless [keep] *)
let with_service ~label ~spawn ~socket ~socket_timeout_s ~dir ~keep body =
  rm_rf dir;
  let pid = spawn () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if not keep then rm_rf dir)
    (fun () ->
      if not (Client.wait_socket socket ~timeout_s:socket_timeout_s) then
        raise (Chaos_failure (label ^ " socket never came up"));
      body pid
        {
          cl = Client.connect socket;
          label;
          errors = ref [];
          rejections = 0;
          best_hint = 0.0;
        })

let submit ss sp =
  let req =
    Json.Obj
      [
        ("op", jstr "submit");
        ("source", jstr sp.x_source);
        ("abi", jstr sp.x_abi);
        ("fuel", jint sp.x_fuel);
        ("slice", jint sp.x_slice);
      ]
  in
  let r = request ss req in
  match (Json.mem_bool "ok" r, Json.mem_int "tenant" r, Json.mem_str "error" r) with
  | Some true, Some tid, _ ->
      sp.x_tid <- Some tid;
      `Admitted
  | Some false, _, Some "overloaded" -> (
      ss.rejections <- ss.rejections + 1;
      match Json.mem_float "retry_after_s" r with
      | Some h when h > 0.0 ->
          if h > ss.best_hint then ss.best_hint <- h;
          `Rejected h
      | _ ->
          err ss "overloaded rejection without a positive retry_after_s hint";
          `Rejected 0.05)
  | _ -> raise (Chaos_failure ("unexpected submit reply: " ^ Json.encode r))

(* The open-loop main loop: submit (burst until rejected, then honor a
   clamp of the hint so the test stays fast), poll every admitted
   tenant, and fire the next scheduled disruption once enough tenants
   are done — until every tenant has finished. [check] sees every
   stats reply; [fire] returns false when nobody is busy this instant
   (retried next poll). *)
let drive ss specs ~limit_s ~check ~disruptions ~fire =
  let pending = Queue.create () in
  Array.iter (fun sp -> Queue.add sp pending) specs;
  let next_submit_t = ref 0.0 in
  let finished = ref 0 in
  let n = Array.length specs in
  let deadline = now () +. limit_s in
  while !finished < n do
    if now () > deadline then
      raise
        (Chaos_failure
           (Printf.sprintf "timeout: %d/%d tenants done, stats %s" !finished n
              (Json.encode (stats ss))));
    if (not (Queue.is_empty pending)) && now () >= !next_submit_t then begin
      match submit ss (Queue.peek pending) with
      | `Admitted -> ignore (Queue.pop pending)
      | `Rejected hint -> next_submit_t := now () +. Float.min hint 0.1
    end;
    let st = stats ss in
    check st;
    let done_now = Option.value ~default:0 (Json.mem_int "done" st) in
    (match !disruptions with
    | (threshold, kind) :: rest when done_now >= threshold ->
        if fire st kind then disruptions := rest
    | _ -> ());
    Array.iter
      (fun sp ->
        match (sp.x_tid, sp.x_result) with
        | Some tid, None -> (
            let r = request ss (Json.Obj [ ("op", jstr "poll"); ("tenant", jint tid) ]) in
            match Json.mem_str "state" r with
            | Some "done" ->
                sp.x_result <- Json.member "result" r;
                sp.x_restarts <-
                  Option.value ~default:0
                    (Option.bind (Json.member "result" r) (Json.mem_int "restarts"));
                incr finished
            | Some "failed" ->
                err ss "tenant %d failed: %s" sp.x_index
                  (Option.value ~default:"?" (Json.mem_str "detail" r));
                sp.x_result <- Some (Json.Obj []);
                incr finished
            | Some _ -> ()
            | None -> err ss "poll reply without state: %s" (Json.encode r))
        | _ -> ())
      specs;
    ignore (Unix.select [] [] [] 0.02)
  done;
  if !disruptions <> [] then
    err ss "all tenants finished before %d disruption(s) could fire" (List.length !disruptions)

let check_admission ss ~capacity ~tenants =
  if ss.rejections < 1 then
    err ss "over-admission burst was never rejected (capacity %d, tenants %d)" capacity tenants;
  if ss.best_hint <= 0.0 then err ss "no positive retry_after_s hint observed"

(* Byte-identity against the undisturbed serial reference, tenant by
   tenant; [extra] runs the harness's own checks on a tenant whose
   reference ran. Slice-count equality IS the <=1-slice-loss bound, in
   one supervisor and across shard boundaries alike: the counter rides
   in the checkpoint note, so only the uncheckpointed in-flight slice
   can be redone (a drain loses zero), and it is counted exactly once
   either way. *)
let verify ss specs ~extra =
  Array.iter
    (fun sp ->
      match sp.x_result with
      | None -> err ss "tenant %d never finished" sp.x_index
      | Some r -> (
          match Service.run_serial ~abi:sp.x_abi ~fuel:sp.x_fuel ~slice:sp.x_slice sp.x_source with
          | Error e -> err ss "tenant %d: serial reference failed: %s" sp.x_index e
          | Ok expect ->
              let got_s k = Option.value ~default:"<missing>" (Json.mem_str k r) in
              let got_i k = Option.value ~default:(-1) (Json.mem_int k r) in
              let fail_field f want got =
                err ss "tenant %d (%s): %s diverged: serial=%s disturbed=%s" sp.x_index sp.x_abi f
                  want got
              in
              if got_s "outcome" <> expect.Service.r_outcome then
                fail_field "outcome" expect.Service.r_outcome (got_s "outcome");
              if got_s "output" <> expect.Service.r_output then
                fail_field "output" (String.escaped expect.Service.r_output)
                  (String.escaped (got_s "output"));
              List.iter
                (fun (f, want) ->
                  if got_i f <> want then fail_field f (string_of_int want) (string_of_int (got_i f)))
                [
                  ("cycles", expect.Service.r_cycles);
                  ("instret", expect.Service.r_instret);
                  ("slices", expect.Service.r_slices);
                ];
              extra sp r))
    specs

(* wait for the service to exit after [what]; anything but exit 0 fails *)
let await_exit ss pid ~who ~what ~timeout_s =
  match Supervisor.wait_exit pid ~timeout_s with
  | None -> err ss "%s did not exit after %s" who what
  | Some (Unix.WEXITED 0) -> ()
  | Some st -> err ss "%s exited abnormally after %s: %s" who what (Supervisor.string_of_status st)

let verdict ~tag ss pass =
  match List.rev !(ss.errors) with
  | [] ->
      Printf.printf "%s: PASS %s\n%!" tag pass;
      0
  | es ->
      List.iter (fun e -> Printf.eprintf "%s: FAIL %s\n" tag e) es;
      Printf.eprintf "%s: %d assertion(s) failed\n%!" tag (List.length es);
      1

let guard ~tag f c =
  try f c
  with Chaos_failure m ->
    Printf.eprintf "%s: ABORT %s\n%!" tag m;
    1

(* ------------------------------------------------------------------ *)
(* Worker harness: worker-level faults against one supervisor          *)

let run (c : cfg) =
  let info fmt =
    Printf.ksprintf (fun m -> if c.ch_verbose then Printf.eprintf "chaos: %s\n%!" m) fmt
  in
  let dir = Printf.sprintf "/tmp/cheri-serve-%d-%d" (Unix.getpid ()) c.ch_seed in
  let capacity = max 2 (c.ch_tenants / 4) in
  let scfg =
    {
      (Service.default_config ~dir) with
      Service.workers = c.ch_workers;
      worker_jobs = c.ch_worker_jobs;
      capacity;
      slice = c.ch_slice;
      fuel = 50_000_000;
      heartbeat_s = 0.3;
      tick_s = 0.02;
      retry_base_s = 0.02;
      seed = c.ch_seed;
      corrupt_requeue = (if c.ch_kills > 0 then 1 else 0);
    }
  in
  let specs = make_specs ~seed:c.ch_seed ~slice:c.ch_slice c.ch_tenants in
  info "state dir %s, capacity %d, %d workers" dir capacity c.ch_workers;
  with_service ~label:"server" ~dir ~keep:c.ch_keep ~socket:scfg.Service.socket
    ~socket_timeout_s:10.0
    ~spawn:(fun () -> Client.spawn_server scfg)
    (fun srv_pid ss ->
      (* Idle soak: sit past the spawn grace plus several staleness
         windows before submitting anything. An idle worker beats no
         slices, so if it ever stops beating on its own it is
         indistinguishable from a stalled one — a supervisor that
         reaps healthy idle workers fails here with spurious deaths
         before the first job is even submitted. *)
      let hb = scfg.Service.heartbeat_s in
      Unix.sleepf ((2.0 *. hb) +. 1.0 +. (6.0 *. hb));
      (let st = stats ss in
       match (Json.mem_int "worker_deaths" st, Json.mem_int "stall_kills" st) with
       | Some 0, Some 0 -> ()
       | Some d, Some s ->
           err ss "idle workers were reaped before any work: deaths=%d stalls=%d" d s
       | _ -> err ss "stats reply missing worker_deaths/stall_kills");
      let check_stats st =
        match (Json.mem_int "live" st, Json.mem_int "capacity" st) with
        | Some live, Some cap ->
            if live > cap then err ss "admission over cap: live=%d capacity=%d" live cap
        | _ -> err ss "stats reply missing live/capacity"
      in
      (* ---- disruption schedule, fired against done-counts ---- *)
      let deaths_seen = ref 0 in
      let disruptions =
        ref
          ((1, `Stall)
          :: List.init c.ch_kills (fun k ->
                 (((k + 2) * c.ch_tenants / (c.ch_kills + 3)) + 1, `Kill)))
      in
      let await_death ~label deaths_before =
        let deadline = now () +. 15.0 in
        let rec go () =
          let st = stats ss in
          check_stats st;
          match Json.mem_int "worker_deaths" st with
          | Some d when d > deaths_before -> deaths_seen := d
          | _ ->
              if now () > deadline then
                raise (Chaos_failure (Printf.sprintf "%s: supervisor never reaped the worker" label))
              else begin
                ignore (Unix.select [] [] [] 0.03);
                go ()
              end
        in
        go ()
      in
      let fire st kind =
        match busiest st "workers" with
        | None -> false
        | Some (_, pid, n) ->
            let before = Option.value ~default:!deaths_seen (Json.mem_int "worker_deaths" st) in
            (match kind with
            | `Stall ->
                info "SIGSTOP worker pid %d (%d tenants)" pid n;
                (try Unix.kill pid Sys.sigstop with Unix.Unix_error _ -> ());
                await_death ~label:"stall" before
            | `Kill ->
                info "SIGKILL worker pid %d (%d tenants)" pid n;
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                await_death ~label:"kill" before);
            true
      in
      drive ss specs ~limit_s:120.0 ~check:check_stats ~disruptions ~fire;
      (* ---- final ledger ---- *)
      let st = stats ss in
      check_stats st;
      let stat k = Option.value ~default:(-1) (Json.mem_int k st) in
      let worker_deaths = stat "worker_deaths" in
      let stall_kills = stat "stall_kills" in
      let requeues = stat "requeues" in
      let corruptions = stat "corruptions" in
      let corrupted =
        match Json.member "corrupted" st with
        | Some (Json.Arr l) -> List.filter_map Json.to_int l
        | _ -> []
      in
      info "deaths=%d stalls=%d requeues=%d corruptions=%d rejections=%d" worker_deaths
        stall_kills requeues corruptions ss.rejections;
      if !disruptions = [] then begin
        if worker_deaths <> c.ch_kills + 1 then
          err ss "expected exactly %d worker deaths (%d kills + 1 stall), saw %d" (c.ch_kills + 1)
            c.ch_kills worker_deaths;
        if stall_kills <> 1 then err ss "expected exactly 1 stall kill, saw %d" stall_kills;
        if requeues < 1 then err ss "disruptions displaced no tenants (requeues = 0)"
      end;
      if requeues > worker_deaths * capacity then
        err ss "requeues %d exceed deaths(%d) x capacity(%d)" requeues worker_deaths capacity;
      if c.ch_kills > 0 && corruptions <> 1 then
        err ss "expected exactly 1 injected checkpoint corruption, saw %d" corruptions;
      check_admission ss ~capacity ~tenants:c.ch_tenants;
      let restart_sum = Array.fold_left (fun a sp -> a + sp.x_restarts) 0 specs in
      if restart_sum <> requeues then
        err ss "per-tenant restart counters sum to %d but supervisor counted %d requeues"
          restart_sum requeues;
      (* ---- byte-identity against the undisturbed serial reference ---- *)
      let resumed_seen = ref 0 in
      verify ss specs ~extra:(fun sp r ->
          if Option.value ~default:false (Json.mem_bool "resumed" r) then incr resumed_seen;
          match sp.x_tid with
          | Some tid when List.mem tid corrupted ->
              if not (Option.value ~default:false (Json.mem_bool "scratch" r)) then
                err ss "tenant %d had its checkpoint corrupted but was not restarted from scratch"
                  sp.x_index
          | _ -> ());
      if worker_deaths > 0 && requeues > corruptions && !resumed_seen = 0 then
        err ss "no tenant ever resumed from a checkpoint despite %d requeues" requeues;
      (* ---- shutdown ---- *)
      (match Client.request ss.cl (Json.Obj [ ("op", jstr "shutdown") ]) with
      | Ok _ -> ()
      | Error e -> err ss "shutdown request failed: %s" e);
      Client.close ss.cl;
      await_exit ss srv_pid ~who:"server" ~what:"shutdown" ~timeout_s:10.0;
      verdict ~tag:"chaos" ss
        (Printf.sprintf
           "%d tenants byte-identical through %d worker deaths (%d SIGKILL + %d stall), %d \
            requeues, %d corrupted checkpoint(s), %d admission rejections"
           c.ch_tenants worker_deaths c.ch_kills stall_kills requeues corruptions ss.rejections))

let run = guard ~tag:"chaos" run

(* ------------------------------------------------------------------ *)
(* Fleet harness: shard-level faults against the router                *)

(* The shard-level analog of [run]: a >=3-shard fleet (each shard a
   full supervisor with its own worker pool) is driven through one
   whole-shard SIGSTOP (the router must detect the stale shard
   heartbeat and SIGKILL it), one direct SIGTERM drain under load (the
   shard parks every tenant, writes its manifest, exits 0), one
   whole-shard SIGKILL, and one admin drain + rebalance over the wire.
   Every displaced tenant must migrate — resume on a surviving shard
   from its checkpoint — and finish byte-identical to the serial
   reference, and the migration ledger must balance exactly: the sum
   of migration counters reported by finished tenants equals the
   migrations the router says it performed. Finally the router itself
   is SIGTERMed and must exit 0 leaving a fleet manifest. *)

type fleet_cfg = {
  f_tenants : int;
  f_shards : int;
  f_workers : int;  (* per shard *)
  f_seed : int;
  f_slice : int;
  f_keep : bool;
  f_verbose : bool;
}

let fleet_default =
  {
    f_tenants = 15;
    f_shards = 3;
    f_workers = 1;
    f_seed = 7;
    f_slice = 20_000;
    f_keep = false;
    f_verbose = false;
  }

let read_manifest path =
  Option.bind (Supervisor.read_file path) (fun s -> Result.to_option (Service.manifest_of_json s))

let run_fleet (c : fleet_cfg) =
  let info fmt =
    Printf.ksprintf (fun m -> if c.f_verbose then Printf.eprintf "chaos-fleet: %s\n%!" m) fmt
  in
  let dir = Printf.sprintf "/tmp/cheri-fleet-%d-%d" (Unix.getpid ()) c.f_seed in
  let capacity = max 2 (c.f_tenants / 4) in
  let rcfg =
    {
      (Router.default_rconfig ~dir) with
      Router.r_shards = max 3 c.f_shards;
      r_workers = c.f_workers;
      r_worker_jobs = 1;
      r_capacity = capacity;
      r_slice = c.f_slice;
      r_fuel = 50_000_000;
      r_heartbeat_s = 0.3;
      r_status_s = 0.4;
      r_tick_s = 0.02;
      r_take_s = 0.1;
      r_req_timeout_s = 2.0;
      r_retry_base_s = 0.02;
      r_seed = c.f_seed;
    }
  in
  let specs = make_specs ~seed:c.f_seed ~slice:c.f_slice c.f_tenants in
  info "fleet dir %s, %d shards, capacity %d" dir rcfg.Router.r_shards capacity;
  with_service ~label:"fleet" ~dir ~keep:c.f_keep ~socket:rcfg.Router.r_socket
    ~socket_timeout_s:15.0
    ~spawn:(fun () -> Client.spawn_router rcfg)
    (fun router_pid ss ->
      (* idle soak past the shard spawn grace plus staleness windows: a
         router that reaps healthy idle shards fails here *)
      Unix.sleepf (3.0 +. (2.0 *. rcfg.Router.r_status_s) +. 1.5);
      (let st = stats ss in
       match (Json.mem_int "shard_deaths" st, Json.mem_int "stall_kills" st) with
       | Some 0, Some 0 -> ()
       | Some d, Some s ->
           err ss "idle shards were reaped before any work: deaths=%d stalls=%d" d s
       | _ -> err ss "fleet stats missing shard_deaths/stall_kills");
      (* ---- shard-level disruption schedule, fired on done counts ---- *)
      let stat st k = Option.value ~default:(-1) (Json.mem_int k st) in
      let busiest_shard st =
        busiest st "shards" ~ok:(fun row ->
            Json.mem_bool "draining" row = Some false && Json.mem_int "id" row <> None)
        |> Option.map (fun (row, pid, n) -> (Option.get (Json.mem_int "id" row), pid, n))
      in
      let await ~label ~deadline_s pred =
        let deadline = now () +. deadline_s in
        let rec go () =
          let st = stats ss in
          if pred st then ()
          else if now () > deadline then
            raise
              (Chaos_failure
                 (Printf.sprintf "%s: condition never held; stats %s" label (Json.encode st)))
          else begin
            ignore (Unix.select [] [] [] 0.05);
            go ()
          end
        in
        go ()
      in
      let disruptions = ref [ (1, `StopShard); (4, `TermShard); (7, `KillShard); (10, `AdminDrain) ] in
      let fire st kind =
        match busiest_shard st with
        | None -> false
        | Some (id, pid, n) ->
            let deaths0 = stat st "shard_deaths" in
            let stalls0 = stat st "stall_kills" in
            let drains0 = stat st "drains" in
            (match kind with
            | `StopShard ->
                info "SIGSTOP shard %d pid %d (%d tenants)" id pid n;
                (try Unix.kill pid Sys.sigstop with Unix.Unix_error _ -> ());
                await ~label:"shard stall" ~deadline_s:30.0 (fun st ->
                    stat st "stall_kills" > stalls0 && stat st "shard_deaths" > deaths0)
            | `TermShard ->
                info "SIGTERM shard %d pid %d (%d tenants)" id pid n;
                (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
                await ~label:"shard drain" ~deadline_s:30.0 (fun st -> stat st "drains" > drains0)
            | `KillShard ->
                info "SIGKILL shard %d pid %d (%d tenants)" id pid n;
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                await ~label:"shard kill" ~deadline_s:30.0 (fun st ->
                    stat st "shard_deaths" > deaths0)
            | `AdminDrain ->
                info "admin drain shard %d (%d tenants), then rebalance" id n;
                (let r = request ss (Json.Obj [ ("op", jstr "drain"); ("shard", jint id) ]) in
                 if Json.mem_bool "ok" r <> Some true then
                   err ss "admin drain refused: %s" (Json.encode r));
                await ~label:"admin drain" ~deadline_s:30.0 (fun st -> stat st "drains" > drains0);
                let r = request ss (Json.Obj [ ("op", jstr "rebalance") ]) in
                if Json.mem_bool "ok" r <> Some true then
                  err ss "rebalance refused: %s" (Json.encode r)
                else if Option.value ~default:0 (Json.mem_int "revived" r) < 1 then
                  err ss "rebalance revived no held shard slot: %s" (Json.encode r));
            true
      in
      drive ss specs ~limit_s:240.0 ~check:ignore ~disruptions ~fire;
      (* ---- final ledger: exact migration and drain accounting ---- *)
      let st = stats ss in
      let shard_deaths = stat st "shard_deaths" in
      let stall_kills = stat st "stall_kills" in
      let drains = stat st "drains" in
      let migrations = stat st "migrations" in
      let failed = stat st "failed" in
      info "deaths=%d stalls=%d drains=%d migrations=%d rejections=%d" shard_deaths stall_kills
        drains migrations ss.rejections;
      if failed <> 0 then err ss "%d tenant(s) failed at the router" failed;
      if !disruptions = [] then begin
        (* SIGSTOP (stall-killed) + SIGKILL are the dirty deaths; the
           SIGTERM drain and the admin drain each reaped one manifest *)
        if shard_deaths <> 2 then
          err ss "expected exactly 2 shard deaths (1 stall + 1 SIGKILL), saw %d" shard_deaths;
        if stall_kills <> 1 then err ss "expected exactly 1 shard stall kill, saw %d" stall_kills;
        if drains <> 2 then
          err ss "expected exactly 2 shard drains (1 SIGTERM + 1 admin), saw %d" drains;
        if migrations < 1 then err ss "shard faults displaced no tenants (migrations = 0)"
      end;
      check_admission ss ~capacity ~tenants:c.f_tenants;
      if ss.best_hint > Admission.hint_cap_s +. 1e-9 then
        err ss "retry_after_s hint %.3f exceeds the %.0f s ceiling" ss.best_hint
          Admission.hint_cap_s;
      (* sum of per-tenant migration lineages = migrations the router
         performed: nothing double-migrated, nothing lost *)
      let mig_sum =
        Array.fold_left
          (fun acc sp ->
            acc
            + match sp.x_result with
              | Some r -> Option.value ~default:0 (Json.mem_int "migrations" r)
              | None -> 0)
          0 specs
      in
      if mig_sum <> migrations then
        err ss "per-tenant migration counters sum to %d but the router performed %d" mig_sum
          migrations;
      (* ---- byte-identity against the undisturbed serial reference ---- *)
      let migrated_seen = ref 0 in
      verify ss specs ~extra:(fun _ r ->
          if Option.value ~default:(-1) (Json.mem_int "migrations" r) > 0 then incr migrated_seen);
      if migrations > 0 && !migrated_seen = 0 then
        err ss "router performed %d migrations but no finished tenant carries one" migrations;
      (* ---- graceful fleet shutdown: SIGTERM -> drain -> exit 0 ---- *)
      Client.close ss.cl;
      (try Unix.kill router_pid Sys.sigterm with Unix.Unix_error _ -> ());
      await_exit ss router_pid ~who:"router" ~what:"SIGTERM" ~timeout_s:20.0;
      (* the fleet manifest is the router's will: every admitted tenant
         accounted for (here all terminal, so all T_done entries) *)
      (match read_manifest (Service.manifest_path ~dir) with
      | Some entries ->
          if List.length entries <> c.f_tenants then
            err ss "fleet manifest lists %d tenants, expected %d" (List.length entries) c.f_tenants
      | None -> err ss "router left no parseable fleet manifest at %s" (Service.manifest_path ~dir));
      verdict ~tag:"chaos-fleet" ss
        (Printf.sprintf
           "%d tenants byte-identical across %d shards through 1 stall, 1 SIGKILL, 1 SIGTERM \
            drain, 1 admin drain+rebalance; %d migrations exactly accounted, %d rejections"
           c.f_tenants rcfg.Router.r_shards migrations ss.rejections))

let run_fleet = guard ~tag:"chaos-fleet" run_fleet
