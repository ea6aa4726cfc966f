(* The multi-tenant simulation service driver:

     cheri-serve --dir DIR [--socket PATH] [--workers N] [--worker-jobs N]
                 [--capacity N] [--slice N] [--fuel N] [--heartbeat SECS]

   Runs the supervisor in the foreground: binds the Unix-domain
   socket, spawns N worker processes (re-executions of this binary),
   and serves length-prefixed JSON requests (submit / poll / stats /
   metrics / shutdown) until a shutdown request arrives. Tenants are
   admitted under --capacity, executed preemptively in fuel-bounded
   slices, checkpointed at every yield, and survive worker crashes
   with at most the in-flight slice lost.

     cheri-serve --dir DIR --shards N [OPTIONS]

   Runs a sharded fleet instead: a router on DIR/fleet.sock over N
   supervisor shards (each with its own worker pool under
   DIR/shard_<k>/), with rendezvous placement, live migration,
   graceful drain and automatic failover. SIGTERM drains every shard
   and exits 0.

     cheri-serve admin drain --shard K --socket PATH
     cheri-serve admin rebalance --socket PATH
     cheri-serve admin stats --socket PATH

   Admin verbs against a running fleet socket: park one shard's
   tenants on the survivors and hold the slot; revive held slots and
   re-spread tenants to their rendezvous owners; dump fleet status.

     cheri-serve --chaos [--tenants N] [--kills N] [--seed N] [--jobs N]
                 [--slice N] [--keep] [--verbose]
     cheri-serve --chaos-fleet [--tenants N] [--shards N] [--seed N]
                 [--slice N] [--keep] [--verbose]

   The self-tests: --chaos floods one supervisor past its admission
   cap while workers are SIGSTOPped/SIGKILLed and a checkpoint is
   corrupted on disk; --chaos-fleet drives a >=3-shard fleet through a
   whole-shard stall, SIGKILL, SIGTERM drain and admin
   drain+rebalance. Every tenant must come out byte-identical to an
   undisturbed serial run, with exact migration accounting. Exit 0 iff
   every assertion held. *)

module Service = Cheri_service.Service
module Router = Cheri_service.Router
module Protocol = Cheri_service.Protocol
module Chaos = Cheri_service.Chaos
module Json = Cheri_util.Json
module Cli = Cheri_util.Cli

let admin_request ~socket ~json =
  let fd =
    try Protocol.connect socket
    with Unix.Unix_error (e, _, _) ->
      Cli.die "cannot connect to %s: %s" socket (Unix.error_message e)
  in
  let reply = Protocol.request fd (Protocol.Reader.create ()) json in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match reply with
  | Error e -> Cli.die "request failed: %s" e
  | Ok j ->
      print_endline (Json.encode j);
      exit (match Json.mem_bool "ok" j with Some true -> 0 | _ -> 1)

let () =
  (* a process re-executed with a service marker in argv is a worker,
     supervisor or router child, never a CLI invocation *)
  Service.child_dispatch ();
  Router.child_dispatch ();
  let chaos = ref false in
  let chaos_fleet = ref false in
  let c = ref Chaos.default in
  let fc = ref Chaos.fleet_default in
  let dir = ref None in
  let shards = ref 0 in
  let shard_arg = ref None in
  let socket = ref None in
  let positionals = ref [] in
  let cfg_override = ref [] in
  let rcfg_override = ref [] in
  let override f = cfg_override := f :: !cfg_override in
  let roverride f = rcfg_override := f :: !rcfg_override in
  Cli.parse ~prog:"cheri-serve"
    ~usage:
      "--dir DIR [--shards N] [OPTIONS] | admin VERB --socket PATH | --chaos | --chaos-fleet"
    ~positional:(fun w -> positionals := w :: !positionals)
    [
      Cli.string "--dir" ~metavar:"DIR" ~doc:"state directory (socket, status, checkpoints)"
        (fun d -> dir := Some d);
      Cli.string "--socket" ~metavar:"PATH"
        ~doc:"listen socket (default DIR/serve.sock, fleet DIR/fleet.sock); admin: target"
        (fun p ->
          socket := Some p;
          override (fun cfg -> { cfg with Service.socket = p });
          roverride (fun cfg -> { cfg with Router.r_socket = p }));
      Cli.int ~min:1 "--shards" ~metavar:"N"
        ~doc:"run a sharded fleet with N supervisor shards (default: single supervisor)"
        (fun n ->
          shards := n;
          fc := { !fc with Chaos.f_shards = n });
      Cli.int ~min:0 "--shard" ~metavar:"K" ~doc:"admin drain: the shard to drain" (fun k ->
          shard_arg := Some k);
      Cli.int ~min:1 "--workers" ~metavar:"N" ~doc:"worker processes (per shard; default 2)"
        (fun n ->
          override (fun cfg -> { cfg with Service.workers = n });
          roverride (fun cfg -> { cfg with Router.r_workers = n });
          c := { !c with Chaos.ch_workers = n };
          fc := { !fc with Chaos.f_workers = n });
      Cli.int ~min:1 "--worker-jobs" ~metavar:"N" ~doc:"pool domains per worker (default 1)"
        (fun n ->
          override (fun cfg -> { cfg with Service.worker_jobs = n });
          roverride (fun cfg -> { cfg with Router.r_worker_jobs = n });
          c := { !c with Chaos.ch_worker_jobs = n });
      Cli.int ~min:1 "--capacity" ~metavar:"N"
        ~doc:"admission cap on live tenants (fleet-wide; default 64)" (fun n ->
          override (fun cfg -> { cfg with Service.capacity = n });
          roverride (fun cfg -> { cfg with Router.r_capacity = n }));
      Cli.int ~min:1 "--slice" ~metavar:"N" ~doc:"per-slice fuel (default 100000)" (fun n ->
          override (fun cfg -> { cfg with Service.slice = n });
          roverride (fun cfg -> { cfg with Router.r_slice = n });
          c := { !c with Chaos.ch_slice = n };
          fc := { !fc with Chaos.f_slice = n });
      Cli.int ~min:1 "--fuel" ~metavar:"N" ~doc:"default per-tenant fuel budget" (fun n ->
          override (fun cfg -> { cfg with Service.fuel = n });
          roverride (fun cfg -> { cfg with Router.r_fuel = n }));
      Cli.float ~strictly_positive:true "--heartbeat" ~metavar:"SECS"
        ~doc:"worker heartbeat interval (default 0.25)" (fun s ->
          override (fun cfg -> { cfg with Service.heartbeat_s = s });
          roverride (fun cfg -> { cfg with Router.r_heartbeat_s = s }));
      Cli.unit "--chaos" ~doc:"run the kill-a-worker chaos self-test, then exit" (fun () ->
          chaos := true);
      Cli.unit "--chaos-fleet" ~doc:"run the shard-loss chaos self-test, then exit" (fun () ->
          chaos_fleet := true);
      Cli.int ~min:1 "--tenants" ~metavar:"N" ~doc:"chaos: tenant count" (fun n ->
          c := { !c with Chaos.ch_tenants = n };
          fc := { !fc with Chaos.f_tenants = n });
      Cli.int "--kills" ~metavar:"N" ~doc:"chaos: worker SIGKILLs (default 3)" (fun n ->
          c := { !c with Chaos.ch_kills = n });
      Cli.int "--seed" ~metavar:"N" ~doc:"chaos: workload seed" (fun n ->
          c := { !c with Chaos.ch_seed = n };
          fc := { !fc with Chaos.f_seed = n });
      Cli.int ~min:1 "--jobs" ~metavar:"N" ~doc:"chaos: worker processes (alias of --workers)"
        (fun n ->
          c := { !c with Chaos.ch_workers = n };
          fc := { !fc with Chaos.f_workers = n });
      Cli.unit "--keep" ~doc:"chaos: keep the state directory for post-mortem" (fun () ->
          c := { !c with Chaos.ch_keep = true };
          fc := { !fc with Chaos.f_keep = true });
      Cli.unit "--verbose" ~doc:"chaos: narrate disruptions on stderr" (fun () ->
          c := { !c with Chaos.ch_verbose = true };
          fc := { !fc with Chaos.f_verbose = true });
    ]
    (List.tl (Array.to_list Sys.argv));
  match List.rev !positionals with
  | [ "admin"; verb ] -> (
      let socket =
        match (!socket, !dir) with
        | Some s, _ -> s
        | None, Some d -> Filename.concat d "fleet.sock"
        | None, None -> Cli.die "admin %s: --socket (or --dir) is required" verb
      in
      let jint n = Json.Num (string_of_int n) in
      match verb with
      | "drain" -> (
          match !shard_arg with
          | None -> Cli.die "admin drain: --shard K is required"
          | Some k ->
              admin_request ~socket
                ~json:(Json.Obj [ ("op", Json.Str "drain"); ("shard", jint k) ]))
      | "rebalance" -> admin_request ~socket ~json:(Json.Obj [ ("op", Json.Str "rebalance") ])
      | "stats" -> admin_request ~socket ~json:(Json.Obj [ ("op", Json.Str "stats") ])
      | v -> Cli.die "unknown admin verb %S (expected drain, rebalance or stats)" v)
  | _ :: _ -> Cli.die "unexpected arguments (expected: admin drain|rebalance|stats)"
  | [] ->
      if !chaos_fleet then exit (Chaos.run_fleet !fc)
      else if !chaos then exit (Chaos.run !c)
      else (
        match !dir with
        | None -> Cli.die "--dir is required (or use --chaos / --chaos-fleet for the self-tests)"
        | Some dir ->
            if !shards > 0 then begin
              let rcfg =
                List.fold_left
                  (fun cfg f -> f cfg)
                  { (Router.default_rconfig ~dir) with Router.r_shards = !shards }
                  (List.rev !rcfg_override)
              in
              Printf.printf
                "cheri-serve: fleet on %s (%d shards x %d workers, capacity %d)\n%!"
                rcfg.Router.r_socket rcfg.Router.r_shards rcfg.Router.r_workers
                rcfg.Router.r_capacity;
              Router.router_main rcfg
            end
            else begin
              let cfg =
                List.fold_left (fun cfg f -> f cfg) (Service.default_config ~dir)
                  (List.rev !cfg_override)
              in
              Printf.printf "cheri-serve: listening on %s (%d workers, capacity %d)\n%!"
                cfg.Service.socket cfg.Service.workers cfg.Service.capacity;
              Service.server_main cfg
            end)
