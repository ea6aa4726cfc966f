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
                 [--workers N] [--worker-jobs N] [--slice N] [--keep] [--verbose]
     cheri-serve --chaos-fleet [--tenants N] [--shards N] [--seed N] [--jobs N]
                 [--workers N] [--slice N] [--keep] [--verbose]

   The self-tests: --chaos floods one supervisor past its admission
   cap while workers are SIGSTOPped/SIGKILLed and a checkpoint is
   corrupted on disk; --chaos-fleet drives a >=3-shard fleet through a
   whole-shard stall, SIGKILL, SIGTERM drain and admin
   drain+rebalance. Every tenant must come out byte-identical to an
   undisturbed serial run, with exact migration accounting. Exit 0 iff
   every assertion held.

   Each mode reads only the flags listed for it above (a fleet also
   takes every supervisor flag); any other flag exits 2 with a message
   that names it. *)

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

(* What a command line runs; each flag is read by some of them. *)
type mode = Serve | Fleet | Chaos_run | Chaos_fleet | Admin of string

let mode_name = function
  | Serve -> "a supervisor"
  | Fleet -> "a fleet"
  | Chaos_run -> "--chaos"
  | Chaos_fleet -> "--chaos-fleet"
  | Admin v -> "admin " ^ v

let served = [ Serve; Fleet ]
let admin = [ Admin "drain"; Admin "rebalance"; Admin "stats" ]
let harnesses = [ Chaos_run; Chaos_fleet ]

let () =
  (* a process re-executed with a service marker in argv is a worker,
     supervisor or router child, never a CLI invocation *)
  Service.child_dispatch ();
  Router.child_dispatch ();
  let dir = ref None in
  let shard_arg = ref None in
  let positionals = ref [] in
  (* Every mode's settings live in one Chaos.cfg: the harness fields,
     the router fields and, in [ch_fleet.r_service], the supervisor
     config. Each flag writes one field; a mode starts from its own
     defaults, applies the overrides in order, and reads its part. *)
  let given = ref [] in
  let overrides = ref [] in
  let use name modes f =
    given := (name, modes) :: !given;
    overrides := f :: !overrides
  in
  let fleet f (c : Chaos.cfg) = { c with Chaos.ch_fleet = f c.Chaos.ch_fleet } in
  let svc f =
    fleet (fun r -> { r with Router.r_service = f r.Router.r_service })
  in
  let unit name modes ~doc f = Cli.unit name ~doc (fun () -> use name modes f) in
  let int ?min name modes ~metavar ~doc f =
    Cli.int ?min name ~metavar ~doc (fun n -> use name modes (f n))
  in
  Cli.parse ~prog:"cheri-serve"
    ~usage:
      "--dir DIR [--shards N] [OPTIONS] | admin VERB --socket PATH | --chaos | --chaos-fleet"
    ~positional:(fun w -> positionals := w :: !positionals)
    [
      Cli.string "--dir" ~metavar:"DIR" ~doc:"state directory (socket, status, checkpoints)"
        (fun d ->
          dir := Some d;
          use "--dir" (served @ admin) Fun.id);
      Cli.string "--socket" ~metavar:"PATH"
        ~doc:"listen socket (default DIR/serve.sock, fleet DIR/fleet.sock); admin: target"
        (fun p -> use "--socket" (served @ admin) (svc (fun s -> { s with Service.socket = p })));
      int ~min:1 "--shards" [ Fleet; Chaos_fleet ] ~metavar:"N"
        ~doc:"run a sharded fleet with N supervisor shards (default: single supervisor)"
        (fun n -> fleet (fun r -> { r with Router.r_shards = n }));
      Cli.int ~min:0 "--shard" ~metavar:"K" ~doc:"admin drain: the shard to drain" (fun k ->
          shard_arg := Some k;
          use "--shard" [ Admin "drain" ] Fun.id);
      int ~min:1 "--workers" (served @ harnesses) ~metavar:"N"
        ~doc:"worker processes (per shard; default 2)" (fun n ->
          svc (fun s -> { s with Service.workers = n }));
      int ~min:1 "--worker-jobs" [ Serve; Fleet; Chaos_run ] ~metavar:"N"
        ~doc:"pool domains per worker (default 1)" (fun n ->
          svc (fun s -> { s with Service.worker_jobs = n }));
      int ~min:1 "--capacity" served ~metavar:"N"
        ~doc:"admission cap on live tenants (fleet-wide; default 64)" (fun n ->
          svc (fun s -> { s with Service.capacity = n }));
      int ~min:1 "--slice" (served @ harnesses) ~metavar:"N" ~doc:"per-slice fuel (default 100000)"
        (fun n -> svc (fun s -> { s with Service.slice = n }));
      int ~min:1 "--fuel" served ~metavar:"N" ~doc:"default per-tenant fuel budget" (fun n ->
          svc (fun s -> { s with Service.fuel = n }));
      Cli.float ~strictly_positive:true "--heartbeat" ~metavar:"SECS"
        ~doc:"worker heartbeat interval (default 0.25)" (fun x ->
          use "--heartbeat" served (svc (fun s -> { s with Service.heartbeat_s = x })));
      unit "--chaos" [ Chaos_run ] ~doc:"run the kill-a-worker chaos self-test, then exit" Fun.id;
      unit "--chaos-fleet" [ Chaos_fleet ] ~doc:"run the shard-loss chaos self-test, then exit"
        Fun.id;
      int ~min:1 "--tenants" harnesses ~metavar:"N" ~doc:"chaos: tenant count" (fun n c ->
          { c with Chaos.ch_tenants = n });
      int "--kills" [ Chaos_run ] ~metavar:"N" ~doc:"chaos: worker SIGKILLs (default 3)"
        (fun n c -> { c with Chaos.ch_kills = n });
      int "--seed" harnesses ~metavar:"N" ~doc:"chaos: workload seed" (fun n ->
          svc (fun s -> { s with Service.seed = n }));
      int ~min:1 "--jobs" harnesses ~metavar:"N" ~doc:"chaos: worker processes (alias of --workers)"
        (fun n -> svc (fun s -> { s with Service.workers = n }));
      unit "--keep" harnesses ~doc:"chaos: keep the state directory for post-mortem" (fun c ->
          { c with Chaos.ch_keep = true });
      unit "--verbose" harnesses ~doc:"chaos: narrate disruptions on stderr" (fun c ->
          { c with Chaos.ch_verbose = true });
    ]
    (List.tl (Array.to_list Sys.argv));
  let given = List.rev !given in
  let mode =
    match List.rev !positionals with
    | [ "admin"; ("drain" | "rebalance" | "stats") as verb ] -> Admin verb
    | [ "admin"; v ] -> Cli.die "unknown admin verb %S (expected drain, rebalance or stats)" v
    | _ :: _ -> Cli.die "unexpected arguments (expected: admin drain|rebalance|stats)"
    | [] ->
        if List.mem_assoc "--chaos-fleet" given then Chaos_fleet
        else if List.mem_assoc "--chaos" given then Chaos_run
        else if List.mem_assoc "--shards" given then Fleet
        else Serve
  in
  List.iter
    (fun (name, modes) ->
      if not (List.mem mode modes) then
        Cli.die "%s: not read by %s (it applies to %s)" name (mode_name mode)
          (String.concat ", " (List.map mode_name modes)))
    given;
  let settings base = List.fold_left (fun c f -> f c) base (List.rev !overrides) in
  let served fleet = (settings { Chaos.default with Chaos.ch_fleet = fleet }).Chaos.ch_fleet in
  match mode with
  | Admin verb -> (
      if !dir = None && not (List.mem_assoc "--socket" given) then
        Cli.die "admin %s: --socket (or --dir) is required" verb;
      let r = served (Router.default_rconfig ~dir:(Option.value ~default:"" !dir)) in
      let socket = r.Router.r_service.Service.socket in
      let op name fields = Json.Obj (("op", Json.str name) :: fields) in
      match (verb, !shard_arg) with
      | "drain", None -> Cli.die "admin drain: --shard K is required"
      | "drain", Some k -> admin_request ~socket ~json:(op "drain" [ ("shard", Json.int k) ])
      | v, _ -> admin_request ~socket ~json:(op v []))
  | Chaos_run -> exit (Chaos.run (settings Chaos.default))
  | Chaos_fleet ->
      let c = settings Chaos.fleet_default in
      let shards = c.Chaos.ch_fleet.Router.r_shards in
      if shards < 3 then Cli.die "--shards: --chaos-fleet needs at least 3 shards, got %d" shards;
      exit (Chaos.run_fleet c)
  | Serve | Fleet -> (
      match !dir with
      | None -> Cli.die "--dir is required (or use --chaos / --chaos-fleet for the self-tests)"
      | Some dir ->
          let fleet = Router.default_rconfig ~dir in
          if mode = Fleet then begin
            let r = served fleet in
            let s = r.Router.r_service in
            Printf.printf "cheri-serve: fleet on %s (%d shards x %d workers, capacity %d)\n%!"
              s.Service.socket r.Router.r_shards s.Service.workers s.Service.capacity;
            Router.router_main r
          end
          else begin
            let s =
              (served { fleet with Router.r_service = Service.default_config ~dir }).Router.r_service
            in
            Printf.printf "cheri-serve: listening on %s (%d workers, capacity %d)\n%!"
              s.Service.socket s.Service.workers s.Service.capacity;
            Service.server_main s
          end)
