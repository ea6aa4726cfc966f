(* tenant-burst: a real cheri-serve supervisor (this binary re-executed,
   see Service.child_dispatch) with two single-domain workers, driven
   as a closed loop by one client connection that keeps [outstanding]
   tenants in flight. One operation is one tenant, timed from submit to
   the first poll that sees it done. Workers checkpoint at every yield,
   as in production.

   Times are read on the service clock (see [clock] below), not on the
   wall clock. *)

open Common
module Service = Cheri_service.Service
module Chaos = Cheri_service.Chaos
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine

let outstanding = 4
let workers = 2
let slice = 50_000
let fuel = 50_000_000
let poll_gap_s = 0.005
let tenant_timeout_s = 120.

type server = {
  pid : int;
  cl : Chaos.Client.t;
  sdir : string;
  mutable procs : int list;  (** the supervisor and its live workers *)
  cpu : (int, float) Hashtbl.t;  (** highest CPU seconds seen per process *)
}

let request srv j =
  match Chaos.Client.request srv.cl j with
  | Ok r -> r
  | Error e -> failwith ("tenant-burst: request failed: " ^ e)

let mem_int k j = Option.bind (Json.member k j) Json.to_int
let mem_str k j = Option.bind (Json.member k j) Json.to_string
let op name extra = Json.Obj (("op", Json.Str name) :: extra)
let num n = Json.Num (string_of_int n)

let submit srv (t : Tenants.t) =
  mem_int "tenant"
    (request srv
       (op "submit"
          [
            ("source", Json.Str t.source);
            ("abi", Json.Str t.abi);
            ("fuel", num fuel);
            ("slice", num slice);
          ]))

let poll srv tid = request srv (op "poll" [ ("tenant", num tid) ])

let worker_pids srv =
  match Json.member "workers" (request srv (op "stats" [])) with
  | Some (Json.Arr ws) -> List.filter_map (mem_int "pid") ws
  | _ -> []

(* The service clock: CPU seconds used by the client, the supervisor and
   every worker it has run, over the number of workers. The closed loop
   keeps more tenants in flight than there are workers, so the workers
   are always busy and, on an idle host, this clock runs with wall time
   (its rate over wall time is printed as busy_frac). Like Common.now
   it stands still while the host has the service off its CPUs. It
   also stands still while a worker idles; busy_frac and the traced
   run's client-side wall figures show that. A worker that dies keeps
   the CPU time it was last seen with, and the workers that replace it
   join the sum. *)
let clock srv =
  let gone = ref false in
  List.iter
    (fun pid ->
      match proc_cpu_s pid with
      | Some c ->
          let c0 = Option.value ~default:0. (Hashtbl.find_opt srv.cpu pid) in
          Hashtbl.replace srv.cpu pid (Float.max c c0)
      | None -> gone := true)
    srv.procs;
  if !gone then srv.procs <- srv.pid :: worker_pids srv;
  (Hashtbl.fold (fun _ c a -> a +. c) srv.cpu 0. +. now ()) /. float_of_int workers

(* [clock] for Driver.with_setups: before a server exists only the
   client runs *)
let setup_clock = function
  | None -> now () /. float_of_int workers
  | Some srv -> clock srv

let stop srv =
  (try ignore (request srv (op "shutdown" [])) with _ -> ());
  Chaos.Client.close srv.cl;
  let deadline = wall () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when wall () < deadline ->
        ignore (Unix.select [] [] [] 0.02);
        reap ()
    | 0, _ ->
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  Chaos.rm_rf srv.sdir

(* Start a supervisor, connect as soon as its socket accepts, and warm
   it up with [outstanding] fixed tenants. *)
let start ~seed ~dir k =
  let sdir = Filename.concat dir (Printf.sprintf "server-%d" k) in
  Chaos.rm_rf sdir;
  mkdir_p sdir;
  let cfg =
    {
      (Service.default_config ~dir:sdir) with
      Service.workers;
      worker_jobs = 1;
      capacity = 64;
      slice;
      fuel;
      heartbeat_s = 0.25;
      tick_s = 0.02;
      seed;
    }
  in
  let pid = Chaos.Client.spawn_server cfg in
  let deadline = wall () +. 30. in
  let rec connect () =
    match Chaos.Client.connect cfg.Service.socket with
    | cl -> cl
    | exception Unix.Unix_error _ when wall () < deadline ->
        ignore (Unix.select [] [] [] 0.002);
        connect ()
    | exception Unix.Unix_error _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        fail "tenant-burst: the server socket never came up"
  in
  let srv = { pid; cl = connect (); sdir; procs = []; cpu = Hashtbl.create 8 } in
  srv.procs <- pid :: worker_pids srv;
  let tids = List.filter_map (submit srv) (List.init outstanding Tenants.warmup) in
  if List.length tids <> outstanding then fail "tenant-burst: warm-up tenant refused";
  let deadline = wall () +. 60. in
  List.iter
    (fun tid ->
      while mem_str "state" (poll srv tid) <> Some "done" do
        if wall () > deadline then fail "tenant-burst: warm-up tenant never finished";
        ignore (Unix.select [] [] [] poll_gap_s)
      done)
    tids;
  srv

(* -- the closed loop ------------------------------------------------------- *)

type tenant = {
  t : Tenants.t;
  tid : int;
  t_submit : float;  (** before the submit request *)
  w_submit : float;  (** the same, in wall time, for the timeout *)
  t_admitted : float;  (** submit reply received *)
  mutable t_running : float option;  (** first poll that saw running *)
  mutable t_done : float;
  mutable polls : int;
  mutable poll_s : float;  (** wall time *)
  mutable result : Service.tresult option;
  mutable restarts : int;
}

type run = {
  outcome : Driver.outcome;
  finished : tenant list;  (** in submission order *)
  refused : int;
  failed_tenants : int;
  timeouts : int;
}

(* Timestamps are read on the service clock; [Driver.Seconds] and the
   tenant timeout count wall time. *)
let drive srv ~seed until =
  let t0 = clock srv and w0 = wall () in
  let next = ref 0 and live = ref [] and finished = ref [] in
  let refused = ref 0 and failed_tenants = ref 0 and timeouts = ref 0 in
  let may_submit () =
    match until with
    | Driver.Ops k -> !next < k
    | Driver.Seconds s -> wall () -. w0 < s || !next < Driver.min_ops
  in
  while may_submit () || !live <> [] do
    while may_submit () && List.length !live < outstanding do
      let t = Tenants.make ~seed !next in
      incr next;
      let a = clock srv and w = wall () in
      match submit srv t with
      | Some tid ->
          live :=
            !live
            @ [
                {
                  t;
                  tid;
                  t_submit = a;
                  w_submit = w;
                  t_admitted = clock srv;
                  t_running = None;
                  t_done = nan;
                  polls = 0;
                  poll_s = 0.;
                  result = None;
                  restarts = 0;
                };
              ]
      | None -> incr refused
    done;
    (* one sweep polls every live tenant; what it sees is stamped with
       one clock reading taken after it *)
    let seen =
      List.map
        (fun x ->
          let a = wall () in
          let p = poll srv x.tid in
          x.polls <- x.polls + 1;
          x.poll_s <- x.poll_s +. (wall () -. a);
          (x, p))
        !live
    in
    let b = clock srv in
    live :=
      List.filter_map
        (fun (x, p) ->
          let keep = Some x in
          match mem_str "state" p with
          | Some "running" ->
              if x.t_running = None then x.t_running <- Some b;
              keep
          | Some "done" -> (
              x.t_done <- b;
              match Option.map Service.tresult_of_json (Json.member "result" p) with
              | Some (Ok r) ->
                  x.result <- Some r;
                  x.restarts <-
                    Option.value ~default:0 (Option.bind (Json.member "result" p) (mem_int "restarts"));
                  finished := x :: !finished;
                  None
              | _ -> fail "tenant-burst: unreadable result for tenant %d" x.tid)
          | Some "failed" ->
              incr failed_tenants;
              None
          | _ when wall () -. x.w_submit > tenant_timeout_s ->
              incr timeouts;
              None
          | _ -> keep)
        seen;
    Speed.tick ();
    if !live <> [] then ignore (Unix.select [] [] [] poll_gap_s)
  done;
  let finished = List.sort (fun a b -> compare a.t.index b.t.index) !finished in
  let samples =
    List.map
      (fun x ->
        {
          Driver.s_start = x.t_submit;
          s_end = x.t_done;
          s_instret = (Option.get x.result).Service.r_instret;
          s_boundary = true;
        })
      finished
  in
  {
    outcome =
      {
        Driver.t0;
        samples = Array.of_list samples;
        attempted = !next;
        failed = !refused + !failed_tenants + !timeouts;
        wall_s = wall () -. w0;
        clock_s = clock srv -. t0;
      };
    finished;
    refused = !refused;
    failed_tenants = !failed_tenants;
    timeouts = !timeouts;
  }

(* Peak RSS of the client, the supervisor and its workers. *)
let rss_peak_mib srv =
  List.fold_left (fun a pid -> a +. vm_hwm_mib pid) (vm_hwm_mib 0) (srv.pid :: worker_pids srv)

(* User and system CPU seconds of the workers, which do the work *)
let work srv =
  List.fold_left
    (fun (u, s) pid ->
      let u', s' = user_sys pid in
      (u +. u', s +. s'))
    (0., 0.) (worker_pids srv)

(* Every finished tenant must equal Service.run_serial byte for byte:
   outcome, output, cycles, instret and slices. *)
let check (r : run) =
  List.iter
    (fun x ->
      let got = Option.get x.result in
      match Service.run_serial ~abi:x.t.abi ~fuel ~slice x.t.source with
      | Error e -> fail "tenant-burst: reference run of tenant %d failed: %s" x.t.index e
      | Ok want ->
          if
            got.Service.r_outcome <> want.Service.r_outcome
            || got.r_output <> want.r_output || got.r_cycles <> want.r_cycles
            || got.r_instret <> want.r_instret || got.r_slices <> want.r_slices
          then fail "tenant-burst: tenant %d (%s) differs from Service.run_serial" x.t.index x.t.band)
    r.finished;
  Printf.sprintf "%d tenants byte-identical to Service.run_serial" (List.length r.finished)

(* -- traced replay --------------------------------------------------------- *)

(* The worker runs in another process, so the traced run replays each
   finished tenant in-process through the worker's path — compile,
   machine init, then per slice Machine.run ~yield:true followed by a
   checkpoint save — and returns each tenant's own worker time. *)
let replay ~dir (r : run) =
  let path = Filename.concat dir "replay.snap" in
  let own =
    List.map
      (fun x ->
        Trace.op := x.t.index;
        let t_start = now () and probes = Trace.probe_time () in
        let abi = Option.get (Abi.of_key x.t.abi) in
        let m = Layer.machine abi (Layer.compile abi x.t.source) in
        let rec go slices =
          let remaining = fuel - Machine.instret m in
          if remaining <= 0 then slices
          else
            match Layer.run ~fuel:(min slice remaining) ~yield:true m with
            | Machine.Yielded when Machine.instret m < fuel ->
                let note =
                  Service.Checkpoint.note ~tenant:x.tid ~slices:(slices + 1) ~wall_s:0.
                    ~resumed:false ~scratch:false ~migrations:0 ~restarts:0 ~source:x.t.source
                    ~abi:x.t.abi ~fuel ~slice ~deadline_s:None
                in
                ignore (Layer.save ~note ~abi:x.t.abi ~path m);
                go (slices + 1)
            | _ -> slices + 1
        in
        let slices = go 0 in
        let got = Option.get x.result in
        if got.Service.r_slices <> slices || got.r_instret <> Machine.instret m then
          fail "tenant-burst: replay of tenant %d diverged from the service" x.t.index;
        (x, now () -. t_start -. (Trace.probe_time () -. probes)))
      r.finished
  in
  Trace.op := -1;
  own
