(* The child table both service tiers share, driven with real child
   processes (/bin/sleep, /bin/sh): exits are reaped with their status,
   a silent child past the spawn grace is SIGKILLed by the heartbeat
   probe while one inside the grace is left alone, and stop SIGKILLs a
   child that ignores its quit request. Every callback is counted, so
   each exit is seen exactly once. *)

module Supervisor = Cheri_service.Supervisor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let status =
  Alcotest.testable
    (fun ppf st -> Format.pp_print_string ppf (Supervisor.string_of_status st))
    ( = )

(* slot [i] records every exit [reap]/[stop] reports for it *)
let table n = Supervisor.create n (fun _ -> ref [])
let on_exit (c : Unix.process_status list ref Supervisor.child) st = c.data := st :: !(c.data)

(* reap until every child is dead, or fail after [timeout_s] *)
let reap_all t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    Supervisor.reap t ~on_exit;
    if Array.exists (fun (c : _ Supervisor.child) -> c.alive) t then
      if Unix.gettimeofday () > deadline then Alcotest.fail "children never reaped"
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let exits_once what (c : Unix.process_status list ref Supervisor.child) want =
  Alcotest.(check (list status)) what [ want ] !(c.data)

let test_reap_exit_zero () =
  let t = table 1 in
  Supervisor.spawn ~prog:"/bin/sleep" t.(0) [ "0" ];
  check_bool "spawned child is alive" true t.(0).alive;
  check_bool "spawn gives a real pid" true (t.(0).pid > 0);
  reap_all t ~timeout_s:10.0;
  Supervisor.reap t ~on_exit;
  exits_once "a clean exit is reaped once, with its status" t.(0) (Unix.WEXITED 0)

let test_reap_sigkill () =
  let t = table 1 in
  Supervisor.spawn ~prog:"/bin/sleep" t.(0) [ "30" ];
  Supervisor.reap t ~on_exit;
  check_bool "a running child is not reaped" true (t.(0).alive && !(t.(0).data) = []);
  Unix.kill t.(0).pid Sys.sigkill;
  reap_all t ~timeout_s:10.0;
  Supervisor.reap t ~on_exit;
  exits_once "a SIGKILLed child is reaped once" t.(0) (Unix.WSIGNALED Sys.sigkill)

let test_probe_grace () =
  let t = table 2 in
  Supervisor.spawn ~prog:"/bin/sleep" t.(0) [ "30" ];
  Unix.sleepf 0.4;
  Supervisor.spawn ~prog:"/bin/sleep" t.(1) [ "30" ];
  let stale = ref [] in
  (* neither child ever writes its status file: past the grace that is
     a missing heartbeat, inside it the child is still starting up *)
  let probe () =
    Supervisor.probe t ~grace_s:0.2 ~interval_s:0.05
      ~path:(fun _ -> "/nonexistent/heartbeat.json")
      ~on_stale:(fun c -> stale := c.pid :: !stale)
  in
  probe ();
  Alcotest.(check (list int)) "only the child past its grace is stale" [ t.(0).pid ] !stale;
  check_bool "the stale child is marked stalled" true t.(0).stalled;
  check_bool "the child inside its grace is untouched" false t.(1).stalled;
  (* a stalled child is not probed again while its reap is pending *)
  probe ();
  check_int "stale reported once" 1 (List.length !stale);
  let deadline = Unix.gettimeofday () +. 10.0 in
  while t.(0).alive && Unix.gettimeofday () < deadline do
    Supervisor.reap t ~on_exit;
    Unix.sleepf 0.02
  done;
  exits_once "the probe's SIGKILL is reaped once" t.(0) (Unix.WSIGNALED Sys.sigkill);
  check_bool "the young child still runs" true t.(1).alive;
  Unix.kill t.(1).pid Sys.sigkill;
  reap_all t ~timeout_s:10.0

let test_stop_deadline () =
  let t = table 2 in
  (* slot 0 ignores SIGTERM (the disposition survives the exec); slot 1
     honours it *)
  Supervisor.spawn ~prog:"/bin/sh" t.(0) [ "-c"; "trap '' TERM; exec sleep 30" ];
  Supervisor.spawn ~prog:"/bin/sleep" t.(1) [ "30" ];
  Unix.sleepf 0.2;
  let killed = ref [] in
  let t0 = Unix.gettimeofday () in
  Supervisor.stop t ~deadline_s:0.5
    ~quit:(fun c -> Unix.kill c.pid Sys.sigterm)
    ~on_kill:(fun c -> killed := c.pid :: !killed)
    ~on_exit;
  let took = Unix.gettimeofday () -. t0 in
  check_bool "stop waits out the deadline for the straggler" true (took >= 0.5);
  check_bool "and no longer" true (took < 5.0);
  Alcotest.(check (list int)) "only the straggler is killed" [ t.(0).pid ] !killed;
  exits_once "the straggler is SIGKILLed and reaped once" t.(0) (Unix.WSIGNALED Sys.sigkill);
  exits_once "the obedient child exits on its quit request" t.(1) (Unix.WSIGNALED Sys.sigterm);
  check_bool "no child is left alive" false
    (Array.exists (fun (c : _ Supervisor.child) -> c.alive) t)

let suite =
  [
    Alcotest.test_case "reap: exit 0 is WEXITED 0, once" `Quick test_reap_exit_zero;
    Alcotest.test_case "reap: a SIGKILLed child, once" `Quick test_reap_sigkill;
    Alcotest.test_case "probe: spawn grace, then SIGKILL on a missing heartbeat" `Quick
      test_probe_grace;
    Alcotest.test_case "stop: SIGKILL a child that ignores quit by the deadline" `Quick
      test_stop_deadline;
  ]
