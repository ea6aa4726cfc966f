(* One child table for both service tiers.

   A supervisor (over worker processes) and the router (over shard
   supervisors) manage their children the same way: re-exec the host
   binary under an argv marker, reap exits without blocking, answer a
   stale status-file heartbeat with SIGKILL, and stop with a deadline.
   This module is that mechanism, once. Each tier keeps its per-slot
   state in [data] and its policy (what a death means, who is probed,
   how long the grace and the stop deadline are) in the callbacks it
   passes in. *)

module Obs = Cheri_obs.Obs

let now = Unix.gettimeofday

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = Result.to_option (Cheri_util.File.read path)

type 'a child = {
  data : 'a;
  mutable pid : int;
  mutable alive : bool;
  mutable stalled : bool;
  mutable spawned_at : float;
}

type 'a t = 'a child array

let create n f =
  Array.init n (fun i -> { data = f i; pid = -1; alive = false; stalled = false; spawned_at = 0. })

let exec ?(prog = Sys.executable_name) ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) args =
  Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout Unix.stderr

let spawn ?prog ?stdin ?stdout c args =
  c.pid <- exec ?prog ?stdin ?stdout args;
  c.alive <- true;
  c.stalled <- false;
  c.spawned_at <- now ()

(* ECHILD: the pid is no longer ours to wait for — gone either way,
   with its status unknown *)
let lost = Unix.WEXITED 255

let poll_exit pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some lost
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

let rec wait_blocking pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_blocking pid
  | exception Unix.Unix_error _ -> lost

(* [alive] drops before the callback runs, so a callback that
   respawns the slot leaves it alive *)
let reap t ~on_exit =
  Array.iter
    (fun c ->
      if c.alive && c.pid > 0 then
        match poll_exit c.pid with
        | None -> ()
        | Some st ->
            c.alive <- false;
            on_exit c st)
    t

let probe ?(eligible = fun _ -> true) ?(wedged = fun _ -> false) t ~grace_s ~interval_s ~path
    ~on_stale =
  let t_now = now () in
  Array.iter
    (fun c ->
      (* spawn grace: a fresh child owns the status-file path of its
         dead predecessor until its own first heartbeat lands; probing
         inside the grace would read the old incarnation's mtime and
         kill-loop the slot *)
      if c.alive && (not c.stalled) && eligible c && t_now -. c.spawned_at > grace_s then begin
        let stale =
          wedged c
          ||
          match Obs.Heartbeat.probe ~now:t_now ~interval_s (path c) with
          | `Fresh -> false
          | `Stale _ | `Missing -> true
        in
        if stale then begin
          (* stalled but alive (stuck syscall, SIGSTOP): killed here,
             reaped next tick exactly like a crash *)
          c.stalled <- true;
          on_stale c;
          try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()
        end
      end)
    t

let stop ?(on_kill = fun _ -> ()) t ~quit ~deadline_s ~on_exit =
  Array.iter (fun c -> if c.alive then quit c) t;
  let deadline = now () +. deadline_s in
  let rec wait () =
    reap t ~on_exit;
    if Array.exists (fun c -> c.alive) t then
      if now () > deadline then
        Array.iter
          (fun c ->
            if c.alive then begin
              on_kill c;
              (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
              let st = wait_blocking c.pid in
              c.alive <- false;
              on_exit c st
            end)
          t
      else begin
        ignore (Unix.select [] [] [] 0.05);
        wait ()
      end
  in
  wait ()

let wait_exit pid ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec go () =
    match poll_exit pid with
    | Some st -> Some st
    | None when now () > deadline -> None
    | None ->
        ignore (Unix.select [] [] [] 0.05);
        go ()
  in
  go ()

let string_of_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
