(* Shared helpers: clocks, statistics, process memory, and the failure
   path every correctness check takes. *)

module Json = Cheri_util.Json

(* Wall-clock time: run lengths, deadlines and timeouts. *)
let wall = Unix.gettimeofday

(* CPU seconds (user plus system) this process has used *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds spent in Speed probes, which the clock leaves out *)
let probe_s = ref 0.

(* The benchmark's clock: this process's CPU seconds, less its probes.
   Every timing of an in-process workload is read on it. On an idle
   host it runs with wall time, because the work neither sleeps nor
   waits on a device; unlike wall time, it does not run while the host
   has the process off its CPU (hypervisor steal, other processes' time
   slices), which swings wall time by up to 2x between runs on a shared
   host. Speed.scale then puts timings at the reference host's speed.
   See README.md, "Clock" and "Host speed". *)
let now () = cpu () -. !probe_s

(* User and system CPU seconds of this process, or of process [pid]
   from /proc/PID/stat (in clock ticks, assumed 100 per second). *)
let user_sys pid =
  if pid = 0 then
    let t = Unix.times () in
    (t.Unix.tms_utime, t.Unix.tms_stime)
  else
    match open_in (Printf.sprintf "/proc/%d/stat" pid) with
    | exception Sys_error _ -> (0., 0.)
    | ic ->
        let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
        (* fields after the parenthesised command name: state is the
           first, utime the 12th and stime the 13th *)
        let i = String.rindex line ')' + 2 in
        let f = Array.of_list (String.split_on_char ' ' (String.sub line i (String.length line - i))) in
        (float_of_string f.(11) /. 100., float_of_string f.(12) /. 100.)

(* CPU seconds process [pid] has used, summed over its threads, from
   the run time in nanoseconds that starts each thread's
   /proc/PID/task/TID/schedstat. None once the process is gone. *)
let proc_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | tids ->
      let thread tid =
        match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
        | exception Sys_error _ -> 0.
        | ic ->
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                try Scanf.sscanf (input_line ic) "%d" (fun ns -> float_of_int ns /. 1e9)
                with End_of_file | Scanf.Scan_failure _ | Failure _ -> 0.)
      in
      Some (Array.fold_left (fun a tid -> a +. thread tid) 0. tids)

exception Check_failed of string

(* A correctness check failed: the run reports no numbers. *)
let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let md5 s = Digest.to_hex (Digest.string s)

(* -- statistics ------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

(* median with linear interpolation between the middle order statistics *)
let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   11th-largest sample, at percentile (n - 10) / n. Returns
   (value, percentile in %, sample count). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 11 then fail "tail latency needs at least 11 samples, got %d" n;
  (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

(* -- memory ---------------------------------------------------------------- *)

(* Peak resident set (VmHWM) of a live process, in MiB; 0 when the
   process is gone or /proc is unavailable. *)
let vm_hwm_mib pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let major_words () =
  let s = Gc.quick_stat () in
  s.Gc.major_words

(* -- files ----------------------------------------------------------------- *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
