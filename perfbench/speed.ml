(* The host's speed, probed by fixed kernels of the benchmark's own.

   On a shared host the same instructions run up to about 1.6x faster
   for minutes at a time (CPU time as well as wall time; see README.md,
   "Host speed"), so a timing is only comparable to another taken at
   the same host speed. Between operations the benchmark probes two
   speeds: user code (about every 250 ms of wall time) and the kernel's
   page faults (about every second). It then scales every timing of the
   run by

     scale = u * user_ref_s / median user probe
           + s * fault_ref_s / median fault probe

   where u and s are the shares of user and system time in the work
   the run timed, so a timing reads as it would on the reference host.
   The probes' own CPU time is kept off the clock (Common.probe_s). *)

(* Medians on the reference host, a 2-vCPU Intel Xeon VM, release
   build. *)
let user_ref_s = 0.00085
let fault_ref_s = 0.0024

let user_gap_s = 0.25
let fault_gap_s = 1.

(* -- user code ------------------------------------------------------------- *)

(* Integer work on a table that fits the L2, with a data-dependent
   branch, then a sequential fill of a buffer of the same size, as the
   simulator's interpreter loop and its memory copies do. *)
let words = 1 lsl 15

let table = Array.make words 0
let buf = Bytes.create (words * 8)

let kernel () =
  let x = ref 0x2545F491 in
  for i = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !x land (words - 1) in
    let v = Array.unsafe_get table k in
    Array.unsafe_set table k (if v land 1 = 0 then v + i else v lxor i)
  done;
  Bytes.fill buf 0 (Bytes.length buf) (Char.unsafe_chr (!x land 255));
  ignore (Sys.opaque_identity (Bytes.unsafe_get buf 0))

let user_samples = ref []
let user_last = ref neg_infinity

(* The first run brings the table and buffer back into the caches the
   workload has filled; the second is timed. *)
let user_probe () =
  let t0 = Common.cpu () in
  kernel ();
  let t1 = Common.cpu () in
  kernel ();
  let t2 = Common.cpu () in
  Common.probe_s := !Common.probe_s +. (t2 -. t0);
  user_samples := (t2 -. t1) :: !user_samples;
  user_last := Common.wall ()

(* -- page faults ----------------------------------------------------------- *)

(* A machine init is mostly the kernel zero-filling fresh pages. The
   fault probe is this binary re-executed with [fault_marker]: it maps
   fresh memory (an allocation above glibc's largest mmap threshold,
   32 MiB, is always a fresh mapping), times its own CPU for first
   touches of 1024 pages, and prints the median of three rounds. A
   child leaves the benchmark process's heap and mappings as they
   were. *)
let fault_marker = "perfbench-fault-probe"

let fault_child () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = fault_marker then begin
    let round () =
      let b = Bytes.create (33 lsl 20) in
      let t = Common.cpu () in
      for i = 0 to 1023 do
        Bytes.unsafe_set b (i lsl 12) 'x'
      done;
      let d = Common.cpu () -. t in
      ignore (Sys.opaque_identity b);
      d
    in
    Printf.printf "%.9f\n" (Common.median (List.init 3 (fun _ -> round ())));
    exit 0
  end

let fault_samples = ref []
let fault_last = ref neg_infinity

let fault_probe () =
  let t0 = Common.cpu () in
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; fault_marker |] in
  let line = try input_line ic with End_of_file -> "" in
  let status = Unix.close_process_in ic in
  Common.probe_s := !Common.probe_s +. (Common.cpu () -. t0);
  (match (status, float_of_string_opt line) with
  | Unix.WEXITED 0, Some d when d > 0. -> fault_samples := d :: !fault_samples
  | _ -> Common.fail "the page-fault probe failed");
  fault_last := Common.wall ()

(* -- scaling --------------------------------------------------------------- *)

let probe () =
  user_probe ();
  fault_probe ()

(* Probe what is due. *)
let tick () =
  let t = Common.wall () in
  if t -. !user_last >= user_gap_s then user_probe ();
  if t -. !fault_last >= fault_gap_s then fault_probe ()

let user_median_s () = Common.median !user_samples
let fault_median_s () = Common.median !fault_samples

(* What a timing of this run is multiplied by to read at the reference
   host's speed, given the user and system CPU seconds of the work. *)
let scale ~user ~sys =
  let u = user /. (user +. sys) in
  (u *. user_ref_s /. user_median_s ()) +. ((1. -. u) *. fault_ref_s /. fault_median_s ())
