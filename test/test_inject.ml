(* The fault-injection engine: deterministic derivation, key round
   trips, job-count-independent reports, and checkpoint restore. *)

module Rng = Cheri_inject.Rng
module Inject = Cheri_inject.Inject

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* -- deterministic derivation ------------------------------------------------- *)

let test_rng_deterministic () =
  let seq rng = List.init 16 (fun _ -> Rng.next rng) in
  let key = [ "w"; "abi"; "kind"; "7" ] in
  check_bool "same key, same stream" true (seq (Rng.of_key key) = seq (Rng.of_key key));
  check_bool "different key, different stream" false
    (seq (Rng.of_key key) = seq (Rng.of_key [ "w"; "abi"; "kind"; "8" ]));
  (* the separator matters: ["ab";"c"] and ["a";"bc"] are distinct keys *)
  check_bool "part boundaries are absorbed" false
    (seq (Rng.of_key [ "ab"; "c" ]) = seq (Rng.of_key [ "a"; "bc" ]))

let test_rng_below_in_range () =
  let rng = Rng.of_key [ "range" ] in
  for _ = 1 to 1000 do
    let n = 1 + (Rng.below rng 50) in
    let v = Rng.below rng n in
    if v < 0 || v >= n then Alcotest.failf "below %d produced %d" n v
  done

(* -- key round trips ----------------------------------------------------------- *)

let test_kind_keys_roundtrip () =
  List.iter
    (fun k ->
      match Inject.kind_of_key (Inject.kind_key k) with
      | Some k' -> check_string "round trip" (Inject.kind_key k) (Inject.kind_key k')
      | None -> Alcotest.failf "kind key %s did not parse back" (Inject.kind_key k))
    Inject.all_kinds;
  check_bool "unknown key rejected" true (Inject.kind_of_key "rowhammer" = None)

let test_pointer_protecting_partition () =
  (* the §4.2 guarantee covers stray stores and capability-field
     corruption; forged tags and plain-data flips are out of scope *)
  let expected = function
    | Inject.Tag_clear | Inject.Cap_field -> true
    | Inject.Bitflip | Inject.Tag_set | Inject.Alloc_fail -> false
  in
  List.iter
    (fun k ->
      check_bool (Inject.kind_key k) (expected k) (Inject.pointer_protecting k))
    Inject.all_kinds

let test_verdict_keys () =
  Alcotest.(check (list string))
    "verdict keys"
    [ "detected"; "masked"; "silent"; "hang" ]
    (List.map Inject.verdict_key
       [ Inject.Detected "trap"; Inject.Masked; Inject.Silent "why"; Inject.Hung ])

(* -- campaign determinism and restore ------------------------------------------ *)

(* A fast allocating workload so campaign tests stay cheap: faults have
   pointers and heap data to land on, but each run is a few thousand
   instructions. *)
let tiny : Inject.workload =
  {
    Inject.w_name = "tiny";
    w_source =
      (fun _ ->
        {|
int main(void) {
  long *a = (long *)malloc(8 * 32);
  long acc = 0;
  for (long i = 0; i < 32; i++) a[i] = i * 3;
  for (long r = 0; r < 40; r++)
    for (long i = 0; i < 32; i++) acc = acc + a[i];
  print_int(acc & 8191);
  print_char('\n');
  free(a);
  return 0;
}
|});
  }

let small_campaign () =
  Inject.default_campaign ~workloads:[ tiny ]
    ~kinds:[ Inject.Tag_clear; Inject.Bitflip ] ~seeds:2 ()

let test_campaign_jobs_invariant () =
  let c = small_campaign () in
  let r1 = Inject.run ~jobs:1 c in
  let r2 = Inject.run ~jobs:2 c in
  check_int "no errors" 0 (List.length r1.Inject.r_errors);
  check_int "full cross product" (3 * 2 * 2) (List.length r1.Inject.r_records);
  check_string "1-domain and 2-domain reports byte-identical"
    (Inject.report_json ~timing:false r1) (Inject.report_json ~timing:false r2);
  (* the matrix is consistent with the raw records *)
  let total =
    List.fold_left
      (fun acc ((_, _), (c : Inject.counts)) ->
        acc + c.Inject.n_detected + c.Inject.n_masked + c.Inject.n_silent + c.Inject.n_hung)
      0 (Inject.matrix r1)
  in
  check_int "matrix cells sum to the record count" (List.length r1.Inject.r_records) total

let test_campaign_full_restore () =
  let c = small_campaign () in
  let ck = Filename.temp_file "cheri_inject_test" ".jsonl" in
  let full = Inject.run ~jobs:1 ~checkpoint:ck c in
  (* resuming from a complete checkpoint re-runs nothing and reproduces
     the report byte for byte *)
  let restored = Inject.run ~jobs:1 ~resume:ck c in
  check_int "every record restored" (List.length full.Inject.r_records)
    restored.Inject.r_resumed;
  check_string "restored report byte-identical"
    (Inject.report_json ~timing:false full) (Inject.report_json ~timing:false restored);
  (* a checkpoint from different campaign parameters is refused *)
  (match Inject.run ~jobs:1 ~resume:ck { c with Inject.c_seeds = 3 } with
  | exception Inject.Resume_mismatch _ -> ()
  | _ -> Alcotest.fail "resume accepted a mismatched campaign");
  Sys.remove ck

(* Journal lines for tasks outside the campaign — a seed past the
   range, a workload it does not run — and a duplicated line are not
   resumed tasks: r_resumed and inject_resumed_total count each of the
   campaign's tasks once. *)
let test_resume_ignores_foreign_tasks () =
  let c = small_campaign () in
  let ck = Filename.temp_file "cheri_inject_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove ck) (fun () ->
      let full = Inject.run ~jobs:1 ~checkpoint:ck c in
      let r0 = List.hd full.Inject.r_records in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 ck in
      List.iter
        (fun r -> output_string oc (Inject.record_json r ^ "\n"))
        [ { r0 with Inject.seed = 99 }; { r0 with Inject.workload = "nope" }; r0 ];
      close_out oc;
      let obs = Cheri_obs.Obs.create () in
      let restored = Inject.run ~jobs:1 ~obs ~resume:ck c in
      let n = List.length full.Inject.r_records in
      check_int "each campaign task resumed once" n restored.Inject.r_resumed;
      check_int "inject_resumed_total agrees" n
        Cheri_obs.Obs.(Counter.value (counter obs "inject_resumed_total"));
      check_string "restored report byte-identical"
        (Inject.report_json ~timing:false full) (Inject.report_json ~timing:false restored))

(* An unreadable resume file is a Resume_mismatch (the CLI's exit 2),
   not an escaping Sys_error. *)
let test_resume_unreadable () =
  List.iter
    (fun path ->
      match Inject.run ~resume:path (small_campaign ()) with
      | exception Inject.Resume_mismatch _ -> ()
      | _ -> Alcotest.failf "resume from %s accepted" path)
    [ "/nonexistent/inject.jsonl"; Filename.get_temp_dir_name () ]

let test_silent_count_matches_matrix () =
  let c = small_campaign () in
  let r = Inject.run ~jobs:1 c in
  List.iter
    (fun abi ->
      let via_matrix =
        List.fold_left
          (fun acc ((a, _), (cnt : Inject.counts)) ->
            if a = abi then acc + cnt.Inject.n_silent else acc)
          0 (Inject.matrix r)
      in
      check_int (abi ^ " silent totals agree") via_matrix
        (Inject.silent_count r ~abi Inject.all_kinds))
    [ "MIPS"; "CHERIv2"; "CHERIv3" ]

(* -- one deadline per sliced task ------------------------------------------------ *)

(* Any flipped bit in [g] sends the next round into a syscall-free spin;
   the reference run finishes in a few tens of thousands of
   instructions. *)
let spin_on_flip : Inject.workload =
  {
    Inject.w_name = "spin-on-flip";
    w_source =
      (fun _ ->
        {|
int main(void) {
  long *g = (long *)malloc(8 * 64);
  for (long i = 0; i < 64; i++) g[i] = 0;
  for (long r = 0; r < 100; r++) {
    long s = 0;
    for (long i = 0; i < 64; i++) s = s | g[i];
    if (s != 0) { while (1) { } }
  }
  print_int(7);
  return 0;
}
|});
  }

(* With ample fuel, only the deadline can stop a spinning task, and
   under --slice it must bound the whole post-fault run, not each
   slice: the slices of every task together stay far below one task's
   fuel. A deadline re-armed per slice never fires on a slice shorter
   than the machine's sampling stride, so there the fuel would run out
   instead, slice by slice. *)
let test_sliced_deadline_is_per_task () =
  let fuel = 40_000_000 and slice = 1_000 in
  let c =
    Inject.default_campaign ~workloads:[ spin_on_flip ] ~kinds:[ Inject.Bitflip ] ~seeds:2
      ~fuel ~deadline_s:0.02 ()
  in
  let obs = Cheri_obs.Obs.create () in
  let r = Inject.run ~jobs:1 ~slice ~obs c in
  check_int "no errors" 0 (List.length r.Inject.r_errors);
  let hung =
    List.filter
      (fun (x : Inject.record) -> x.Inject.verdict = Inject.Hung && x.Inject.trigger > 0)
      r.Inject.r_records
  in
  check_bool "some injected task spins" true (hung <> []);
  let slices = Cheri_obs.Obs.(Counter.value (counter obs "pool_task_slices_total")) in
  check_bool
    (Printf.sprintf "%d slices in all, under one task's fuel (%d)" slices (fuel / slice))
    true
    (slices < fuel / slice)

(* A bit flip lands in a heap block the program never reads again, so
   every task runs to its exit. The deadline is far above any one
   task's own run but below the whole campaign's: a task charged for
   the time it waits behind the others in the round-robin queue would
   be reaped as a hang. The deadline is half the unsliced campaign's
   wall time, so it sits below the whole campaign and about eight
   tasks' runs above any one of them, however fast the host is. *)
let flip_ignored : Inject.workload =
  {
    Inject.w_name = "flip-ignored";
    w_source =
      (fun _ ->
        {|
int main(void) {
  long *g = (long *)malloc(8 * 512);
  g[0] = 1;
  long s = 0;
  for (long i = 0; i < 40000; i++) s = s + (i & 7);
  print_int(s);
  return 0;
}
|});
  }

let test_sliced_deadline_ignores_queue_time () =
  let c = Inject.default_campaign ~workloads:[ flip_ignored ] ~kinds:[ Inject.Bitflip ] ~seeds:16 in
  let t0 = Unix.gettimeofday () in
  let unsliced = Inject.run ~jobs:1 (c ()) in
  let deadline_s = (Unix.gettimeofday () -. t0) /. 2. in
  let t0 = Unix.gettimeofday () in
  let sliced = Inject.run ~jobs:1 ~slice:500 (c ~deadline_s ()) in
  let wall = Unix.gettimeofday () -. t0 in
  check_int "no errors" 0 (List.length sliced.Inject.r_errors);
  check_bool
    (Printf.sprintf "the sliced campaign (%.3f s) outlasts one deadline (%.3f s)" wall deadline_s)
    true (wall > deadline_s);
  check_bool "same records as the unsliced run without a deadline" true
    (sliced.Inject.r_records = unsliced.Inject.r_records)

let suite =
  [
    Alcotest.test_case "rng is key-deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng below stays in range" `Quick test_rng_below_in_range;
    Alcotest.test_case "kind keys round trip" `Quick test_kind_keys_roundtrip;
    Alcotest.test_case "pointer-protecting partition" `Quick test_pointer_protecting_partition;
    Alcotest.test_case "verdict keys" `Quick test_verdict_keys;
    Alcotest.test_case "report independent of job count" `Slow test_campaign_jobs_invariant;
    Alcotest.test_case "full checkpoint restore" `Slow test_campaign_full_restore;
    Alcotest.test_case "resume ignores journal lines outside the campaign" `Slow
      test_resume_ignores_foreign_tasks;
    Alcotest.test_case "resume from an unreadable file is refused" `Quick test_resume_unreadable;
    Alcotest.test_case "silent_count agrees with the matrix" `Slow
      test_silent_count_matches_matrix;
    Alcotest.test_case "a sliced task has one deadline" `Quick
      test_sliced_deadline_is_per_task;
    Alcotest.test_case "a sliced task is not charged for queue time" `Quick
      test_sliced_deadline_ignores_queue_time;
  ]
