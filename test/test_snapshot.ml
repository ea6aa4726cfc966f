(* The snapshot/restore subsystem at the library level: preemptive
   slicing and a save/load/restore round trip must be invisible to
   every observable on every ABI, damaged images must be refused with
   the right structured error (and leave the target machine untouched),
   and the deadline watchdog must sample the clock at syscall
   boundaries, not only every 32k instructions. *)

module Machine = Cheri_isa.Machine
module Abi = Cheri_compiler.Abi
module Codegen = Cheri_compiler.Codegen
module Snapshot = Cheri_snapshot.Snapshot
module Crc32 = Cheri_snapshot.Crc32

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* small but eventful: heap churn, stores through capabilities, output
   and syscalls, so a midpoint snapshot carries every state class *)
let src =
  {|
int main(void) {
  long *acc = (long *)malloc(8 * 32);
  long sum = 0;
  for (long r = 0; r < 40; r++) {
    long *tmp = (long *)malloc(8 * 16);
    for (long i = 0; i < 16; i++) tmp[i] = r * 31 + i;
    for (long i = 0; i < 16; i++) sum += tmp[i];
    acc[r % 32] = sum;
    free(tmp);
    if (r % 8 == 0) print_int(sum & 4095);
  }
  print_int(sum & 65535);
  return 0;
}
|}

let fresh abi = Codegen.machine_for abi (Codegen.compile_source abi src)

type obs = { o_cycles : int; o_instret : int; o_output : string }

let observe m = { o_cycles = Machine.cycles m; o_instret = Machine.instret m; o_output = Machine.output m }

let finish m =
  match Machine.run m with
  | Machine.Exit 0L -> observe m
  | o -> Alcotest.failf "unexpected outcome: %s" (Format.asprintf "%a" Machine.pp_outcome o)

let run_sliced ~slice m =
  let rec go () =
    match Machine.run ~fuel:slice ~yield:true m with
    | Machine.Yielded -> go ()
    | Machine.Exit 0L -> observe m
    | o -> Alcotest.failf "unexpected sliced outcome: %s" (Format.asprintf "%a" Machine.pp_outcome o)
  in
  go ()

let preempt_at abi ~at =
  let m = fresh abi in
  (match Machine.run ~fuel:at ~yield:true m with
  | Machine.Yielded -> ()
  | o ->
      Alcotest.failf "%s: finished (%s) before the midpoint" (Abi.name abi)
        (Format.asprintf "%a" Machine.pp_outcome o));
  m

let with_temp f =
  let path = Filename.temp_file "cheri-test-snapshot" ".snap" in
  Fun.protect ~finally:(fun () -> Snapshot.remove path) (fun () -> f path)

let save_exn ~abi ~path m =
  match Snapshot.save ~abi ~path m with
  | Ok n -> n
  | Error e -> Alcotest.failf "save failed: %s" (Snapshot.error_to_string e)

let load_exn path =
  match Snapshot.load path with
  | Ok img -> img
  | Error e -> Alcotest.failf "load failed: %s" (Snapshot.error_to_string e)

(* -- slicing and save/restore equivalence -------------------------------------- *)

let test_sliced_equivalence () =
  List.iter
    (fun abi ->
      let reference = finish (fresh abi) in
      (* odd slice sizes land the yields at unaligned points *)
      List.iter
        (fun slice ->
          check_bool
            (Printf.sprintf "%s: slice=%d run matches flat run" (Abi.name abi) slice)
            true
            (run_sliced ~slice (fresh abi) = reference))
        [ 777; 4_096 ])
    Abi.all

let test_save_restore_roundtrip () =
  List.iter
    (fun abi ->
      let name = Abi.name abi in
      let reference = finish (fresh abi) in
      let at = reference.o_instret / 2 in
      with_temp (fun path ->
          let m1 = preempt_at abi ~at in
          let bytes = save_exn ~abi:name ~path m1 in
          check_bool (name ^ ": snapshot has a plausible size") true (bytes > 1024);
          (* the original continues unharmed by the save *)
          check_bool (name ^ ": continued-after-save matches reference") true
            (finish m1 = reference);
          let img = load_exn path in
          Alcotest.(check string) (name ^ ": image records the ABI") name (Snapshot.image_abi img);
          check_int (name ^ ": image records the preemption point") at
            (Snapshot.image_instret img);
          check_bool (name ^ ": describe is non-empty") true
            (String.length (Snapshot.describe img) > 0);
          let m2 = fresh abi in
          (match Snapshot.restore m2 ~abi:name img with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: restore failed: %s" name (Snapshot.error_to_string e));
          check_bool (name ^ ": restored machine matches reference") true
            (finish m2 = reference)))
    Abi.all

(* -- damaged and mismatched images ---------------------------------------------- *)

let expect_error what result check =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected a structured error, got success" what
  | Error e ->
      check_bool (what ^ ": error class") true (check e);
      check_bool (what ^ ": message is non-empty") true
        (String.length (Snapshot.error_to_string e) > 0)

let test_refused_images () =
  let abi = Abi.(Cheri Cheri_core.Cap_ops.V3) in
  with_temp (fun path ->
      let m = preempt_at abi ~at:5_000 in
      ignore (save_exn ~abi:(Abi.name abi) ~path m);
      let ic = open_in_bin path in
      let good = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let write_variant contents =
        let oc = open_out_bin path in
        output_string oc contents;
        close_out oc
      in
      (* truncated inside the body *)
      write_variant (String.sub good 0 (String.length good - 100));
      expect_error "truncated" (Snapshot.load path) (function
        | Snapshot.Truncated _ -> true
        | _ -> false);
      (* trailing garbage is also a length mismatch *)
      write_variant (good ^ "xx");
      expect_error "oversized" (Snapshot.load path) (function
        | Snapshot.Truncated _ -> true
        | _ -> false);
      (* same length, one flipped body byte *)
      let b = Bytes.of_string good in
      let pos = Bytes.length b - 40 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      write_variant (Bytes.to_string b);
      expect_error "corrupt" (Snapshot.load path) (function
        | Snapshot.Crc_mismatch _ -> true
        | _ -> false);
      (* not our format at all *)
      write_variant "some other file format\nwith bytes in it";
      expect_error "alien" (Snapshot.load path) (function
        | Snapshot.Version_mismatch _ -> true
        | _ -> false);
      (* missing file: an Io error, not an exception *)
      expect_error "missing"
        (Snapshot.load (path ^ ".does-not-exist"))
        (function Snapshot.Io _ -> true | _ -> false))

(* Truncation inside the fixed-size prelude (magic, header length) must
   report [Truncated] with the byte offset — these are exactly the
   shapes a crash-during-save or a torn copy leaves behind, and the
   supervisor's recovery path keys on the error class. *)
let test_truncated_header_offsets () =
  let contains hay sub =
    let n = String.length sub and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
    go 0
  in
  let abi = Abi.(Cheri Cheri_core.Cap_ops.V3) in
  with_temp (fun path ->
      let m = preempt_at abi ~at:5_000 in
      ignore (save_exn ~abi:(Abi.name abi) ~path m);
      let ic = open_in_bin path in
      let good = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let write_variant contents =
        let oc = open_out_bin path in
        output_string oc contents;
        close_out oc
      in
      let expect_truncated what frag =
        expect_error what (Snapshot.load path) (function
          | Snapshot.Truncated msg -> contains msg frag
          | _ -> false)
      in
      (* a zero-byte file: the crash came before the first write *)
      write_variant "";
      expect_truncated "empty file" "at byte 0";
      (* cut mid-magic *)
      write_variant (String.sub good 0 3);
      expect_truncated "mid-magic" "inside the format magic at byte 3";
      (* magic intact, header-length word cut *)
      write_variant (String.sub good 0 (String.length "cheri_c.snap/v1\n" + 2));
      expect_truncated "cut header length" "before the header length";
      (* sub-magic-length bytes that are NOT a magic prefix are a
         foreign file, not our truncation *)
      write_variant "xy";
      expect_error "short alien" (Snapshot.load path) (function
        | Snapshot.Version_mismatch _ -> true
        | _ -> false))

let test_mismatch_leaves_machine_untouched () =
  let v3 = Abi.(Cheri Cheri_core.Cap_ops.V3) in
  with_temp (fun path ->
      let m = preempt_at v3 ~at:5_000 in
      ignore (save_exn ~abi:(Abi.name v3) ~path m);
      let img = load_exn path in
      (* a CHERIv3 image must refuse a MIPS machine... *)
      let mips = fresh Abi.Mips in
      expect_error "cross-ABI restore"
        (Snapshot.restore mips ~abi:(Abi.name Abi.Mips) img)
        (function Snapshot.Machine_mismatch _ -> true | _ -> false);
      (* ...and leave it pristine: it still runs exactly like a fresh one *)
      check_bool "refused machine runs on untouched" true
        (finish mips = finish (fresh Abi.Mips));
      (* same ABI, different program: the code digest refuses it *)
      let other_src = "int main(void) { print_int(7); return 0; }" in
      let other = Codegen.machine_for v3 (Codegen.compile_source v3 other_src) in
      expect_error "cross-program restore"
        (Snapshot.restore other ~abi:(Abi.name v3) img)
        (function Snapshot.Machine_mismatch _ -> true | _ -> false))

(* -- the deadline watchdog at syscall boundaries -------------------------------- *)

(* With fuel below the 32k sampling stride, the periodic check can
   never fire: an expired deadline is only noticed if the loop also
   samples the clock at syscall boundaries. The program does one early
   syscall and then spins, so the watchdog must trip just after the
   syscall — well before the fuel runs out. *)
let test_deadline_sampled_at_syscalls () =
  let spin_src =
    {|
int main(void) {
  print_int(1);
  long acc = 0;
  for (long i = 0; i < 100000; i++) acc += i;
  print_int(acc & 1023);
  return 0;
}
|}
  in
  let abi = Abi.Mips in
  let fresh_spin () = Codegen.machine_for abi (Codegen.compile_source abi spin_src) in
  (* sanity: without a deadline the budget itself is the verdict *)
  let m0 = fresh_spin () in
  check_bool "fuel alone exhausts" true (Machine.run ~fuel:10_000 m0 = Machine.Fuel_exhausted);
  check_bool "program is longer than the test fuel" true (Machine.instret m0 = 10_000);
  (* an already-expired deadline with sub-stride fuel: only the
     syscall-boundary sample can notice it *)
  let m1 = fresh_spin () in
  check_bool "expired deadline noticed at the syscall" true
    (Machine.run ~fuel:10_000 ~deadline_s:(-1.0) m1 = Machine.Deadline_exceeded);
  check_bool "watchdog fired before the fuel ran out" true (Machine.instret m1 < 10_000);
  (* in yield mode the same interruption is recoverable *)
  let m2 = fresh_spin () in
  check_bool "yield mode turns the deadline into Yielded" true
    (Machine.run ~fuel:10_000 ~deadline_s:(-1.0) ~yield:true m2 = Machine.Yielded)

(* An armed deadline runs the same instruction loop in 32k chunks; one
   that never fires must be invisible: outcome, output, cycles, instret,
   stats and telemetry all equal the unarmed run's, for a run that
   exits, one that traps, and one with a telemetry sink. Every program
   retires well over one chunk. *)
let test_unreached_deadline_is_invisible () =
  let module T = Cheri_telemetry.Telemetry in
  let long_loop = "long acc = 0; for (long i = 0; i < 20000; i++) acc += i;" in
  let exits =
    Printf.sprintf "int main(void) { %s print_int(acc & 1023); return 0; }" long_loop
  and traps =
    Printf.sprintf
      "int main(void) { %s char *p = (char *)malloc(16); p[20] = 'x'; print_int(acc); return 0; }"
      long_loop
  in
  let abi = Abi.(Cheri Cheri_core.Cap_ops.V3) in
  let run_once ?deadline_s ~telemetry src =
    let m = Codegen.machine_for abi (Codegen.compile_source abi src) in
    let sink = if telemetry then Some (T.Sink.create ()) else None in
    Option.iter (Machine.set_sink m) sink;
    let outcome = Machine.run ?deadline_s m in
    ( outcome,
      Machine.output m,
      Machine.stats m,
      Option.map (fun s -> (T.snapshot s, T.Sink.events s)) sink )
  in
  List.iter
    (fun (what, src, telemetry, expect) ->
      let ((outcome, _, st, _) as unarmed) = run_once ~telemetry src in
      check_bool (what ^ ": expected outcome") true (expect outcome);
      check_bool (what ^ ": retires more than one chunk") true (st.Machine.st_instret > 32_768);
      check_bool (what ^ ": armed = unarmed") true
        (run_once ~deadline_s:3600. ~telemetry src = unarmed))
    [
      ("exit", exits, false, (function Machine.Exit 0L -> true | _ -> false));
      ("trap", traps, false, (function Machine.Trap _ -> true | _ -> false));
      ("telemetry", traps, true, (function Machine.Trap _ -> true | _ -> false));
    ]

(* With no syscall to sample at, an expired deadline is noticed at the
   first chunk boundary: at most one 32k stride retires. *)
let test_deadline_sampled_per_stride () =
  let spin_src =
    {|
int main(void) {
  long acc = 0;
  for (long i = 0; i < 100000; i++) acc += i;
  return acc & 1;
}
|}
  in
  let fresh () = Codegen.machine_for Abi.Mips (Codegen.compile_source Abi.Mips spin_src) in
  let m = fresh () in
  check_bool "expired deadline stops a syscall-free spin" true
    (Machine.run ~fuel:1_000_000 ~deadline_s:(-1.0) m = Machine.Deadline_exceeded);
  check_bool "within one stride" true (Machine.instret m > 0 && Machine.instret m <= 32_768);
  (* the stop is between instructions: the run continues to the same end *)
  let flat = fresh () in
  let final = Machine.run flat in
  check_bool "resumed run ends like the flat run" true
    (Machine.run m = final && Machine.stats m = Machine.stats flat)

(* -- format stability and checkpoint cost ----------------------------------------- *)

(* cheri_c.snap/v1 pinned byte for byte: the MD5 of each ABI's image of
   [src] saved at instruction 5000. These values were captured before
   saves became dirty-tracked and streamed; any change to them is an
   on-disk format change and needs a new format version. *)
let golden_md5 =
  [
    ("MIPS", 59393, "9d0ef8aadfd5bc852b9249f2a9809c2a");
    ("CHERIv2", 63500, "b93f99de904933723d4cba67b92efa21");
    ("CHERIv3", 63500, "a473751af568bec8527acb664c5b1c8d");
  ]

let test_image_golden () =
  List.iter
    (fun abi ->
      let name = Abi.name abi in
      let _, bytes, md5 = List.find (fun (n, _, _) -> n = name) golden_md5 in
      with_temp (fun path ->
          check_int (name ^ ": image size") bytes (save_exn ~abi:name ~path (preempt_at abi ~at:5_000));
          Alcotest.(check string) (name ^ ": image bytes") md5 (Digest.to_hex (Digest.file path))))
    Abi.all

(* The deterministic cost proxy of a checkpoint: a small program's save
   zero-scans only the pages it touched, a few dozen, not the 8192 data
   pages and 256 tag pages of its 32 MiB memory. *)
let test_save_scans_few_pages () =
  let scanned = Cheri_obs.Obs.(counter default "snapshot_pages_scanned_total") in
  List.iter
    (fun abi ->
      let name = Abi.name abi in
      with_temp (fun path ->
          let m = preempt_at abi ~at:5_000 in
          let before = Cheri_obs.Obs.Counter.value scanned in
          ignore (save_exn ~abi:name ~path m);
          let n = Cheri_obs.Obs.Counter.value scanned - before in
          check_bool (Printf.sprintf "%s: %d pages scanned, at most 48" name n) true
            (n > 0 && n <= 48)))
    Abi.all

(* The allocation proxy of a streaming save: data pages go from the
   memory to the file through one reusable buffer, so the OCaml heap
   sees a few words of list per saved page, not a 4 KiB string. The
   fixed part (registers, cache state, header) is spread over the
   pages, hence a footprint well above the 256-page floor. The same
   bound holds for a service worker's checkpoint: a Resumable.save
   whose note (built inside the measurement) carries a whole tenant
   assignment. *)
let test_save_allocates_per_page () =
  let m = preempt_at Abi.Mips ~at:5_000 in
  let pages = 2048 in
  for i = 0 to pages - 1 do
    Cheri_tagmem.Tagmem.store_word (Machine.mem m) ((8 lsl 20) + (i * 4096)) (Int64.of_int (i + 1))
  done;
  let saved =
    List.length (fst (Cheri_tagmem.Tagmem.scan_pages (Machine.mem m) ~page_bytes:4096))
  in
  with_temp (fun path ->
      (* A domain that has exited leaves its uncounted major words to be
         adopted by whichever domain runs the next major slice; finish
         a cycle first so earlier tests' pools are not billed here. *)
      check_bool (Printf.sprintf "%d pages saved, at least %d" saved pages) true (saved >= pages);
      let per_page what save =
        Gc.full_major ();
        let a0 = Gc.allocated_bytes () in
        save ();
        let per_page = (Gc.allocated_bytes () -. a0) /. 8. /. float_of_int saved in
        check_bool
          (Printf.sprintf "%s: %.1f words allocated per saved page, at most 64" what per_page)
          true (per_page <= 64.)
      in
      let note () =
        Cheri_service.Service.Checkpoint.note ~tenant:17 ~slices:23 ~wall_s:0.125 ~resumed:true
          ~scratch:false ~migrations:1 ~restarts:2 ~source:src ~abi:"MIPS" ~fuel:200_000_000
          ~slice:100_000 ~deadline_s:(Some 30.)
      in
      per_page "Snapshot.save" (fun () -> ignore (save_exn ~abi:"MIPS" ~path m));
      per_page "Resumable.save, service note" (fun () ->
          Cheri_snapshot.Resumable.save ~note:(note ()) ~abi:"MIPS" ~path m);
      check_bool "the service-note save landed" true
        (Cheri_snapshot.Resumable.read_note path = Ok (note ())))

(* The allocation proxy of a load: the file's bytes are read into one
   string and the body is decoded in place, so the OCaml heap sees that
   string, one string per saved page, and small change — about 2.2
   bytes per image byte here. Copying the body out before decoding it
   added another image-sized string (3.0). *)
let test_load_allocates_per_byte () =
  let m = preempt_at Abi.Mips ~at:5_000 in
  for i = 0 to 255 do
    Cheri_tagmem.Tagmem.store_word (Machine.mem m) ((8 lsl 20) + (i * 4096)) (Int64.of_int (i + 1))
  done;
  with_temp (fun path ->
      let bytes = save_exn ~abi:"MIPS" ~path m in
      check_bool (Printf.sprintf "a 1 MiB footprint: %d image bytes" bytes) true
        (bytes >= 1 lsl 20);
      Gc.full_major ();
      let a0 = Gc.allocated_bytes () in
      let img = load_exn path in
      let per_byte = (Gc.allocated_bytes () -. a0) /. float_of_int bytes in
      check_int "the load decoded the whole image" 5_000 (Snapshot.image_instret img);
      check_bool
        (Printf.sprintf "%.2f bytes allocated per image byte, at most 2.5" per_byte)
        true (per_byte <= 2.5))

(* A save that fails after the spare exists (here: the rename onto a
   directory, which is never exchanged) reports the error, removes the
   spare and counts itself as an error, not as a save, since
   checkpoint callers ignore the result. A load that fails is not a
   load either. *)
let test_failed_save_cleans_up () =
  let errors = Cheri_obs.Obs.(counter default "snapshot_save_errors_total") in
  let saves = Cheri_obs.Obs.(counter default "snapshot_saves_total") in
  let loads = Cheri_obs.Obs.(counter default "snapshot_loads_total") in
  let dir = Filename.temp_file "cheri-test-snapshot" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove (dir ^ ".tmp") with Sys_error _ -> ());
      Sys.rmdir dir)
    (fun () ->
      let m = preempt_at Abi.Mips ~at:5_000 in
      let before = Cheri_obs.Obs.Counter.value errors in
      let saves0 = Cheri_obs.Obs.Counter.value saves in
      (match Snapshot.save ~abi:"MIPS" ~path:dir m with
      | Error (Snapshot.Io _) -> ()
      | Error e -> Alcotest.failf "wrong error class: %s" (Snapshot.error_to_string e)
      | Ok _ -> Alcotest.fail "a save onto a directory succeeded");
      check_bool "no spare left behind" false (Sys.file_exists (dir ^ ".tmp"));
      check_int "the failure is counted" (before + 1) (Cheri_obs.Obs.Counter.value errors);
      check_int "the failure is not a save" saves0 (Cheri_obs.Obs.Counter.value saves);
      check_bool "the directory is untouched" true (Sys.is_directory dir);
      let loads0 = Cheri_obs.Obs.Counter.value loads in
      (match Snapshot.load dir with
      | Error (Snapshot.Io _) -> ()
      | _ -> Alcotest.fail "a load of a directory is not an Io error");
      check_int "the failed load is not a load" loads0 (Cheri_obs.Obs.Counter.value loads))

(* -- the standing spare ---------------------------------------------------------- *)

(* No new file per save: the image and its spare trade places, so ten
   saves to one path show at most two inode numbers there. Each image
   seen stays open until the end, so a save that made a fresh file
   could not hide behind a reused inode number. Needs a file system
   with RENAME_EXCHANGE (ext4, xfs, btrfs, tmpfs). *)
let test_save_reuses_spare () =
  let m = preempt_at Abi.Mips ~at:5_000 in
  with_temp (fun path ->
      let held =
        List.init 10 (fun _ ->
            ignore (save_exn ~abi:"MIPS" ~path m);
            let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
            (fd, (Unix.fstat fd).Unix.st_ino))
      in
      List.iter (fun (fd, _) -> Unix.close fd) held;
      let inodes = List.length (List.sort_uniq compare (List.map snd held)) in
      check_bool (Printf.sprintf "%d distinct inodes at the path, at most 2" inodes) true
        (inodes <= 2);
      check_bool "the spare stands beside the image" true (Sys.file_exists (path ^ ".tmp")))

(* A small image written into a spare that held a large one is cut to
   its own length, byte for byte the image a fresh file gets. *)
let test_smaller_save_truncates () =
  let big = preempt_at Abi.Mips ~at:5_000 in
  for i = 0 to 255 do
    Cheri_tagmem.Tagmem.store_word (Machine.mem big) ((8 lsl 20) + (i * 4096)) (Int64.of_int (i + 1))
  done;
  let small = preempt_at Abi.Mips ~at:5_000 in
  with_temp (fun fresh ->
      Sys.remove fresh;
      let want = save_exn ~abi:"MIPS" ~path:fresh small in
      with_temp (fun path ->
          (* twice, so the image and the spare both hold the large one *)
          let large = save_exn ~abi:"MIPS" ~path big in
          ignore (save_exn ~abi:"MIPS" ~path big);
          let n = save_exn ~abi:"MIPS" ~path small in
          check_bool (Printf.sprintf "the first image is larger (%d > %d)" large n) true (large > n);
          check_int "the file is the returned size" n (Unix.stat path).Unix.st_size;
          check_int "the same size as a fresh file's" want n;
          Alcotest.(check string) "the same bytes as a fresh file's" (Digest.to_hex (Digest.file fresh))
            (Digest.to_hex (Digest.file path));
          check_int "it loads" 5_000 (Snapshot.image_instret (load_exn path))))

(* Nothing reads the spare: garbage in it changes neither what a load
   returns nor the next save. *)
let test_spare_is_never_read () =
  let m = preempt_at Abi.Mips ~at:5_000 in
  with_temp (fun path ->
      ignore (save_exn ~abi:"MIPS" ~path m);
      let want = Snapshot.describe (load_exn path) in
      let oc = open_out_bin (path ^ ".tmp") in
      output_string oc (String.make 200_000 '\xa5');
      close_out oc;
      Alcotest.(check string) "load ignores the spare" want (Snapshot.describe (load_exn path));
      let n = save_exn ~abi:"MIPS" ~path m in
      check_int "a save over a garbage spare is cut to size" n (Unix.stat path).Unix.st_size;
      Alcotest.(check string) "and loads" want (Snapshot.describe (load_exn path)))

(* The CRC kernel against the textbook bytewise definition. *)
let crc_reference s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      let x = ref ((!c lxor Char.code ch) land 0xff) in
      for _ = 0 to 7 do
        x := if !x land 1 <> 0 then 0xedb88320 lxor (!x lsr 1) else !x lsr 1
      done;
      c := !x lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

let pattern n = String.init n (fun i -> Char.chr (((i * 167) + (i lsr 8) + 13) land 0xff))

(* Lengths and offsets chosen to reach every path of the kernel: the
   tables alone (under 64 bytes), the 64-byte fold with no, some and
   many 16-byte blocks after it, and each 0-15 byte tail, at every
   alignment of the first byte within a 16-byte load. *)
let test_crc_kernel () =
  check_int "check value" 0xCBF43926 (Crc32.digest "123456789");
  let buf = pattern (4200 + 16) in
  let check_range lo hi =
    for pos = 0 to 15 do
      for len = lo to hi do
        let sub = String.sub buf pos len in
        let want = crc_reference sub in
        if Crc32.digest_sub buf ~pos ~len <> want || Crc32.digest sub <> want then
          Alcotest.failf "pos %d len %d: kernel disagrees with the bytewise CRC" pos len
      done
    done
  in
  check_range 0 300;
  check_range 4096 4200;
  let big = pattern ((4 lsl 20) + 13) in
  check_int "4 MiB + 13 bytes" (crc_reference big) (Crc32.digest big);
  (* composition at every split point: both pieces may take either path *)
  let s = String.sub buf 3 300 in
  let whole = crc_reference s in
  for k = 0 to 300 do
    let head = Crc32.update_sub 0 s ~pos:0 ~len:k in
    if Crc32.update_sub head s ~pos:k ~len:(300 - k) <> whole then
      Alcotest.failf "update split at %d disagrees with the whole digest" k
  done;
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Crc32.update_sub: range outside the string") (fun () ->
      ignore (Crc32.digest_sub s ~pos:1 ~len:300));
  Alcotest.check_raises "length overflowing the range check"
    (Invalid_argument "Crc32.update_sub: range outside the string") (fun () ->
      ignore (Crc32.digest_sub s ~pos:1 ~len:max_int))

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"CRC-32 kernel equals the bytewise reference and composes"
    ~count:300
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let k = min k (String.length s) in
      let a = String.sub s 0 k and b = String.sub s k (String.length s - k) in
      Crc32.digest s = crc_reference s && Crc32.update (Crc32.digest a) b = Crc32.digest s)

let suite =
  [
    Alcotest.test_case "sliced run equals flat run (all ABIs)" `Quick test_sliced_equivalence;
    Alcotest.test_case "save/load/restore round trip (all ABIs)" `Quick
      test_save_restore_roundtrip;
    Alcotest.test_case "damaged images refused with structured errors" `Quick
      test_refused_images;
    Alcotest.test_case "truncated prelude reports byte offsets" `Quick
      test_truncated_header_offsets;
    Alcotest.test_case "mismatched restore refused, machine untouched" `Quick
      test_mismatch_leaves_machine_untouched;
    Alcotest.test_case "deadline sampled at syscall boundaries" `Quick
      test_deadline_sampled_at_syscalls;
    Alcotest.test_case "an unreached deadline changes nothing" `Quick
      test_unreached_deadline_is_invisible;
    Alcotest.test_case "deadline sampled once per stride" `Quick test_deadline_sampled_per_stride;
    Alcotest.test_case "v1 images are byte-identical to the pinned golden" `Quick
      test_image_golden;
    Alcotest.test_case "a small program's save scans few pages" `Quick
      test_save_scans_few_pages;
    Alcotest.test_case "CRC-32 kernel agrees with the bytewise form" `Quick test_crc_kernel;
    QCheck_alcotest.to_alcotest prop_crc_matches_reference;
    Alcotest.test_case "a save allocates a few words per page" `Quick
      test_save_allocates_per_page;
    Alcotest.test_case "a load allocates under 2.5 bytes per image byte" `Quick
      test_load_allocates_per_byte;
    Alcotest.test_case "a failed save leaves no temp file and is counted" `Quick
      test_failed_save_cleans_up;
    Alcotest.test_case "saves to one path reuse two files" `Quick test_save_reuses_spare;
    Alcotest.test_case "a smaller save is cut to its size" `Quick test_smaller_save_truncates;
    Alcotest.test_case "the spare is never read" `Quick test_spare_is_never_read;
  ]
