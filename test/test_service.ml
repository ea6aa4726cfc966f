(* The multi-tenant service's pure pieces: wire framing, admission
   control, and the checkpoint/config/assignment JSON round trips, plus
   one real supervisor process for the drain reply. The rest of the
   process-level behavior (worker SIGKILL, heartbeat reaping,
   checkpoint corruption) is covered by the cheri-serve --chaos rule
   in bin/dune. *)

module Protocol = Cheri_service.Protocol
module Admission = Cheri_service.Admission
module Service = Cheri_service.Service
module Frontend = Cheri_service.Frontend
module Chaos = Cheri_service.Chaos
module Router = Cheri_service.Router
module Supervisor = Cheri_service.Supervisor
module Json = Cheri_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* -- protocol framing --------------------------------------------------------- *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; "{\"op\":\"submit\"}"; String.make 100_000 'z'; "a\nb\nc\n" ] in
  let r = Protocol.Reader.create () in
  List.iter (fun p -> Protocol.Reader.feed r (Protocol.encode p)) payloads;
  List.iter
    (fun p ->
      match Protocol.Reader.next r with
      | `Frame got -> check_string "frame payload survives" p got
      | `Awaiting -> Alcotest.fail "complete frame reported as awaiting"
      | `Corrupt m -> Alcotest.failf "valid frame reported corrupt: %s" m)
    payloads;
  check_bool "drained reader awaits" true (Protocol.Reader.next r = `Awaiting)

let test_frame_split_feeds () =
  (* bytes arriving one at a time across reads must reassemble *)
  let p = "{\"op\":\"poll\",\"tenant\":3}" in
  let framed = Protocol.encode p in
  let r = Protocol.Reader.create () in
  String.iter
    (fun c ->
      check_bool "no frame before the last byte" true (Protocol.Reader.next r = `Awaiting);
      Protocol.Reader.feed r (String.make 1 c))
    (String.sub framed 0 (String.length framed - 1));
  Protocol.Reader.feed r (String.make 1 framed.[String.length framed - 1]);
  check_bool "frame completes on the last byte" true (Protocol.Reader.next r = `Frame p)

let test_frame_corrupt_header () =
  let r = Protocol.Reader.create () in
  Protocol.Reader.feed r "not a hex header, definitely";
  (match Protocol.Reader.next r with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "garbage header must read as corrupt");
  (* a torn header (shorter than 9 bytes) is awaiting, not corrupt:
     that is what a SIGKILLed writer's last frame looks like *)
  let r2 = Protocol.Reader.create () in
  Protocol.Reader.feed r2 "0000";
  check_bool "torn header awaits" true (Protocol.Reader.next r2 = `Awaiting)

let test_frame_oversize_refused () =
  let r = Protocol.Reader.create () in
  Protocol.Reader.feed r "7fffffff\n";
  match Protocol.Reader.next r with
  | `Corrupt m -> check_bool "mentions the limit" true (String.length m > 0)
  | `Frame _ | `Awaiting -> Alcotest.fail "a 2 GiB length must be refused, not buffered"

(* Adversarial chunking: any valid frame stream, split at arbitrary
   byte boundaries (including mid-header), must round-trip exactly; and
   every torn tail — any strict prefix of the stream — must read as
   Awaiting, never Corrupt. This is the wire-level half of the crash
   story: a SIGKILLed writer's final partial frame has to look like
   "not yet", not "poisoned connection". *)
let prop_reader_chunking =
  QCheck.Test.make ~name:"reader: arbitrary chunking round-trips; torn tails never corrupt"
    ~count:100
    QCheck.(pair (small_list string) (small_list small_nat))
    (fun (payloads, cuts) ->
      let stream = String.concat "" (List.map Protocol.encode payloads) in
      let len = String.length stream in
      (* split the stream into chunks of 1..17 bytes driven by [cuts];
         the final chunk takes whatever remains *)
      let rec chunks pos cuts acc =
        if pos >= len then List.rev acc
        else
          match cuts with
          | [] -> List.rev (String.sub stream pos (len - pos) :: acc)
          | c :: rest ->
              let n = min (1 + (c mod 17)) (len - pos) in
              chunks (pos + n) rest (String.sub stream pos n :: acc)
      in
      let r = Protocol.Reader.create () in
      let got = ref [] in
      let corrupt = ref false in
      let rec drain () =
        match Protocol.Reader.next r with
        | `Frame f ->
            got := f :: !got;
            drain ()
        | `Awaiting -> ()
        | `Corrupt _ -> corrupt := true
      in
      List.iter
        (fun chunk ->
          Protocol.Reader.feed r chunk;
          drain ())
        (chunks 0 cuts []);
      let roundtrips = (not !corrupt) && List.rev !got = payloads in
      let tails_incomplete =
        (* every strict prefix: frames then Awaiting, never Corrupt *)
        let ok = ref true in
        for k = 0 to len - 1 do
          let r = Protocol.Reader.create () in
          Protocol.Reader.feed r (String.sub stream 0 k);
          let rec d () =
            match Protocol.Reader.next r with
            | `Frame _ -> d ()
            | `Awaiting -> ()
            | `Corrupt _ -> ok := false
          in
          d ()
        done;
        !ok
      in
      roundtrips && tails_incomplete)

(* -- admission control -------------------------------------------------------- *)

let test_admission_capacity () =
  let a = Admission.create ~capacity:3 () in
  let admits = List.init 3 (fun _ -> Admission.request a) in
  check_bool "under capacity admits" true
    (List.for_all (function Admission.Admit -> true | _ -> false) admits);
  check_int "live tracks admits" 3 (Admission.live a);
  (match Admission.request a with
  | Admission.Admit -> Alcotest.fail "fourth tenant admitted over a capacity of 3"
  | Admission.Reject { retry_after_s } ->
      check_bool "hint is positive" true (retry_after_s > 0.0));
  check_int "rejection does not take a slot" 3 (Admission.live a);
  Admission.release a;
  (match Admission.request a with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "freed slot not readmitted");
  check_int "admitted total" 4 (Admission.admitted a);
  check_int "rejected total" 1 (Admission.rejected a)

let test_admission_hints_stretch_and_reset () =
  let hints seed =
    let a = Admission.create ~seed ~capacity:1 () in
    ignore (Admission.request a);
    List.init 6 (fun _ ->
        match Admission.request a with
        | Admission.Reject { retry_after_s } -> retry_after_s
        | Admission.Admit -> Alcotest.fail "admitted over capacity")
  in
  let h = hints 7 in
  check_bool "hints grow under a sustained rejection streak" true
    (List.nth h 5 > List.nth h 0);
  check_bool "hints are reproducible for a seed" true (hints 7 = h);
  check_bool "hints de-synchronize across seeds" true (hints 8 <> h);
  (* an admit resets the streak: the next rejection snaps back *)
  let a = Admission.create ~seed:7 ~capacity:1 () in
  ignore (Admission.request a);
  let first =
    match Admission.request a with
    | Admission.Reject { retry_after_s } -> retry_after_s
    | Admission.Admit -> Alcotest.fail "admitted over capacity"
  in
  for _ = 1 to 5 do ignore (Admission.request a) done;
  Admission.release a;
  ignore (Admission.request a) (* admit: resets the streak *);
  let after_reset =
    match Admission.request a with
    | Admission.Reject { retry_after_s } -> retry_after_s
    | Admission.Admit -> Alcotest.fail "admitted over capacity"
  in
  check_bool "streak resets after an admit" true (after_reset = first)

let test_admission_dynamic_capacity () =
  (* fleet pressure: shrinking the cap below live evicts nothing but
     blocks new admits until enough tenants finish *)
  let a = Admission.create ~capacity:4 () in
  for _ = 1 to 4 do
    ignore (Admission.request a)
  done;
  Admission.set_capacity a 2;
  check_int "shrink keeps live untouched" 4 (Admission.live a);
  (match Admission.request a with
  | Admission.Admit -> Alcotest.fail "admitted over a shrunken capacity"
  | Admission.Reject _ -> ());
  Admission.release a;
  Admission.release a;
  (match Admission.request a with
  | Admission.Admit -> Alcotest.fail "live 2 = capacity 2 must still reject"
  | Admission.Reject _ -> ());
  Admission.release a;
  (match Admission.request a with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "freed below the new cap must admit");
  Admission.set_capacity a 8;
  match Admission.request a with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "grown capacity must admit"

let test_admission_hint_ceiling () =
  (* whatever the base and however deep the streak, no client is ever
     told to wait longer than Admission.hint_cap_s *)
  List.iter
    (fun retry_base_s ->
      let a = Admission.create ~seed:3 ~retry_base_s ~capacity:1 () in
      ignore (Admission.request a);
      for _ = 1 to 40 do
        match Admission.request a with
        | Admission.Reject { retry_after_s } ->
            check_bool "hint below the ceiling" true
              (retry_after_s <= Admission.hint_cap_s +. 1e-9)
        | Admission.Admit -> Alcotest.fail "admitted over capacity"
      done)
    [ 0.05; 2.0; 10.0; 120.0 ]

(* -- wire round trips --------------------------------------------------------- *)

let test_config_roundtrip () =
  let c =
    {
      (Service.default_config ~dir:"/tmp/x") with
      Service.workers = 5;
      capacity = 9;
      heartbeat_s = 0.125;
      corrupt_requeue = 2;
    }
  in
  match Service.config_of_json (Service.config_to_json c) with
  | Error e -> Alcotest.failf "config round trip: %s" e
  | Ok c' -> check_bool "config survives the JSON round trip" true (c = c')

(* The default fleet and the fleet chaos harness's, as it starts it. *)
let fleets =
  [
    ("default fleet", Router.default_rconfig ~dir:"/tmp/fleet");
    ("chaos fleet", Chaos.placed Chaos.fleet_default ~dir:"/tmp/chaos-fleet" ~sock:"fleet.sock");
  ]

(* The supervisor configs both fleets hand their shards, and the
   settings their routers read, pinned to the values of the release
   that kept a second copy of every supervisor setting in the router
   config. *)
let shard_config_pins =
  [
    ( ("/tmp/fleet/fleet.sock", 3, 64, 0.25, 0.05, 0.2, 1.5, 0.05, 0),
      [
        {|{"dir":"/tmp/fleet/shard_0","socket":"/tmp/fleet/shard_0/serve.sock","workers":2,"worker_jobs":1,"capacity":64,"slice":100000,"fuel":200000000,"heartbeat_s":0.25,"tick_s":0.05,"status_s":0.25,"retry_base_s":0.05,"seed":7919,"corrupt_requeue":0}|};
        {|{"dir":"/tmp/fleet/shard_1","socket":"/tmp/fleet/shard_1/serve.sock","workers":2,"worker_jobs":1,"capacity":64,"slice":100000,"fuel":200000000,"heartbeat_s":0.25,"tick_s":0.05,"status_s":0.25,"retry_base_s":0.05,"seed":15838,"corrupt_requeue":0}|};
        {|{"dir":"/tmp/fleet/shard_2","socket":"/tmp/fleet/shard_2/serve.sock","workers":2,"worker_jobs":1,"capacity":64,"slice":100000,"fuel":200000000,"heartbeat_s":0.25,"tick_s":0.05,"status_s":0.25,"retry_base_s":0.05,"seed":23757,"corrupt_requeue":0}|};
      ] );
    ( ("/tmp/chaos-fleet/fleet.sock", 3, 3, 0.4, 0.02, 0.1, 2.0, 0.02, 7),
      [
        {|{"dir":"/tmp/chaos-fleet/shard_0","socket":"/tmp/chaos-fleet/shard_0/serve.sock","workers":1,"worker_jobs":1,"capacity":3,"slice":20000,"fuel":50000000,"heartbeat_s":0.3,"tick_s":0.02,"status_s":0.4,"retry_base_s":0.02,"seed":7926,"corrupt_requeue":0}|};
        {|{"dir":"/tmp/chaos-fleet/shard_1","socket":"/tmp/chaos-fleet/shard_1/serve.sock","workers":1,"worker_jobs":1,"capacity":3,"slice":20000,"fuel":50000000,"heartbeat_s":0.3,"tick_s":0.02,"status_s":0.4,"retry_base_s":0.02,"seed":15845,"corrupt_requeue":0}|};
        {|{"dir":"/tmp/chaos-fleet/shard_2","socket":"/tmp/chaos-fleet/shard_2/serve.sock","workers":1,"worker_jobs":1,"capacity":3,"slice":20000,"fuel":50000000,"heartbeat_s":0.3,"tick_s":0.02,"status_s":0.4,"retry_base_s":0.02,"seed":23764,"corrupt_requeue":0}|};
      ] );
  ]

let test_shard_config_pinned () =
  List.iter2
    (fun (name, rcfg) (router, shards) ->
      let s = rcfg.Router.r_service in
      check_bool (name ^ ": router settings") true
        (( s.Service.socket,
           rcfg.Router.r_shards,
           s.Service.capacity,
           s.Service.status_s,
           s.Service.tick_s,
           rcfg.Router.r_take_s,
           rcfg.Router.r_req_timeout_s,
           s.Service.retry_base_s,
           s.Service.seed )
        = router);
      List.iteri
        (fun k want ->
          check_string
            (Printf.sprintf "%s shard %d" name k)
            want
            (Service.config_to_json (Router.shard_config rcfg k)))
        shards)
    fleets shard_config_pins

(* The worker chaos harness's supervisor, pinned the same way. *)
let test_chaos_service_pinned () =
  check_string "chaos supervisor"
    {|{"dir":"/tmp/chaos","socket":"/tmp/chaos/serve.sock","workers":2,"worker_jobs":1,"capacity":4,"slice":20000,"fuel":50000000,"heartbeat_s":0.3,"tick_s":0.02,"status_s":1,"retry_base_s":0.02,"seed":42,"corrupt_requeue":1}|}
    (Service.config_to_json
       (Chaos.placed Chaos.default ~dir:"/tmp/chaos" ~sock:"serve.sock").Router.r_service)

let test_rconfig_roundtrip () =
  List.iter
    (fun (name, c) ->
      match Router.rconfig_of_json (Router.rconfig_to_json c) with
      | Error e -> Alcotest.failf "%s: rconfig round trip: %s" name e
      | Ok c' -> check_bool (name ^ " survives the JSON round trip") true (c = c'))
    fleets

(* Malformed router configs are an Error, never an exception. *)
let test_rconfig_malformed () =
  List.iter
    (fun s ->
      check_bool s true (Result.is_error (Router.rconfig_of_json s)))
    [
      "not json";
      "[1,2]";
      {|{"shards":3}|};
      {|{"shards":3,"service":{"socket":"/tmp/f/fleet.sock"}}|};
      {|{"shards":3,"service":"{\"dir\":\"/tmp/f\"}"}|};
      {|{"shards":3,"service":[{"dir":"/tmp/f","socket":"/tmp/f/fleet.sock"}]}|};
    ]

let test_assignment_roundtrip () =
  let a =
    {
      Service.a_tenant = 12;
      a_source = "int main(void) { return 0; }\n";
      a_abi = "CHERIv3";
      a_fuel = 1_000_000;
      a_slice = 10_000;
      a_deadline_s = Some 2.5;
      a_restarts = 3;
      a_migrations = 2;
    }
  in
  match Service.assignment_of_json (Service.assignment_to_json a) with
  | Error e -> Alcotest.failf "assignment round trip: %s" e
  | Ok a' -> check_bool "assignment survives the JSON round trip" true (a = a')

let sample_note =
  Service.Checkpoint.note ~tenant:7 ~slices:42 ~wall_s:1.5 ~resumed:true ~scratch:false
    ~migrations:2 ~restarts:1 ~source:"int main(void) { return 0; }" ~abi:"CHERIv3"
    ~fuel:1_000_000 ~slice:10_000 ~deadline_s:None

let test_checkpoint_note () =
  (match Service.Checkpoint.parse_note sample_note with
  | Error e -> Alcotest.failf "note round trip: %s" e
  | Ok ck ->
      check_int "tenant" 7 ck.Service.Checkpoint.ck_tenant;
      check_int "slices" 42 ck.Service.Checkpoint.ck_slices;
      check_bool "resumed flag is lineage-cumulative" true ck.Service.Checkpoint.ck_resumed;
      check_bool "scratch flag" false ck.Service.Checkpoint.ck_scratch;
      check_int "migration lineage counter" 2 ck.Service.Checkpoint.ck_migrations;
      check_int "restarts travel in the note" 1 ck.Service.Checkpoint.ck_restarts;
      check_bool "the note is self-describing" true (Service.Checkpoint.self_describing ck));
  (* a pre-migration note (no embedded assignment) still parses — the
     schema string did not change — but is not self-describing *)
  (match
     Service.Checkpoint.parse_note
       (Printf.sprintf
          "{\"schema\":%S,\"tenant\":3,\"slices\":9,\"wall_s\":0.25,\"resumed\":false,\"scratch\":false}"
          Service.Checkpoint.schema)
   with
  | Error e -> Alcotest.failf "pre-migration note must still parse: %s" e
  | Ok ck ->
      check_int "defaulted migrations" 0 ck.Service.Checkpoint.ck_migrations;
      check_bool "not self-describing without a source" false
        (Service.Checkpoint.self_describing ck));
  (* a foreign note schema must be refused, not misread *)
  match Service.Checkpoint.parse_note "{\"schema\":\"cheri_c.status/v1\",\"tenant\":7}" with
  | Ok _ -> Alcotest.fail "foreign schema accepted as a checkpoint note"
  | Error e -> check_bool "error names the schema" true (String.length e > 0)

(* The note's bytes are part of every checkpoint image (and of
   snapshot.save_bytes): pinned here, so a refactor of the note
   envelope cannot change them. *)
let test_checkpoint_note_bytes () =
  check_string "full note"
    {|{"schema":"cheri_c.serve-inflight/v1","tenant":7,"slices":42,"wall_s":1.5,"resumed":true,"scratch":false,"migrations":2,"restarts":1,"source":"int main(void) { return 0; }\n\"q\"\t","abi":"CHERIv3","fuel":1000000,"slice":10000,"deadline_s":null}|}
    (Service.Checkpoint.note ~tenant:7 ~slices:42 ~wall_s:1.5 ~resumed:true ~scratch:false
       ~migrations:2 ~restarts:1 ~source:"int main(void) { return 0; }\n\"q\"\t" ~abi:"CHERIv3"
       ~fuel:1_000_000 ~slice:10_000 ~deadline_s:None);
  check_string "deadline and fractional wall"
    {|{"schema":"cheri_c.serve-inflight/v1","tenant":0,"slices":1,"wall_s":0.123456789,"resumed":false,"scratch":true,"migrations":0,"restarts":0,"source":"","abi":"MIPS","fuel":1,"slice":1,"deadline_s":2.5}|}
    (Service.Checkpoint.note ~tenant:0 ~slices:1 ~wall_s:0.123456789 ~resumed:false
       ~scratch:true ~migrations:0 ~restarts:0 ~source:"" ~abi:"MIPS" ~fuel:1 ~slice:1
       ~deadline_s:(Some 2.5))

let test_run_serial_slicing_invariant () =
  (* the serial reference counts one slice per Machine.run call; the
     slice count must be a pure function of (source, fuel, slice) *)
  let src = "int main(void) { long a = 0; for (long i = 0; i < 5000; i++) { a = a + i; } print_int(a); return 0; }" in
  match
    ( Service.run_serial ~abi:"cheriv3" ~fuel:10_000_000 ~slice:5_000 src,
      Service.run_serial ~abi:"cheriv3" ~fuel:10_000_000 ~slice:5_000 src )
  with
  | Ok a, Ok b ->
      check_bool "serial reference is deterministic" true (a = b);
      check_bool "terminates with an exit outcome" true
        (String.length a.Service.r_outcome >= 5
        && String.sub a.Service.r_outcome 0 5 = "exit:");
      check_bool "multiple slices at a 5k-fuel slice" true (a.Service.r_slices > 1);
      check_bool "output captured" true (String.length a.Service.r_output > 0)
  | Error e, _ | _, Error e -> Alcotest.failf "run_serial failed: %s" e

(* -- hand-off entries and the drain manifest ----------------------------------- *)

let sample_result =
  {
    Service.r_outcome = "exit:0";
    r_output = "42\n";
    r_cycles = 1234;
    r_instret = 1200;
    r_slices = 3;
    r_resumed = true;
    r_scratch = false;
    r_migrations = 1;
  }

let sample_taken =
  [
    Service.T_done { tk_tenant = 4; tk_restarts = 1; tk_result = sample_result };
    Service.T_failed
      { tk_tenant = 7; tk_restarts = 0; tk_migrations = 2; tk_detail = "unknown abi" };
    Service.T_drained
      {
        tk_tenant = 9;
        tk_source = "int main(void) { return 3; }";
        tk_abi = "CHERIv3";
        tk_fuel = 500_000;
        tk_slice = 20_000;
        tk_deadline_s = Some 1.5;
        tk_restarts = 1;
        tk_migrations = 1;
        tk_slices = 11;
        tk_checkpoint = true;
      };
  ]

let test_taken_roundtrip () =
  List.iter
    (fun e ->
      match Service.taken_of_json (Service.taken_to_json e) with
      | Error err -> Alcotest.failf "taken round trip: %s" err
      | Ok e' -> check_bool "taken entry survives the JSON round trip" true (e = e'))
    sample_taken

let test_manifest_roundtrip () =
  let manifest =
    Json.encode
      (Json.Obj
         [
           ("schema", Json.Str Service.manifest_schema);
           ("entries", Json.Arr (List.map Service.taken_to_json sample_taken));
         ])
  in
  (match Service.manifest_of_json manifest with
  | Error e -> Alcotest.failf "manifest round trip: %s" e
  | Ok entries ->
      check_int "all entries survive" (List.length sample_taken) (List.length entries);
      check_bool "entries survive in order" true (entries = sample_taken));
  match Service.manifest_of_json "{\"schema\":\"cheri_c.serve-status/v1\",\"entries\":[]}" with
  | Ok _ -> Alcotest.fail "foreign schema accepted as a drain manifest"
  | Error _ -> ()

(* -- startup helpers: orphan sweep and socket claim ----------------------------- *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cheri_serve_test_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))) (fun () -> f dir)

(* Service processes run from the cheri-serve binary, which dispatches
   service children before anything else. This test binary does not:
   QCheck_alcotest prints its seed line to stdout while the suites
   initialise, so a worker re-executed from it would start its frame
   stream with that line, and the supervisor kills a worker whose frame
   stream is corrupt. *)
let serve_exe () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/cheri_serve.exe" in
  if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe

let test_sweep_checkpoints () =
  with_tmpdir (fun dir ->
      Unix.mkdir (Filename.concat dir "checkpoints") 0o755;
      (* a valid self-describing checkpoint: a real machine snapshot
         with a migration-era note *)
      let abi = Option.get (Cheri_compiler.Abi.of_key "cheriv3") in
      let linked =
        Cheri_compiler.Codegen.compile_source abi "int main(void) { return 0; }"
      in
      let m = Cheri_compiler.Codegen.machine_for abi linked in
      let note =
        Service.Checkpoint.note ~tenant:4 ~slices:2 ~wall_s:0.1 ~resumed:false ~scratch:false
          ~migrations:1 ~restarts:0 ~source:"int main(void) { return 0; }" ~abi:"CHERIv3"
          ~fuel:1_000_000 ~slice:10_000 ~deadline_s:None
      in
      (match
         Cheri_snapshot.Snapshot.save ~note ~abi:"CHERIv3"
           ~path:(Service.Checkpoint.path ~dir ~tenant:4)
           m
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "snapshot save: %a" Cheri_snapshot.Snapshot.pp_error e);
      (* a corrupt file and a pre-migration (non-self-describing) one *)
      let corrupt = Service.Checkpoint.path ~dir ~tenant:8 in
      let oc = open_out_bin corrupt in
      output_string oc "definitely not a snapshot";
      close_out oc;
      let old_note =
        Printf.sprintf
          "{\"schema\":%S,\"tenant\":5,\"slices\":1,\"wall_s\":0.1,\"resumed\":false,\"scratch\":false}"
          Service.Checkpoint.schema
      in
      (match
         Cheri_snapshot.Snapshot.save ~note:old_note ~abi:"CHERIv3"
           ~path:(Service.Checkpoint.path ~dir ~tenant:5)
           m
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "snapshot save: %a" Cheri_snapshot.Snapshot.pp_error e);
      (* spares: one beside a valid image (a second save leaves it),
         one whose image never landed *)
      (match
         Cheri_snapshot.Snapshot.save ~note ~abi:"CHERIv3"
           ~path:(Service.Checkpoint.path ~dir ~tenant:4)
           m
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "snapshot save: %a" Cheri_snapshot.Snapshot.pp_error e);
      let spare tenant = Service.Checkpoint.path ~dir ~tenant ^ ".tmp" in
      check_bool "the second save left a spare" true (Sys.file_exists (spare 4));
      let oc = open_out_bin (spare 9) in
      output_string oc "torn";
      close_out oc;
      let recovered, discarded = Service.sweep_checkpoints ~dir in
      check_bool "no spare survives the sweep" false
        (Sys.file_exists (spare 4) || Sys.file_exists (spare 9));
      check_int "one orphan recovered" 1 (List.length recovered);
      check_int "corrupt + pre-migration discarded" 2 discarded;
      let meta = List.hd recovered in
      check_int "recovered tenant id" 4 meta.Service.Checkpoint.ck_tenant;
      check_int "recovered migrations" 1 meta.Service.Checkpoint.ck_migrations;
      check_bool "valid checkpoint file kept" true
        (Sys.file_exists (Service.Checkpoint.path ~dir ~tenant:4));
      check_bool "corrupt checkpoint deleted" false (Sys.file_exists corrupt);
      check_bool "non-self-describing checkpoint deleted" false
        (Sys.file_exists (Service.Checkpoint.path ~dir ~tenant:5));
      (* idempotent: a second sweep finds the same recoverable orphan *)
      let again, d2 = Service.sweep_checkpoints ~dir in
      check_int "second sweep: same orphan" 1 (List.length again);
      check_int "second sweep: nothing left to discard" 0 d2)

let test_bind_listener () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "probe.sock" in
      (* fresh path binds *)
      let fd =
        match Frontend.bind_listener path with
        | Ok fd -> fd
        | Error e -> Alcotest.failf "fresh bind failed: %s" e
      in
      (* a live listener is detected, not stolen *)
      (match Frontend.bind_listener path with
      | Ok _ -> Alcotest.fail "second bind stole a live listener's socket"
      | Error msg -> check_bool "error names the path" true (String.length msg > 0));
      Unix.close fd;
      (* the leftover file is now a dead socket: unlink and rebind *)
      check_bool "socket file left behind" true (Sys.file_exists path);
      (match Frontend.bind_listener path with
      | Ok fd2 -> Unix.close fd2
      | Error e -> Alcotest.failf "dead leftover not reclaimed: %s" e);
      (* a stale regular file at the path is also reclaimed *)
      let oc = open_out (Filename.concat dir "stale.sock") in
      output_string oc "junk";
      close_out oc;
      match Frontend.bind_listener (Filename.concat dir "stale.sock") with
      | Ok fd3 -> Unix.close fd3
      | Error e -> Alcotest.failf "stale regular file not reclaimed: %s" e)

(* -- deferred drain replies belong to the asking connection ---------------------- *)

(* A drain report is owed to the connection that asked, and to every
   one that asked. Admin X asks and waits; admin A asks and hangs up;
   then client B connects (in the server it reuses A's fd number) and
   asks nothing. X must get the report; B must get only the EOF of the
   server going away. A tenant in a long slice keeps the drain open
   across all three connections. Needs the test binary to dispatch
   service children (see test_main.ml). *)
let test_drain_reply_per_client () =
  with_tmpdir (fun dir ->
      let cfg =
        {
          (Service.default_config ~dir) with
          Service.workers = 1;
          slice = 200_000_000;
          fuel = 2_000_000_000;
          tick_s = 0.02;
        }
      in
      let exe = serve_exe () in
      let pid =
        Unix.create_process exe
          [| exe; Service.server_marker; Service.config_to_json cfg |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          check_bool "server socket came up" true
            (Chaos.Client.wait_socket cfg.Service.socket ~timeout_s:15.0);
          let dial () =
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX cfg.Service.socket);
            fd
          in
          let send fd fields = Protocol.write_frame fd (Json.encode (Json.Obj fields)) in
          let next fd ~timeout_s =
            match Unix.select [ fd ] [] [] timeout_s with
            | [], _, _ -> `Timeout
            | _ ->
                (Protocol.read_frame fd (Protocol.Reader.create ())
                  :> [ `Frame of string | `Eof | `Corrupt of string | `Timeout ])
          in
          let c0 = dial () in
          let spin = "int main(void) { long i = 0; while (1) { i = i + 1; } return 0; }" in
          send c0
            [ ("op", Json.Str "submit"); ("source", Json.Str spin); ("abi", Json.Str "cheriv3") ];
          (match next c0 ~timeout_s:10.0 with
          | `Frame f -> check_bool "tenant admitted" true (String.length f > 0 && f.[0] = '{')
          | _ -> Alcotest.fail "no submit reply");
          (* let the worker get well into the tenant's first long slice *)
          let rec await_running n =
            send c0 [ ("op", Json.Str "poll"); ("tenant", Json.Num "0") ];
            match next c0 ~timeout_s:10.0 with
            | `Frame f when Json.(mem_str "state" (Result.get_ok (parse f))) = Some "running" -> ()
            | _ when n > 0 ->
                Unix.sleepf 0.05;
                await_running (n - 1)
            | _ -> Alcotest.fail "tenant never started running"
          in
          await_running 200;
          Unix.sleepf 0.5;
          let x = dial () in
          send x [ ("op", Json.Str "drain") ];
          let a = dial () in
          send a [ ("op", Json.Str "drain") ];
          Unix.sleepf 0.1;
          Unix.close a;
          Unix.sleepf 0.2;
          let b = dial () in
          (match next x ~timeout_s:60.0 with
          | `Frame f -> (
              match Json.parse f with
              | Ok j ->
                  check_bool "waiting admin gets the drain report" true
                    (Json.mem_bool "drained" j = Some true);
                  check_int "report counts the parked tenant" 1
                    (Option.value ~default:(-1) (Json.mem_int "tenants" j))
              | Error e -> Alcotest.failf "unparseable drain report: %s" e)
          | `Eof -> Alcotest.fail "waiting admin got EOF instead of the drain report"
          | `Corrupt m -> Alcotest.failf "corrupt drain report: %s" m
          | `Timeout -> Alcotest.fail "waiting admin never got the drain report");
          (match next b ~timeout_s:30.0 with
          | `Eof -> ()
          | `Frame f -> Alcotest.failf "a client that never asked got a reply: %s" f
          | `Corrupt m -> Alcotest.failf "corrupt frame to a bystander: %s" m
          | `Timeout -> Alcotest.fail "drained server never closed the bystander");
          List.iter Unix.close [ c0; x; b ];
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "drained server did not exit 0"))

(* give a server the chance to stop its own children (a SIGKILLed
   router would orphan its shard) before SIGKILL *)
let reap pid =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        go ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  try go () with Unix.Unix_error _ -> ()

let shutdown sock =
  try
    let c = Chaos.Client.connect sock in
    ignore (Chaos.Client.request c (Json.Obj [ ("op", Json.Str "shutdown") ]));
    Chaos.Client.close c
  with Unix.Unix_error _ -> ()

(* a one-shard fleet with one worker *)
let one_shard ~dir =
  let d = Router.default_rconfig ~dir in
  { d with Router.r_shards = 1; r_service = { d.Router.r_service with Service.workers = 1 } }

(* -- one submit validation for both tiers ------------------------------------- *)

(* The same malformed submits sent to a real supervisor and a real
   router get byte-identical bad_request replies: both tiers run the
   one validation. *)
let test_submit_validation_shared () =
  with_tmpdir (fun dir ->
      let sdir = Filename.concat dir "svc" and rdir = Filename.concat dir "fleet" in
      Unix.mkdir sdir 0o755;
      Unix.mkdir rdir 0o755;
      let scfg = { (Service.default_config ~dir:sdir) with Service.workers = 1 } in
      let rcfg = one_shard ~dir:rdir in
      let prog = serve_exe () in
      let pids =
        [
          Supervisor.exec ~prog [ Service.server_marker; Service.config_to_json scfg ];
          Supervisor.exec ~prog
            [ Router.router_marker; Router.rconfig_to_json rcfg ];
        ]
      in
      let sockets = [ scfg.Service.socket; rcfg.Router.r_service.Service.socket ] in
      Fun.protect
        ~finally:(fun () ->
          List.iter shutdown sockets;
          List.iter reap pids)
        (fun () ->
          List.iter
            (fun sock ->
              check_bool (sock ^ " came up") true (Chaos.Client.wait_socket sock ~timeout_s:15.0))
            sockets;
          let clients = List.map Chaos.Client.connect sockets in
          let src = Json.Str "int main(void) { return 0; }" in
          let submit fields = Json.Obj (("op", Json.Str "submit") :: fields) in
          List.iter
            (fun req ->
              match List.map (fun c -> Chaos.Client.request c req) clients with
              | [ Ok a; Ok b ] ->
                  check_string "supervisor and router replies" (Json.encode a) (Json.encode b);
                  check_bool "bad_request" true (Json.mem_str "error" a = Some "bad_request")
              | _ -> Alcotest.failf "no reply to %s" (Json.encode req))
            [
              submit [];
              submit [ ("source", Json.Num "42") ];
              submit [ ("source", src); ("abi", Json.Str "vax") ];
              submit [ ("source", src); ("fuel", Json.Num "0") ];
              submit [ ("source", src); ("slice", Json.Num "-1") ];
            ];
          List.iter Chaos.Client.close clients))

(* -- checkpoint files and compile-cache entries do not outlive tenants ---------- *)

let snap_files dir =
  Array.to_list (try Sys.readdir dir with Sys_error _ -> [||])
  |> List.filter (fun f -> Filename.check_suffix f ".snap" || Filename.check_suffix f ".snap.tmp")

(* A worker's compile cache holds an entry only while a live tenant
   uses it: after k tenants with distinct sources finish, the worker's
   heartbeat reports zero entries, and the tenants' checkpoints and
   their spares are gone. *)
let test_worker_releases_tenants () =
  with_tmpdir (fun dir ->
      let exe = serve_exe () in
      let sock = Filename.concat dir "serve.sock" in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process exe
          [| exe; "--dir"; dir; "--workers"; "1"; "--slice"; "5000" |]
          devnull devnull devnull
      in
      Unix.close devnull;
      Fun.protect
        ~finally:(fun () ->
          shutdown sock;
          reap pid)
        (fun () ->
          check_bool "server socket came up" true (Chaos.Client.wait_socket sock ~timeout_s:15.0);
          let c = Chaos.Client.connect sock in
          let request fields =
            match Chaos.Client.request c (Json.Obj fields) with
            | Ok j -> j
            | Error e -> Alcotest.failf "no reply: %s" e
          in
          let k = 3 in
          let tenants =
            List.init k (fun i ->
                let source =
                  Printf.sprintf
                    "int main(void) { long s = 0; for (long i = 0; i < %d; i++) s = s + i; \
                     print_int(s); return 0; }"
                    (3000 + i)
                in
                let r =
                  request
                    [ ("op", Json.Str "submit"); ("source", Json.Str source); ("abi", Json.Str "cheriv3") ]
                in
                match Json.mem_int "tenant" r with
                | Some t -> t
                | None -> Alcotest.failf "submit refused: %s" (Json.encode r))
          in
          (* [probe ()] is [Ok ()] when satisfied, else [Error last_seen] *)
          let rec await what ~deadline probe =
            match probe () with
            | Ok () -> ()
            | Error seen when Unix.gettimeofday () > deadline ->
                Alcotest.failf "timed out: %s (last seen %s)" what seen
            | Error _ ->
                Unix.sleepf 0.05;
                await what ~deadline probe
          in
          let deadline = Unix.gettimeofday () +. 60. in
          List.iter
            (fun t ->
              await (Printf.sprintf "tenant %d done" t) ~deadline (fun () ->
                  let r = request [ ("op", Json.Str "poll"); ("tenant", Json.Num (string_of_int t)) ] in
                  if Json.mem_str "state" r = Some "done" then Ok () else Error (Json.encode r)))
            tenants;
          Chaos.Client.close c;
          (* the worker beats on its own schedule, and discards a
             tenant's checkpoint just after reporting it done *)
          let hb = Filename.concat dir "workers/worker_0.status.json" in
          let beat () =
            match Cheri_util.File.read hb with
            | Ok s -> Result.to_option (Json.parse s)
            | Error _ -> None
          in
          let deadline = Unix.gettimeofday () +. 10. in
          await "the worker reports its tenants released" ~deadline (fun () ->
              match beat () with
              | Some j when Json.mem_int "done" j = Some k && Json.mem_int "compile_cache" j = Some 0 ->
                  Ok ()
              | Some j -> Error (Json.encode j)
              | None -> Error "no heartbeat");
          await "the checkpoints and spares are gone" ~deadline (fun () ->
              match snap_files (Filename.concat dir "checkpoints") with
              | [] -> Ok ()
              | fs -> Error (String.concat " " fs))))

(* -- a corrupt worker stream costs the worker, not its tenants ------------------ *)

(* One stray byte ahead of a worker's frames leaves its stream
   unparseable for good. The supervisor must SIGKILL that worker, so
   its tenant is requeued and finishes on the next worker, instead of
   staying [running] behind the worker's fresh heartbeat. The
   supervisor runs on a domain of this process; its workers are
   cheri-serve behind a wrapper whose first incarnation writes
   the stray byte to its stdout, the worker's frame stream. *)
let test_corrupt_worker_stream_kills_worker () =
  with_tmpdir (fun dir ->
      let exe = serve_exe () in
      let fired = Filename.concat dir "stray.fired" and wrapper = Filename.concat dir "worker.sh" in
      let oc = open_out_bin wrapper in
      Printf.fprintf oc "#!/bin/sh\nif [ ! -e %s ]; then : > %s; printf x; fi\nexec %s \"$@\"\n"
        (Filename.quote fired) (Filename.quote fired) (Filename.quote exe);
      close_out oc;
      Unix.chmod wrapper 0o755;
      let cfg = { (Service.default_config ~dir) with Service.workers = 1; slice = 5000 } in
      let sock = cfg.Service.socket in
      let server = Domain.spawn (fun () -> Service.server_main ~worker_prog:wrapper cfg) in
      Fun.protect
        ~finally:(fun () ->
          shutdown sock;
          Domain.join server)
        (fun () ->
          check_bool "server socket came up" true (Chaos.Client.wait_socket sock ~timeout_s:15.0);
          let c = Chaos.Client.connect sock in
          let request fields =
            match Chaos.Client.request c (Json.Obj fields) with
            | Ok j -> j
            | Error e -> Alcotest.failf "no reply: %s" e
          in
          let source =
            "int main(void) { long s = 0; for (long i = 0; i < 3000; i++) s = s + i; \
             print_int(s); return 0; }"
          in
          let tenant =
            let r = request [ ("op", Json.Str "submit"); ("source", Json.Str source) ] in
            match Json.mem_int "tenant" r with
            | Some t -> t
            | None -> Alcotest.failf "submit refused: %s" (Json.encode r)
          in
          let deadline = Unix.gettimeofday () +. 30. in
          let rec await () =
            let r = request [ ("op", Json.Str "poll"); ("tenant", Json.Num (string_of_int tenant)) ] in
            match Json.mem_str "state" r with
            | Some "done" -> r
            | _ when Unix.gettimeofday () > deadline ->
                Alcotest.failf "tenant never finished: %s" (Json.encode r)
            | _ ->
                Unix.sleepf 0.05;
                await ()
          in
          let r = await () in
          check_bool "the stray byte was written" true (Sys.file_exists fired);
          let result = Option.get (Json.member "result" r) in
          check_bool "the tenant ran again" true (Json.mem_int "restarts" result = Some 1);
          check_bool "the tenant's output is intact" true
            (Json.mem_str "output" result = Some "4498500");
          let st = request [ ("op", Json.Str "stats") ] in
          check_bool "one corrupt-frame kill" true (Json.mem_int "corrupt_frame_kills" st = Some 1);
          check_bool "one worker death" true (Json.mem_int "worker_deaths" st = Some 1);
          Chaos.Client.close c))

(* The router deletes a shard's leftover checkpoints, spares included,
   before it starts the shard. *)
let test_shard_spawn_sweeps_spares () =
  with_tmpdir (fun dir ->
      let rcfg = one_shard ~dir in
      let cdir = Filename.concat (Router.shard_dir rcfg 0) "checkpoints" in
      Cheri_service.Supervisor.mkdir_p cdir;
      List.iter
        (fun f ->
          let oc = open_out_bin (Filename.concat cdir f) in
          output_string oc "left over";
          close_out oc)
        [ "tenant_0007.snap"; "tenant_0007.snap.tmp"; "tenant_0009.snap.tmp" ];
      let sock = rcfg.Router.r_service.Service.socket in
      let pid =
        Supervisor.exec ~prog:(serve_exe ())
          [ Router.router_marker; Router.rconfig_to_json rcfg ]
      in
      Fun.protect
        ~finally:(fun () ->
          shutdown sock;
          reap pid)
        (fun () ->
          check_bool "router socket came up" true (Chaos.Client.wait_socket sock ~timeout_s:15.0);
          (* the socket is bound before the shards spawn; the first
             status file is written after *)
          let status = Filename.concat dir "status.json" in
          let deadline = Unix.gettimeofday () +. 15. in
          while (not (Sys.file_exists status)) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.02
          done;
          check_bool "router status written" true (Sys.file_exists status);
          Alcotest.(check (list string)) "nothing left in the shard's checkpoints" [] (snap_files cdir)))

let suite =
  [
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame reassembly from split reads" `Quick test_frame_split_feeds;
    Alcotest.test_case "corrupt / torn headers" `Quick test_frame_corrupt_header;
    Alcotest.test_case "oversize frame refused" `Quick test_frame_oversize_refused;
    QCheck_alcotest.to_alcotest prop_reader_chunking;
    Alcotest.test_case "admission capacity + release" `Quick test_admission_capacity;
    Alcotest.test_case "admission hints stretch, reset, reproduce" `Quick
      test_admission_hints_stretch_and_reset;
    Alcotest.test_case "admission capacity is dynamic" `Quick test_admission_dynamic_capacity;
    Alcotest.test_case "admission hints never exceed the ceiling" `Quick
      test_admission_hint_ceiling;
    Alcotest.test_case "config JSON round trip" `Quick test_config_roundtrip;
    Alcotest.test_case "shard configs pinned" `Quick test_shard_config_pinned;
    Alcotest.test_case "chaos supervisor config pinned" `Quick test_chaos_service_pinned;
    Alcotest.test_case "rconfig JSON round trip" `Quick test_rconfig_roundtrip;
    Alcotest.test_case "malformed rconfig JSON is an error" `Quick test_rconfig_malformed;
    Alcotest.test_case "assignment JSON round trip" `Quick test_assignment_roundtrip;
    Alcotest.test_case "checkpoint note schema" `Quick test_checkpoint_note;
    Alcotest.test_case "checkpoint note bytes pinned" `Quick test_checkpoint_note_bytes;
    Alcotest.test_case "taken entry JSON round trip" `Quick test_taken_roundtrip;
    Alcotest.test_case "drain manifest round trip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "orphan checkpoint sweep" `Quick test_sweep_checkpoints;
    Alcotest.test_case "both tiers answer malformed submits identically" `Quick
      test_submit_validation_shared;
    Alcotest.test_case "finished tenants leave no cache entry, checkpoint or spare" `Quick
      test_worker_releases_tenants;
    Alcotest.test_case "a corrupt worker stream kills the worker" `Quick
      test_corrupt_worker_stream_kills_worker;
    Alcotest.test_case "a shard spawn sweeps checkpoints and spares" `Quick
      test_shard_spawn_sweeps_spares;
    Alcotest.test_case "socket claim probes before unlinking" `Quick test_bind_listener;
    Alcotest.test_case "run_serial deterministic slicing" `Quick
      test_run_serial_slicing_invariant;
    Alcotest.test_case "drain report reaches every asking admin, no bystander" `Quick
      test_drain_reply_per_client;
  ]
