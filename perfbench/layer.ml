(* Wrappers around the program's layer calls, which time each call as a
   span and count its work when the run is traced. With tracing off they
   are the bare calls. Whole-operation calls (Campaign.check_seed, the
   service's requests) are made directly by the workloads. *)

module Codegen = Cheri_compiler.Codegen
module Asm = Cheri_asm.Asm
module Machine = Cheri_isa.Machine
module Decoded = Cheri_isa.Decoded
module Tagmem = Cheri_tagmem.Tagmem
module Snapshot = Cheri_snapshot.Snapshot

(* Work counts of the traced run. *)
type counts = {
  mutable decode_insns : int;
  mutable init_major_words : float;
  mutable instret : int;
  mutable cycles : int;
  mutable exec_minor_words : float;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable saves : int;
  mutable save_bytes : int;
  mutable restores : int;
}

let zero () =
  {
    decode_insns = 0;
    init_major_words = 0.;
    instret = 0;
    cycles = 0;
    exec_minor_words = 0.;
    l1_hits = 0;
    l1_misses = 0;
    l2_hits = 0;
    l2_misses = 0;
    saves = 0;
    save_bytes = 0;
    restores = 0;
  }

let c = ref (zero ())
let reset_counts () = c := zero ()

(* Codegen.compile_source: lib/minic, lib/compiler, lib/asm *)
let compile abi src = Trace.with_ "compile" (fun () -> Codegen.compile_source abi src)

(* Codegen.machine_for: decode (Decoded.compile, lib/isa), then
   Machine.create plus the loader (lib/isa, lib/tagmem). Traced, the
   decode is first repeated on its own as a probe, so the set-up's time
   can be split without copying the loader. *)
let machine abi (l : Asm.linked) =
  if !Trace.on then begin
    !c.decode_insns <- !c.decode_insns + Array.length l.Asm.code;
    Trace.with_ ~kind:Trace.Probe "decode" (fun () ->
        ignore (Sys.opaque_identity (Decoded.compile l.Asm.code)))
  end;
  Trace.with_ "machine_init" (fun () ->
      let w0 = if !Trace.on then Common.major_words () else 0. in
      let m = Codegen.machine_for abi l in
      if !Trace.on then
        !c.init_major_words <- !c.init_major_words +. (Common.major_words () -. w0);
      m)

(* Machine.run: lib/isa machine and cache, lib/core, lib/tagmem *)
let run ?fuel ?yield m =
  if not !Trace.on then Machine.run ?fuel ?yield m
  else
    Trace.with_ "exec" (fun () ->
        let s0 = Machine.stats m and w0 = Gc.minor_words () in
        let o = Machine.run ?fuel ?yield m in
        let w1 = Gc.minor_words () and s1 = Machine.stats m in
        let k = !c in
        k.exec_minor_words <- k.exec_minor_words +. (w1 -. w0);
        k.instret <- k.instret + (s1.Machine.st_instret - s0.Machine.st_instret);
        k.cycles <- k.cycles + (s1.st_cycles - s0.st_cycles);
        k.l1_hits <- k.l1_hits + (s1.st_l1_hits - s0.st_l1_hits);
        k.l1_misses <- k.l1_misses + (s1.st_l1_misses - s0.st_l1_misses);
        k.l2_hits <- k.l2_hits + (s1.st_l2_hits - s0.st_l2_hits);
        k.l2_misses <- k.l2_misses + (s1.st_l2_misses - s0.st_l2_misses);
        o)

(* Snapshot.save. Traced, the page scan and the code digest it performs
   inside are each repeated once on the same machine right after it, as
   probes, so the save's time can be split without instrumenting it. *)
let save ?note ~abi ~path m =
  match Trace.with_ "snapshot.save" (fun () -> Snapshot.save ?note ~abi ~path m) with
  | Error e -> Common.fail "snapshot save: %s" (Snapshot.error_to_string e)
  | Ok bytes ->
      if !Trace.on then begin
        !c.saves <- !c.saves + 1;
        !c.save_bytes <- !c.save_bytes + bytes;
        Trace.with_ ~kind:Trace.Probe "snapshot.page_scan" (fun () ->
            ignore
              (Sys.opaque_identity
                 (Tagmem.snapshot_pages (Machine.mem m) ~page_bytes:Machine.Snap.page_bytes)));
        Trace.with_ ~kind:Trace.Probe "snapshot.digest" (fun () ->
            ignore (Sys.opaque_identity (Decoded.source_digest ~abi (Machine.code m))))
      end;
      bytes

let load path =
  match Trace.with_ "snapshot.load" (fun () -> Snapshot.load path) with
  | Ok img -> img
  | Error e -> Common.fail "snapshot load: %s" (Snapshot.error_to_string e)

let restore m ~abi img =
  match Trace.with_ "snapshot.restore" (fun () -> Snapshot.restore m ~abi img) with
  | Ok () -> if !Trace.on then !c.restores <- !c.restores + 1
  | Error e -> Common.fail "snapshot restore: %s" (Snapshot.error_to_string e)
