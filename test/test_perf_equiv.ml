(* Golden regression for the zero-allocation hot-path work (PR 4).

   The step-loop restructuring is required to be semantics- AND
   timing-preserving: every (workload x ABI) cell below was captured at
   the pre-optimisation seed and must stay byte-identical — same
   output, same exit status, same cycle count, same retired-instruction
   count. A cycle drifting by one means the optimisation changed the
   timing model, not just the host speed, and fails loudly here.

   The allocation-budget test then pins the point of the exercise: the
   softcore must retire Dhrystone (CHERIv3, test scale) with under 2
   GC minor words per instruction even in the dev profile — the seed
   measured 41.59; the gate itself is tighter (below). *)

module W = Cheri_workloads
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Codegen = Cheri_compiler.Codegen
module Telemetry = Cheri_telemetry.Telemetry

let abi_of_name = function
  | "MIPS" -> Abi.Mips
  | "CHERIv2" -> Abi.Cheri Cheri_core.Cap_ops.V2
  | "CHERIv3" -> Abi.Cheri Cheri_core.Cap_ops.V3
  | s -> Alcotest.fail ("unknown ABI in golden table: " ^ s)

(* Captured at the pre-PR seed (commit c0619dd) with the scales below;
   (workload, abi, cycles, instret, md5 of output). *)
let golden =
  [
    ("Olden/Bisort", "MIPS", 4945444, 3108447, "a3651c55f957f3e15aa3f1d2ad6010bd");
    ("Olden/Bisort", "CHERIv2", 6038178, 3417666, "a3651c55f957f3e15aa3f1d2ad6010bd");
    ("Olden/Bisort", "CHERIv3", 5728935, 3211520, "a3651c55f957f3e15aa3f1d2ad6010bd");
    ("Olden/MST", "MIPS", 4163297, 2501868, "14f26ab6ce6e94fbaac1efdeb9b488a7");
    ("Olden/MST", "CHERIv2", 4540527, 2780367, "14f26ab6ce6e94fbaac1efdeb9b488a7");
    ("Olden/MST", "CHERIv3", 4262016, 2594701, "14f26ab6ce6e94fbaac1efdeb9b488a7");
    ("Olden/TreeAdd", "MIPS", 1925857, 1088340, "095426a3354837cbaab62bbbd7f34b75");
    ("Olden/TreeAdd", "CHERIv2", 3558411, 1192764, "095426a3354837cbaab62bbbd7f34b75");
    ("Olden/TreeAdd", "CHERIv3", 3453981, 1123148, "095426a3354837cbaab62bbbd7f34b75");
    ("Olden/Perimeter", "MIPS", 7074950, 2688533, "f62176661101cb58cfb5ebafc71d046f");
    ("Olden/Perimeter", "CHERIv2", 8981088, 2878481, "f62176661101cb58cfb5ebafc71d046f");
    ("Olden/Perimeter", "CHERIv3", 8791128, 2751849, "f62176661101cb58cfb5ebafc71d046f");
    ("Dhrystone", "MIPS", 1533211, 974197, "34c6e1feaf7f5084f3014d5d11fb727e");
    ("Dhrystone", "CHERIv2", 1540886, 981204, "34c6e1feaf7f5084f3014d5d11fb727e");
    ("Dhrystone", "CHERIv3", 1535372, 976202, "34c6e1feaf7f5084f3014d5d11fb727e");
    ("tcpdump", "MIPS", 1066334, 699736, "aa787131fc7299d90bac7a690db39f77");
    ("tcpdump", "CHERIv2", 1079845, 707658, "aa787131fc7299d90bac7a690db39f77");
    ("tcpdump", "CHERIv3", 1067596, 700608, "aa787131fc7299d90bac7a690db39f77");
    ("zlib", "MIPS", 1702140, 1087019, "2de642a328a5c957259252db252f0d00");
    ("zlib", "CHERIv2", 1711654, 1096071, "2de642a328a5c957259252db252f0d00");
    ("zlib", "CHERIv3", 1711654, 1096071, "2de642a328a5c957259252db252f0d00");
  ]

(* The exact sources the table was captured with. tcpdump's CHERIv2
   build uses the ported source (the v3 source needs pointer
   subtraction, which v2 lacks). *)
let source_for workload abi =
  let tcpdump_p = { W.Tcpdump_sim.packets = 200; passes = 1 } in
  match workload with
  | "Dhrystone" -> W.Dhrystone.source { W.Dhrystone.iterations = 500 }
  | "tcpdump" ->
      if abi = Abi.Cheri Cheri_core.Cap_ops.V2 then W.Tcpdump_sim.source_v2 tcpdump_p
      else W.Tcpdump_sim.source tcpdump_p
  | "zlib" -> W.Zlib_like.source { W.Zlib_like.input_size = 4096; boundary_copy = false }
  | _ ->
      let kname = String.sub workload 6 (String.length workload - 6) in
      let k = List.find (fun k -> k.W.Olden.kname = kname) W.Olden.kernels in
      k.W.Olden.source { W.Olden.scale = 1 }

let test_golden_cells () =
  List.iter
    (fun (workload, abi_name, cycles, instret, md5) ->
      let abi = abi_of_name abi_name in
      let m = W.Runner.run abi (source_for workload abi) in
      let cell = Printf.sprintf "%s/%s" workload abi_name in
      Alcotest.(check int) (cell ^ " cycles") cycles m.W.Runner.cycles;
      Alcotest.(check int) (cell ^ " instret") instret m.W.Runner.instret;
      Alcotest.(check string)
        (cell ^ " output md5")
        md5
        (Digest.to_hex (Digest.string m.W.Runner.output)))
    golden

(* A live telemetry sink sends every retire and every data access
   through its recording branch. Each cell runs once with no sink and
   once with a sink: both must match the golden, the traced run must
   have recorded an event per retired instruction, and the cache
   statistics must agree between the two. *)
let test_golden_cells_traced () =
  List.iter
    (fun (workload, abi_name, cycles, instret, md5) ->
      let abi = abi_of_name abi_name in
      let linked = Codegen.compile_source abi (source_for workload abi) in
      let cell = Printf.sprintf "%s/%s" workload abi_name in
      let run sink =
        let m = Codegen.machine_for abi linked in
        Option.iter (Machine.set_sink m) sink;
        (match Machine.run m with
        | Machine.Exit 0L -> ()
        | o -> Alcotest.failf "%s: %a" cell Machine.pp_outcome o);
        m
      in
      let sink = Telemetry.Sink.create () in
      let plain = Machine.stats (run None) and m = run (Some sink) in
      let traced = Machine.stats m in
      Alcotest.(check int) (cell ^ " traced cycles") cycles traced.Machine.st_cycles;
      Alcotest.(check int) (cell ^ " traced instret") instret traced.st_instret;
      Alcotest.(check string)
        (cell ^ " traced output md5")
        md5
        (Digest.to_hex (Digest.string (Machine.output m)));
      Alcotest.(check bool)
        (cell ^ " an event per instruction")
        true
        (Telemetry.Sink.total_events sink >= instret);
      Alcotest.(check (list int))
        (cell ^ " L1/L2 hits and misses")
        [ plain.st_l1_hits; plain.st_l1_misses; plain.st_l2_hits; plain.st_l2_misses ]
        [ traced.st_l1_hits; traced.st_l1_misses; traced.st_l2_hits; traced.st_l2_misses ])
    golden

(* One [linked] decodes once, on whichever domain gets there first; two
   domains that build and run machines from it at the same time must
   both reproduce the Dhrystone golden. *)
let test_machines_across_domains () =
  let abi = Abi.Cheri Cheri_core.Cap_ops.V3 in
  let linked = Codegen.compile_source abi (source_for "Dhrystone" abi) in
  let cycles, instret, md5 =
    List.find_map
      (fun (w, a, c, i, d) -> if w = "Dhrystone" && a = "CHERIv3" then Some (c, i, d) else None)
      golden
    |> Option.get
  in
  let run () =
    let m = Codegen.machine_for abi linked in
    let o = Machine.run m in
    (o, Machine.cycles m, Machine.instret m, Digest.to_hex (Digest.string (Machine.output m)))
  in
  let ds = List.init 2 (fun _ -> Domain.spawn run) in
  List.iter
    (fun d ->
      let o, c, i, d = Domain.join d in
      if o <> Machine.Exit 0L then Alcotest.failf "Dhrystone: %a" Machine.pp_outcome o;
      Alcotest.(check (list int)) "cycles, instret" [ cycles; instret ] [ c; i ];
      Alcotest.(check string) "output md5" md5 d)
    ds

(* The allocation budget. [Gc.minor_words] is exact (not sampled), so
   the measurement is deterministic up to what the run itself
   allocates; the budget leaves 20% headroom over the measured 1.10.
   What remains is the int64 each [Tagmem] load returns and each store
   takes (3 words, 0.37 loads and stores per instruction): the dev
   profile boxes them at the module boundary, the release build inlines
   them away. *)
let words_per_insn_budget = 1.32

let test_allocation_budget () =
  let abi = Abi.Cheri Cheri_core.Cap_ops.V3 in
  let src = W.Dhrystone.source { W.Dhrystone.iterations = 500 } in
  let linked = Codegen.compile_source abi src in
  (* warm-up run: first-touch effects (lazy forcing, cache growth)
     should not count against the budget *)
  ignore (Machine.run (Codegen.machine_for abi linked));
  let m = Codegen.machine_for abi linked in
  let w0 = Gc.minor_words () in
  (match Machine.run m with
  | Machine.Exit 0L -> ()
  | o -> Alcotest.failf "dhrystone did not exit cleanly: %a" Machine.pp_outcome o);
  let dw = Gc.minor_words () -. w0 in
  let wpi = dw /. float_of_int (Machine.stats m).Machine.st_instret in
  if wpi >= words_per_insn_budget then
    Alcotest.failf "allocation budget blown: %.2f minor words/insn (budget %.2f)" wpi
      words_per_insn_budget

let suite =
  [
    Alcotest.test_case "golden (cycles, instret, output) per workload x ABI" `Slow
      test_golden_cells;
    Alcotest.test_case "Dhrystone CHERIv3 under 2 minor words/insn" `Slow
      test_allocation_budget;
    Alcotest.test_case "golden with a live telemetry sink" `Slow test_golden_cells_traced;
    Alcotest.test_case "one linked, machines on two domains" `Slow test_machines_across_domains;
  ]
