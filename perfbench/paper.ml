(* The paper's evaluation programs (Olden Bisort, MST, TreeAdd and
   Perimeter, Dhrystone, tcpdump, zlib) under the MIPS, CHERIv2 and
   CHERIv3 ABIs: 21 cells. Sizes are scaled so every cell retires
   2-5M instructions. Cells of like size make a per-cell latency
   meaningful and let a timed run finish five passes of all 21 cells. *)

module W = Cheri_workloads
module Abi = Cheri_compiler.Abi

type cell = { program : string; abi : Abi.t; source : string }

let programs =
  [
    ("Olden/Bisort", W.Olden.bisort { W.Olden.scale = 1 }, None);
    ("Olden/MST", W.Olden.mst { W.Olden.scale = 1 }, None);
    ("Olden/TreeAdd", W.Olden.treeadd { W.Olden.scale = 2 }, None);
    ("Olden/Perimeter", W.Olden.perimeter { W.Olden.scale = 1 }, None);
    ("Dhrystone", W.Dhrystone.source { W.Dhrystone.iterations = 1500 }, None);
    ( "tcpdump",
      W.Tcpdump_sim.source { W.Tcpdump_sim.packets = 500; passes = 3 },
      (* CHERIv2 cannot subtract pointers: the paper's ported variant *)
      Some (W.Tcpdump_sim.source_v2 { W.Tcpdump_sim.packets = 500; passes = 3 }) );
    ("zlib", W.Zlib_like.source { W.Zlib_like.input_size = 12288; boundary_copy = false }, None);
  ]

let cells =
  List.concat_map
    (fun (program, src, v2) ->
      List.map
        (fun abi ->
          let source =
            match (abi, v2) with Abi.Cheri Cheri_core.Cap_ops.V2, Some s -> s | _ -> src
          in
          { program; abi; source })
        Abi.all)
    programs
  |> Array.of_list

let key c = c.program ^ "@" ^ Abi.name c.abi

(* Output MD5, cycles and instret of every cell, captured from the
   code this benchmark was written against (`perfbench.exe
   --print-reference` prints this table). A change that only speeds
   the simulator up must leave every row identical. *)
let reference =
  [
    ("Olden/Bisort@MIPS", ("a3651c55f957f3e15aa3f1d2ad6010bd", 4945444, 3108447));
    ("Olden/Bisort@CHERIv2", ("a3651c55f957f3e15aa3f1d2ad6010bd", 6038178, 3417666));
    ("Olden/Bisort@CHERIv3", ("a3651c55f957f3e15aa3f1d2ad6010bd", 5728935, 3211520));
    ("Olden/MST@MIPS", ("14f26ab6ce6e94fbaac1efdeb9b488a7", 4163297, 2501868));
    ("Olden/MST@CHERIv2", ("14f26ab6ce6e94fbaac1efdeb9b488a7", 4540527, 2780367));
    ("Olden/MST@CHERIv3", ("14f26ab6ce6e94fbaac1efdeb9b488a7", 4262016, 2594701));
    ("Olden/TreeAdd@MIPS", ("7d5672382049d9836086c21dee7f0146", 8423073, 4044500));
    ("Olden/TreeAdd@CHERIv2", ("7d5672382049d9836086c21dee7f0146", 13160303, 4449956));
    ("Olden/TreeAdd@CHERIv3", ("7d5672382049d9836086c21dee7f0146", 12754841, 4179652));
    ("Olden/Perimeter@MIPS", ("f62176661101cb58cfb5ebafc71d046f", 7074950, 2688533));
    ("Olden/Perimeter@CHERIv2", ("f62176661101cb58cfb5ebafc71d046f", 8981088, 2878481));
    ("Olden/Perimeter@CHERIv3", ("f62176661101cb58cfb5ebafc71d046f", 8791128, 2751849));
    ("Dhrystone@MIPS", ("34c6e1feaf7f5084f3014d5d11fb727e", 4592211, 2920197));
    ("Dhrystone@CHERIv2", ("34c6e1feaf7f5084f3014d5d11fb727e", 4614886, 2941204));
    ("Dhrystone@CHERIv3", ("34c6e1feaf7f5084f3014d5d11fb727e", 4598372, 2926202));
    ("tcpdump@MIPS", ("b084202b28c01cbfc8ca42114d294f91", 3172746, 2077056));
    ("tcpdump@CHERIv2", ("b084202b28c01cbfc8ca42114d294f91", 3273560, 2137289));
    ("tcpdump@CHERIv3", ("b084202b28c01cbfc8ca42114d294f91", 3179840, 2083694));
    ("zlib@MIPS", ("07b1317f832f3747031830e48587a94a", 4854937, 3113469));
    ("zlib@CHERIv2", ("07b1317f832f3747031830e48587a94a", 4874790, 3132338));
    ("zlib@CHERIv3", ("07b1317f832f3747031830e48587a94a", 4874790, 3132338))
  ]
