(* The three in-process workloads: paper-sweep, resume-chain and
   fuzz-campaign. Each sets up once (compile, decode, warm-up) and then
   hands out operation streams that restart from the seed's first
   operation; [check] validates every operation any stream completed. *)

open Common
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Campaign = Cheri_fuzz.Campaign

(* [insns_per_op] is the mean number of simulated instructions per
   operation where a stream's steps cannot count them; it is computed
   after the timed region. *)
type prepared = {
  stream : unit -> Driver.stream;
  check : unit -> string;
  insns_per_op : unit -> float option;
}

type t = {
  name : string;
  window : int;  (** stream boundaries per throughput window *)
  trace_ops : int;  (** operations in the traced run's fixed prefix *)
  setup : seed:int -> dir:string -> prepared;
}

let outcome_str o = Format.asprintf "%a" Machine.pp_outcome o

(* -- paper-sweep ----------------------------------------------------------- *)

(* One operation is one cell on a fresh machine; passes visit all 21
   cells in a seeded order, and a run stops only between passes. *)
let paper_sweep =
  let n = Array.length Paper.cells in
  let setup ~seed ~dir:_ =
    let compiled =
      Array.map
        (fun (c : Paper.cell) ->
          (c, Layer.compile c.abi c.source))
        Paper.cells
    in
    (* warm-up: one program under each ABI *)
    Array.iter
      (fun ((c : Paper.cell), l) ->
        if c.program = "Olden/MST" then ignore (Layer.run (Layer.machine c.abi l)))
      compiled;
    let results = ref [] in
    let stream () =
      let i = ref 0 and order = ref [||] in
      let step () =
        if !i mod n = 0 then
          order := Tenants.shuffle (Tenants.mix ((seed * 31) + (!i / n))) (Array.init n Fun.id);
        let k = !order.(!i mod n) in
        incr i;
        let c, l = compiled.(k) in
        let m = Layer.machine c.abi l in
        match Layer.run m with
        | Machine.Exit 0L ->
            results := (k, Machine.output m, Machine.cycles m, Machine.instret m) :: !results;
            Machine.instret m
        | o -> fail "paper-sweep %s: %s" (Paper.key c) (outcome_str o)
      in
      { Driver.step; boundary = (fun () -> !i mod n = 0); abandon = ignore }
    in
    let check () =
      let outputs = Hashtbl.create 8 in
      List.iter
        (fun (k, out, cycles, instret) ->
          let c = Paper.cells.(k) in
          let digest = md5 out in
          (match List.assoc_opt (Paper.key c) Paper.reference with
          | Some (d, cy, ins) when d = digest && cy = cycles && ins = instret -> ()
          | Some (d, cy, ins) ->
              fail "paper-sweep %s: got md5 %s cycles %d instret %d, reference %s %d %d"
                (Paper.key c) digest cycles instret d cy ins
          | None -> fail "paper-sweep %s: no reference row" (Paper.key c));
          match Hashtbl.find_opt outputs c.program with
          | Some d when d <> digest -> fail "paper-sweep %s: the ABIs disagree on output" c.program
          | _ -> Hashtbl.replace outputs c.program digest)
        !results;
      Printf.sprintf "%d cells equal the reference (output md5, cycles, instret); ABIs agree"
        (List.length !results)
    in
    { stream; check; insns_per_op = (fun () -> None) }
  in
  { name = "paper-sweep"; window = 1; trace_ops = 5 * n; setup }

(* -- resume-chain ---------------------------------------------------------- *)

type chain_input = {
  c_name : string;
  c_abi : Abi.t;
  c_linked : Cheri_asm.Asm.linked;
  c_slice : int;
}

(* A chain takes [chain_steps] steps whatever its program's size: the
   slice is an eighth of a paper cell's reference instret, or of a
   tenant's length in service slices (its last step may fall away). *)
let chain_steps = 8
let ceil_div a b = (a + b - 1) / b

(* One operation is one step: run a slice, save the machine, load the
   image, build a fresh machine and restore into it. A pass runs one
   chain of each of the 21 paper cells and of the ten tenants of one
   block, in an order drawn from the seed, and a run stops only between
   passes: every run holds the same programs, so a seed changes order
   and detail, not the mix of footprints and sizes. *)
let resume_chain =
  let setup ~seed ~dir =
    let input name abi source slice =
      { c_name = name; c_abi = abi; c_linked = Layer.compile abi source; c_slice = slice }
    in
    let paper =
      Array.map
        (fun (c : Paper.cell) ->
          match List.assoc_opt (Paper.key c) Paper.reference with
          | Some (_, _, instret) -> input (Paper.key c) c.abi c.source (ceil_div instret chain_steps)
          | None -> fail "resume-chain %s: no reference row" (Paper.key c))
        Paper.cells
    in
    let tenants =
      Array.init (Array.length Tenants.block) (fun i ->
          let t = Tenants.make ~seed i in
          input
            (Printf.sprintf "tenant %d (%s)" t.index t.band)
            (Option.get (Abi.of_key t.abi))
            t.source
            (ceil_div (t.slices * Tenants.slice_insns) chain_steps))
    in
    let inputs = Array.append paper tenants in
    let n = Array.length inputs in
    let path = Filename.concat dir "chain.snap" in
    let fresh inp = Layer.machine inp.c_abi inp.c_linked in
    (* one step: Ok of the machine to continue on, or Error of the final
       outcome *)
    let step_once inp m =
      match Layer.run ~fuel:inp.c_slice ~yield:true m with
      | Machine.Yielded ->
          let abi = Abi.name inp.c_abi in
          ignore (Layer.save ~abi ~path m);
          let img = Layer.load path in
          let m' = fresh inp in
          Layer.restore m' ~abi img;
          Ok m'
      | o -> Error o
    in
    (* warm-up: one step of a fixed tenant under each ABI, the same work
       for every seed *)
    List.iter
      (fun i ->
        let t = Tenants.warmup i in
        let inp =
          input t.Tenants.band (Option.get (Abi.of_key t.abi)) t.source Tenants.slice_insns
        in
        ignore (step_once inp (fresh inp)))
      [ 0; 1; 2 ];
    let results = ref [] in
    let stream () =
      let ci = ref 0 and cur = ref None and order = ref [||] in
      let step () =
        if !cur = None && !ci mod n = 0 then
          order := Tenants.shuffle (Tenants.mix ((seed * 131) + (!ci / n))) (Array.init n Fun.id);
        let k = !order.(!ci mod n) in
        let inp = inputs.(k) in
        let m = match !cur with Some m -> m | None -> fresh inp in
        let before = Machine.instret m in
        match step_once inp m with
        | Ok m' ->
            cur := Some m';
            Machine.instret m' - before
        | Error o ->
            results :=
              (k, (outcome_str o, Machine.output m, Machine.cycles m, Machine.instret m))
              :: !results;
            cur := None;
            incr ci;
            Machine.instret m - before
      in
      let abandon () =
        cur := None;
        incr ci
      in
      { Driver.step; boundary = (fun () -> !cur = None && !ci mod n = 0); abandon }
    in
    let check () =
      let straight = Hashtbl.create 64 in
      List.iter
        (fun (k, got) ->
          let inp = inputs.(k) in
          let ref_ =
            match Hashtbl.find_opt straight k with
            | Some r -> r
            | None ->
                let m = fresh inp in
                let o = outcome_str (Layer.run m) in
                let r = (o, Machine.output m, Machine.cycles m, Machine.instret m) in
                Hashtbl.replace straight k r;
                r
          in
          if ref_ <> got then
            fail "resume-chain %s: the chain did not finish identical to an uninterrupted run"
              inp.c_name)
        !results;
      Printf.sprintf "%d chains finish identical to uninterrupted runs" (List.length !results)
    in
    { stream; check; insns_per_op = (fun () -> None) }
  in
  { name = "resume-chain"; window = 1; trace_ops = 100; setup }

(* -- fuzz-campaign --------------------------------------------------------- *)

(* The traced run's ten implementations: the interpreter models of
   Campaign.default_impls inside an "interp" span, and the compiled ABIs
   split into Layer calls (compile, Codegen.machine_for, run on the
   default fuel) with the outcome read as Campaign.compiled_impl reads
   Codegen.run's. Had the split changed an outcome, check_seed would
   report a divergence. *)
let traced_impls () : Campaign.impl list =
  let interp (i : Campaign.impl) =
    { i with Campaign.exec = (fun src -> Trace.with_ "interp" (fun () -> i.Campaign.exec src)) }
  in
  let compiled abi =
    let impl = "isa/" ^ Abi.name abi in
    let exec src =
      match
        let m = Layer.machine abi (Layer.compile abi src) in
        (Layer.run m, m)
      with
      | o, m -> (
          let out = Machine.output m in
          match o with
          | Machine.Exit code -> { Campaign.impl; status = Campaign.Exited code; out }
          | Machine.Fuel_exhausted | Machine.Deadline_exceeded | Machine.Yielded ->
              { impl; status = Campaign.Hung; out }
          | o -> { impl; status = Campaign.Faulted (outcome_str o); out })
      | exception exn -> { impl; status = Campaign.Stuck (Printexc.to_string exn); out = "" }
    in
    { Campaign.impl_name = impl; exec }
  in
  List.map (fun e -> interp (Campaign.interp_impl e)) Cheri_models.Registry.entries
  @ List.map compiled Abi.all

(* One operation is Campaign.check_seed on the next consecutive seed. *)
let fuzz_campaign =
  let setup ~seed ~dir:_ =
    let first = seed * 100_000 in
    (* untraced, the program's own implementations *)
    let plain = Campaign.default_impls () and traced = traced_impls () in
    let impls () = if !Trace.on then traced else plain in
    (* warm-up: two fixed seeds, the same work for every seed *)
    List.iter (fun s -> ignore (Campaign.check_seed ~impls:(impls ()) s)) [ 999_999_998; 999_999_999 ];
    let divergences = ref [] and checked = ref 0 in
    let stream () =
      let i = ref 0 in
      let step () =
        let s = first + !i in
        incr i;
        if !Trace.on then
          Trace.with_ ~kind:Trace.Probe "fuzz.gen" (fun () ->
              ignore (Sys.opaque_identity (Cheri_fuzz.Gen.source ~seed:s)));
        (match Campaign.check_seed ~impls:(impls ()) s with
        | None -> ()
        | Some d -> divergences := d :: !divergences);
        incr checked;
        0
      in
      { Driver.step; boundary = (fun () -> true); abandon = ignore }
    in
    let check () =
      match !divergences with
      | [] -> Printf.sprintf "%d seeds, 0 divergences across 10 implementations" !checked
      | d :: _ -> fail "fuzz-campaign: %d divergence(s), first at seed %d" (List.length !divergences) d.Campaign.seed
    in
    (* Campaign.check_seed does not hand out its machines, so the
       instructions the compiled ABIs retire are counted afterwards, by
       Codegen.run on the run's first Driver.min_ops seeds *)
    let insns_per_op () =
      let total = ref 0 in
      for s = first to first + Driver.min_ops - 1 do
        let src = Cheri_fuzz.Gen.source ~seed:s in
        List.iter
          (fun abi ->
            match Cheri_compiler.Codegen.run abi src with
            | _, m -> total := !total + Machine.instret m
            | exception _ -> ())
          Abi.all
      done;
      Some (float_of_int !total /. float_of_int Driver.min_ops)
    in
    { stream; check; insns_per_op }
  in
  { name = "fuzz-campaign"; window = 20; trace_ops = 100; setup }

let all = [ paper_sweep; resume_chain; fuzz_campaign ]
