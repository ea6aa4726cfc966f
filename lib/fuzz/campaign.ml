(* Seeded differential-fuzz campaign runner.

   Every seed is one independent task: generate a well-defined program,
   run it under every implementation of the C abstract machine (the
   seven interpreter pointer models plus the three compiled ABIs — ten
   implementations), and flag a divergence whenever any two disagree on
   the observable behaviour (exit status, fault, output). Seeds fan out
   over the {!Cheri_exec.Exec.Pool}; a crash while processing one seed
   becomes a structured per-seed error, never aborts the campaign.

   A divergence is a bug by construction — the generator only emits
   defined behaviour — so each one is minimized by grammar-level
   shrinking (when [shrink] is set) and dumped as a reproducer: seed,
   minimized source, and per-implementation outcomes. *)

module Exec = Cheri_exec.Exec
module Interp = Cheri_interp.Interp
module Registry = Cheri_models.Registry
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Obs = Cheri_obs.Obs

type status =
  | Exited of int64  (** clean exit with this code *)
  | Faulted of string  (** a model fault or machine trap, pretty-printed *)
  | Stuck of string  (** implementation-level error: rejected program, crash... *)
  | Hung
      (** the step-limit / fuel / wall-clock watchdog fired. One shared
          constructor for interpreter [Exhausted] and machine
          [Fuel_exhausted]/[Deadline_exceeded], so two implementations
          that both time out never read as a (spurious) divergence. *)

type impl_outcome = { impl : string; status : status; out : string }

type impl = {
  impl_name : string;
  exec : string -> impl_outcome;  (** total: catches its implementation's own exceptions *)
}

(* -- the ten implementations ----------------------------------------------- *)

(* All ten implementations run the same source, so the front end (lex,
   parse, type-check) runs once per source and domain: a one-entry memo
   of the last source this domain checked. Per domain because
   [run ~jobs] shares one impl list across the pool's domains. A source
   the front end rejects is not remembered: each implementation re-runs
   the front end and reports the exception through its own handler,
   exactly as when it checked the source itself. *)
let last_typed : (string * Minic.Typed.program) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let typed src =
  match Domain.DLS.get last_typed with
  | Some (s, p) when String.equal s src -> p
  | _ ->
      let p = Minic.Typecheck.compile src in
      Domain.DLS.set last_typed (Some (src, p));
      p

let interp_impl (e : Registry.entry) : impl =
  let impl = "interp/" ^ e.Registry.display_name in
  let module I = Interp.Make ((val e.Registry.model)) in
  {
    impl_name = impl;
    exec =
      (fun src ->
        match I.run_program (typed src) with
        | Interp.Exit (code, out) -> { impl; status = Exited code; out }
        | Interp.Fault (f, out) ->
            { impl; status = Faulted (Format.asprintf "%a" Cheri_models.Fault.pp f); out }
        | Interp.Stuck msg -> { impl; status = Stuck msg; out = "" }
        | Interp.Exhausted out -> { impl; status = Hung; out }
        | exception exn -> { impl; status = Stuck (Printexc.to_string exn); out = "" });
  }

let compiled_impl ?slice (abi : Abi.t) : impl =
  let impl = "isa/" ^ Abi.name abi in
  let execute src =
    let m = Cheri_compiler.Codegen.(machine_for abi (compile abi (typed src))) in
    match slice with
    | None -> (Machine.run m, m)
    | Some n ->
        (* run in bounded fuel slices via [Yielded]: the machine stops
           only between instructions, so outcome and output are
           identical to the unsliced run for every slice size *)
        let n = max 1 n in
        let rec go left =
          match Machine.run ~fuel:(min n left) ~yield:true m with
          | Machine.Yielded when left > n -> go (left - n)
          | Machine.Yielded -> Machine.Fuel_exhausted
          | o -> o
        in
        (go Machine.default_fuel, m)
  in
  {
    impl_name = impl;
    exec =
      (fun src ->
        match execute src with
        | Machine.Exit code, m -> { impl; status = Exited code; out = Machine.output m }
        | (Machine.Fuel_exhausted | Machine.Deadline_exceeded | Machine.Yielded), m ->
            { impl; status = Hung; out = Machine.output m }
        | o, m ->
            {
              impl;
              status = Faulted (Format.asprintf "%a" Machine.pp_outcome o);
              out = Machine.output m;
            }
        | exception exn -> { impl; status = Stuck (Printexc.to_string exn); out = "" });
  }

let default_impls ?slice () =
  List.map interp_impl Registry.entries @ List.map (compiled_impl ?slice) Abi.all

(* -- divergence detection --------------------------------------------------- *)

let status_key = function
  | Exited c -> Printf.sprintf "exit:%Ld" c
  | Faulted f -> "fault:" ^ f
  | Stuck m -> "stuck:" ^ m
  | Hung -> "hang"

let outcome_key o = status_key o.status ^ ":" ^ o.out

let run_impls impls src : impl_outcome list = List.map (fun i -> i.exec src) impls

(* any two implementations disagreeing on (status, output) is a divergence *)
let divergent (outcomes : impl_outcome list) : bool =
  match outcomes with
  | [] -> false
  | first :: rest ->
      let k = outcome_key first in
      List.exists (fun o -> outcome_key o <> k) rest

(* -- the campaign ----------------------------------------------------------- *)

type divergence = {
  seed : int;
  source : string;  (** the originating program *)
  minimized : string option;  (** present when shrinking ran and reduced it *)
  outcomes : impl_outcome list;  (** on the minimized program when present *)
}

type report = {
  first_seed : int;
  seeds : int;
  jobs : int;
  shrunk : bool;
  wall_s : float;  (** campaign wall-clock *)
  serial_s : float;  (** sum of per-seed times: the 1-domain estimate *)
  resumed : int;  (** seeds restored from a checkpoint, not re-run *)
  divergences : divergence list;
  errors : (int * string) list;  (** per-seed harness failures (seed, exn) *)
  task_seconds : float list;
      (** wall time of each freshly executed seed, completion order —
          feeds the report's excludable "timing" key *)
}

let speedup r = if r.wall_s > 0. then r.serial_s /. r.wall_s else 1.

let check_seed ?(impls = default_impls ()) ?(shrink = false) seed : divergence option =
  let p = Gen.generate ~seed in
  let src = Gen.render p in
  let outcomes = run_impls impls src in
  if not (divergent outcomes) then None
  else
    let minimized =
      if not shrink then None
      else
        let reproduces q = divergent (run_impls impls (Gen.render q)) in
        let q = Shrink.minimize ~reproduces p in
        if Gen.size q < Gen.size p then Some (Gen.render q) else None
    in
    let outcomes =
      match minimized with Some s -> run_impls impls s | None -> outcomes
    in
    Some { seed; source = src; minimized; outcomes }

let esc = Cheri_util.Json.escape

let outcome_json o =
  Printf.sprintf "{\"impl\":\"%s\",\"status\":\"%s\",\"out\":\"%s\"}" (esc o.impl)
    (esc (status_key o.status))
    (esc o.out)

(* -- checkpointing ----------------------------------------------------------- *)

(* One {!Journal} line per finished seed, behind a header describing
   the campaign. [--resume] skips every recorded seed and — the
   campaign being deterministic per seed — continues exactly where the
   killed run stopped. *)

module Json = Cheri_util.Json
module Journal = Cheri_util.Journal

let checkpoint_schema = "cheri_c.fuzz-ckpt/v1"

exception Resume_mismatch = Journal.Resume_mismatch

let header_json ~first_seed ~seeds ~shrink =
  Printf.sprintf "{\"schema\":\"%s\",\"first_seed\":%d,\"seeds\":%d,\"shrink\":%b}"
    checkpoint_schema first_seed seeds shrink

let status_of_key k =
  match String.index_opt k ':' with
  | None -> if k = "hang" then Some Hung else None
  | Some i -> (
      let v = String.sub k (i + 1) (String.length k - i - 1) in
      match String.sub k 0 i with
      | "exit" -> Option.map (fun c -> Exited c) (Int64.of_string_opt v)
      | "fault" -> Some (Faulted v)
      | "stuck" -> Some (Stuck v)
      | _ -> None)

(* shared by the journal line and the report entry *)
let divergence_fields d =
  Printf.sprintf "\"source\":\"%s\",%s\"outcomes\":[%s]" (esc d.source)
    (match d.minimized with Some s -> Printf.sprintf "\"minimized\":\"%s\"," (esc s) | None -> "")
    (String.concat "," (List.map outcome_json d.outcomes))

let seed_json seed = function
  | None -> Printf.sprintf "{\"seed\":%d,\"divergent\":false}" seed
  | Some d -> Printf.sprintf "{\"seed\":%d,\"divergent\":true,%s}" seed (divergence_fields d)

let seed_of_json j : (int * divergence option) option =
  let outcome o =
    match Json.(mem_str "impl" o, Option.bind (mem_str "status" o) status_of_key, mem_str "out" o) with
    | Some impl, Some status, Some out -> Some { impl; status; out }
    | _ -> None
  in
  match Json.(mem_int "seed" j, mem_bool "divergent" j, mem_str "source" j) with
  | Some seed, Some false, _ -> Some (seed, None)
  | Some seed, Some true, Some source ->
      let outcomes = Option.bind (Json.member "outcomes" j) Json.to_list in
      let outcomes = List.filter_map outcome (Option.value ~default:[] outcomes) in
      Some (seed, Some { seed; source; minimized = Json.mem_str "minimized" j; outcomes })
  | _ -> None

let journal ~first_seed ~seeds ~shrink : (int, int * divergence option) Journal.codec =
  {
    Journal.header = header_json ~first_seed ~seeds ~shrink;
    key = fst;
    encode = (fun (seed, d) -> seed_json seed d);
    decode = seed_of_json;
  }

let run ?impls ?slice ?(shrink = false) ?(jobs = 1) ?(first_seed = 0) ?checkpoint
    ?resume ?(obs = Obs.default) ?heartbeat ~seeds () : report =
  (* [slice] only shapes how the softcore implementations spend fuel;
     with deterministic impls the report is identical either way *)
  let impls = match impls with Some i -> i | None -> default_impls ?slice () in
  let seed_list = List.init seeds (fun i -> first_seed + i) in
  let journal =
    Journal.start ?resume ?checkpoint (journal ~first_seed ~seeds ~shrink) ~tasks:seed_list
  in
  let resumed = Journal.restored journal in
  let pending = List.filter (fun s -> Option.is_none (Journal.find journal s)) seed_list in
  (* campaign observability: per-verdict counters (jobs-independent),
     seed latency histogram, campaign/seed spans, heartbeat status *)
  let verdict d = if d = None then "agree" else "divergent" in
  let m_seeds = Obs.counter obs "fuzz_seeds_total" in
  let m_errors = Obs.counter obs "fuzz_errors_total" in
  let m_verdict d = Obs.counter obs (Printf.sprintf "fuzz_verdicts_total{verdict=%S}" (verdict d)) in
  let m_seed_s = Obs.histogram obs "fuzz_seed_seconds" in
  Obs.Counter.incr ~by:(List.length resumed) (Obs.counter obs "fuzz_resumed_total");
  let root = Obs.Span.enter obs "fuzz.campaign" in
  let progress =
    Obs.Progress.create ?heartbeat ~total:seeds (List.map (fun (_, d) -> verdict d) resumed)
  in
  let pending_arr = Array.of_list pending in
  let on_result (cell : _ Exec.Pool.cell) =
    (match cell.Exec.Pool.result with
    | Ok d ->
        Journal.record journal (pending_arr.(cell.Exec.Pool.index), d);
        Obs.Counter.incr m_seeds;
        Obs.Counter.incr (m_verdict d)
    | Error _ -> Obs.Counter.incr m_errors);
    Obs.Histogram.observe m_seed_s cell.Exec.Pool.elapsed_s;
    Obs.Progress.finish progress cell.Exec.Pool.elapsed_s
      ~verdict:(match cell.Exec.Pool.result with Ok d -> verdict d | Error _ -> "error")
  in
  let task seed =
    Obs.Span.with_ obs ~parent:root ("fuzz.seed:" ^ string_of_int seed) (fun () ->
        check_seed ~impls ~shrink seed)
  in
  let cells, wall_s = Exec.wall (fun () -> Exec.Pool.map ~jobs ~obs ~on_result task pending) in
  Journal.close journal;
  let errors =
    List.concat_map
      (fun (c : _ Exec.Pool.cell) ->
        match c.Exec.Pool.result with
        | Ok _ -> []
        | Error e -> [ (pending_arr.(c.Exec.Pool.index), e.Exec.Pool.exn) ])
      cells
  in
  let divergences = List.filter_map (fun s -> Option.bind (Journal.find journal s) snd) seed_list in
  Obs.Span.exit obs root;
  let report =
    {
      first_seed;
      seeds;
      jobs;
      shrunk = shrink;
      wall_s;
      serial_s = Exec.Pool.serial_seconds cells;
      resumed = List.length resumed;
      divergences;
      errors;
      task_seconds = Obs.Progress.walls progress;
    }
  in
  Obs.Progress.force progress;
  report

(* -- reporting -------------------------------------------------------------- *)

let divergence_json d = Printf.sprintf "    {\"seed\":%d,%s}" d.seed (divergence_fields d)

(* Deliberately timing-free (no wall/serial/resumed fields) apart from
   the one "timing" key, dropped with [~timing:false]: a
   killed-and-resumed campaign must reproduce the uninterrupted run's
   JSON byte for byte once timing is excluded. *)
let report_json ?(timing = true) (r : report) : string =
  Printf.sprintf
    "{\n\
    \  \"schema\": \"cheri_c.fuzz/v1\",\n\
    \  \"first_seed\": %d,\n\
    \  \"seeds\": %d,\n\
    \  \"shrink\": %b,\n\
    \  \"divergent\": %d,\n%s\
    \  \"errors\": [%s],\n\
    \  \"divergences\": [\n%s\n  ]\n\
     }\n"
    r.first_seed r.seeds r.shrunk
    (List.length r.divergences)
    (if timing then
       Printf.sprintf "  \"timing\": %s,\n"
         (Obs.timing_json ~jobs:r.jobs ~wall_s:r.wall_s ~serial_s:r.serial_s r.task_seconds)
     else "")
    (String.concat ","
       (List.map
          (fun (seed, exn) -> Printf.sprintf "{\"seed\":%d,\"exn\":\"%s\"}" seed (esc exn))
          r.errors))
    (String.concat ",\n" (List.map divergence_json r.divergences))

let pp_divergence ppf d =
  Format.fprintf ppf "seed %d diverges:@." d.seed;
  List.iter
    (fun o -> Format.fprintf ppf "  %-20s %s out=%S@." o.impl (status_key o.status) o.out)
    d.outcomes;
  (match d.minimized with
  | Some s -> Format.fprintf ppf "minimized reproducer:@.%s" s
  | None -> Format.fprintf ppf "reproducer:@.%s" d.source)

let pp_report ppf (r : report) =
  Format.fprintf ppf "fuzz campaign: seeds %d..%d, %d jobs: %d divergent, %d errors@."
    r.first_seed
    (r.first_seed + r.seeds - 1)
    r.jobs
    (List.length r.divergences)
    (List.length r.errors);
  if r.resumed > 0 then
    Format.fprintf ppf "resumed: %d seeds restored from the checkpoint@." r.resumed;
  Format.fprintf ppf "wall %.2fs, serial %.2fs, speedup %.2fx@." r.wall_s r.serial_s (speedup r);
  List.iter (fun (seed, exn) -> Format.fprintf ppf "seed %d: harness error: %s@." seed exn) r.errors;
  List.iter (pp_divergence ppf) r.divergences
