(* Compile-and-measure harness shared by the figure generators.

   Failures are structured: [run_result] returns [(measurement, error)
   result] where the error records which ABI failed, in which phase
   (compilation, execution, or the cross-ABI agreement check) and — for
   execution failures — the machine outcome itself, so the fuzz
   campaign and the domain pool's fault capture can branch on the
   cause instead of parsing a message. [run] stays as a thin raising
   wrapper ([Run_failed] with the pretty-printed error) so existing
   figure callers migrate incrementally. *)

module C = Cheri_compiler.Codegen
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Telemetry = Cheri_telemetry.Telemetry
module Exec = Cheri_exec.Exec
module Obs = Cheri_obs.Obs

(* per-run counters in the process-wide registry; values depend only on
   what each machine executed, so they are jobs-independent *)
let m_runs = Obs.counter Obs.default "runner_runs_total"
let m_insns = Obs.counter Obs.default "runner_insns_total"
let m_traps = Obs.counter Obs.default "runner_traps_total"
let m_hangs = Obs.counter Obs.default "runner_hangs_total"

type measurement = {
  abi : Abi.t;
  cycles : int;
  instret : int;
  output : string;
  l1_misses : int;
  l2_misses : int;
  cap_mem_ops : int;
  telemetry : Telemetry.snapshot option;
      (* present when the run was given a live sink *)
}

type phase =
  | Compile  (** the front end or code generator rejected the program *)
  | Execute  (** the softcore stopped with anything but Exit 0 *)
  | Diverged  (** ABIs disagreed on observable output *)
  | Hung
      (** the fuel or wall-clock watchdog fired ([Fuel_exhausted] /
          [Deadline_exceeded]) — a reaped runaway, not a crash *)

type error = {
  abi : Abi.t;  (** the ABI that failed (for Diverged: the disagreeing one) *)
  phase : phase;
  trap : Machine.outcome option;  (** the machine outcome, for Execute errors *)
  detail : string;
}

exception Run_failed of string

let phase_name = function
  | Compile -> "compile"
  | Execute -> "execute"
  | Diverged -> "diverged"
  | Hung -> "hung"

let error_message e =
  match e.phase with
  | Diverged -> e.detail
  | Compile | Execute | Hung -> Printf.sprintf "%s: %s" (Abi.name e.abi) e.detail

let pp_error ppf e =
  Format.fprintf ppf "[%s] %s" (phase_name e.phase) (error_message e)

let fail e = raise (Run_failed (error_message e))

(* The paper's FPGA runs at 100 MHz; cycle counts convert to seconds at
   that clock for Figure 1/3-style reporting. *)
let clock_hz = 100_000_000.
let seconds m = float_of_int m.cycles /. clock_hz

let run_result ?config ?(fuel = 600_000_000) ?sink abi src :
    (measurement, error) result =
  let err ?trap phase detail = Error { abi; phase; trap; detail } in
  match
    try Ok (C.compile_source abi src) with
    | C.Error m -> err Compile (Printf.sprintf "codegen: %s" m)
    | Abi.Unsupported m -> err Compile (Printf.sprintf "unsupported: %s" m)
    | Minic.Typecheck.Type_error m -> err Compile (Printf.sprintf "type error: %s" m)
    | Minic.Lexer.Lex_error (m, line) ->
        err Compile (Printf.sprintf "lex error line %d: %s" line m)
    | Minic.Parser.Parse_error (m, line) ->
        err Compile (Printf.sprintf "parse error line %d: %s" line m)
  with
  | Error _ as e -> e
  | Ok linked -> (
      let m = C.machine_for ?config abi linked in
      Option.iter (Machine.set_sink m) sink;
      match Machine.run ~fuel m with
      | Machine.Exit 0L ->
          let st = Machine.stats m in
          Obs.Counter.incr m_runs;
          Obs.Counter.incr ~by:st.Machine.st_instret m_insns;
          Option.iter (fun s -> Telemetry.obs_to_counters (Telemetry.snapshot s)) sink;
          Ok
            {
              abi;
              cycles = st.Machine.st_cycles;
              instret = st.Machine.st_instret;
              output = Machine.output m;
              l1_misses = st.Machine.st_l1_misses;
              l2_misses = st.Machine.st_l2_misses;
              cap_mem_ops = st.Machine.st_cap_loads + st.Machine.st_cap_stores;
              telemetry = Option.map Telemetry.snapshot sink;
            }
      | outcome ->
          (* Keep the full diagnosis: a Trap outcome pretty-prints its
             cause (including any Cap_fault detail) and the faulting pc
             via Machine.pp_outcome; add where execution stopped and
             what the program managed to print. A runaway reaped by the
             fuel watchdog is a Hung verdict, not a crash. *)
          let st = Machine.stats m in
          let phase =
            match outcome with
            | Machine.Fuel_exhausted -> Hung
            | _ -> Execute
          in
          Obs.Counter.incr m_runs;
          Obs.Counter.incr ~by:st.Machine.st_instret m_insns;
          Obs.Counter.incr (if phase = Hung then m_hangs else m_traps);
          Option.iter (fun s -> Telemetry.obs_to_counters (Telemetry.snapshot s)) sink;
          err ~trap:outcome phase
            (Format.asprintf "%a after %d instructions (%d cycles), output so far: %S"
               Machine.pp_outcome outcome st.Machine.st_instret st.Machine.st_cycles
               (Machine.output m)))

let run ?config ?fuel ?sink abi src : measurement =
  match run_result ?config ?fuel ?sink abi src with
  | Ok m -> m
  | Error e -> fail e

(* the differential check behind every figure: do the observable
   outputs agree across ABIs? *)
let check_agreement (ms : measurement list) : error option =
  match ms with
  | [] -> None
  | first :: rest ->
      List.fold_left
        (fun acc m ->
          match acc with
          | Some _ -> acc
          | None ->
              if m.output <> first.output then
                Some
                  {
                    abi = m.abi;
                    phase = Diverged;
                    trap = None;
                    detail =
                      Printf.sprintf "ABI outputs disagree: %s printed %S, %s printed %S"
                        (Abi.name first.abi) first.output (Abi.name m.abi) m.output;
                  }
              else None)
        None rest

(* a pool-level worker failure (a bug, not a program failure) folded
   into the same error type so sweeps have one error channel *)
let worker_error abi (e : Exec.Pool.error) =
  { abi; phase = Execute; trap = None; detail = Printf.sprintf "worker: %s" e.Exec.Pool.exn }

(* run the same source under all three ABIs — in parallel when [jobs] >
   1; per-run machine/heap/sink state makes the fan-out safe, and the
   pool keys results by submission index so orderings are identical *)
let run_results_all_abis ?jobs ?fuel ?(v2_source = None) src : (measurement, error) result list =
  let task abi =
    let src =
      match (abi, v2_source) with
      | Abi.Cheri Cheri_core.Cap_ops.V2, Some s -> s
      | _ -> src
    in
    run_result ?fuel abi src
  in
  List.map2
    (fun abi (cell : _ Exec.Pool.cell) ->
      match cell.Exec.Pool.result with Ok r -> r | Error e -> Error (worker_error abi e))
    Abi.all
    (Exec.Pool.map ?jobs task Abi.all)

(* run the same source under all three ABIs and insist the observable
   behaviour agrees — raising form *)
let run_all_abis ?jobs ?fuel ?v2_source src : measurement list =
  let ms =
    List.map
      (function Ok m -> m | Error e -> fail e)
      (run_results_all_abis ?jobs ?fuel ?v2_source src)
  in
  (match check_agreement ms with Some e -> fail e | None -> ());
  ms
