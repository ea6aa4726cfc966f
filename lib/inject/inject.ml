(* Deterministic, seeded fault-injection engine (the PR-3 tentpole).

   The paper's core claim is that CHERI turns silent memory corruption
   into deterministic traps. This module stresses that claim instead
   of asserting it: compile a workload once per ABI, replay it to a
   seed-chosen instruction index, perturb the machine there — flip a
   data byte, corrupt a stored pointer, clear or forge a tag line,
   corrupt a capability field, fail an allocation — and classify what
   the architecture does about it:

   - [Detected]  the machine trapped (the §4.2 guarantee at work);
   - [Masked]    the program still produced the reference behaviour;
   - [Silent]    wrong observable behaviour and no trap — the failure
                 mode the paper is about;
   - [Hung]      the fuel or wall-clock watchdog reaped the run.

   Fault model. Corruptions are applied through the *architectural*
   data path wherever one exists: a stray store over a pointer clears
   the granule tag on CHERI (the integrity rule does the detecting) and
   silently redirects the pointer on MIPS — exactly the asymmetry the
   detection matrix is meant to exhibit. Guard-field corruption
   (length, perms) is applied tag-preservingly via {!Tagmem.poke_raw_i64},
   because those fields never change which address is accessed, only
   whether the access traps — so CHERI detects or masks them
   structurally. Address-field corruption (base, offset) without
   provenance loses the tag, mirroring a register file that only
   accepts capability writes from capability instructions. The one
   fault CHERI makes no claim about — corrupting plain, untagged data —
   is kept in the matrix as the [Bitflip] negative control: tags
   authenticate pointer provenance, they are not ECC.

   Everything is derived from (seed, workload, ABI, kind) through
   {!Rng}, and records carry no timing, so a campaign resumed from a
   checkpoint reproduces the uninterrupted run's report byte for
   byte. *)

module Machine = Cheri_isa.Machine
module Tagmem = Cheri_tagmem.Tagmem
module Asm = Cheri_asm.Asm
module Abi = Cheri_compiler.Abi
module Codegen = Cheri_compiler.Codegen
module Capability = Cheri_core.Capability
module Exec = Cheri_exec.Exec
module Json = Cheri_util.Json
module Journal = Cheri_util.Journal
module Resumable = Cheri_snapshot.Resumable
module Obs = Cheri_obs.Obs

(* -- fault kinds ------------------------------------------------------------ *)

type kind =
  | Bitflip  (** flip one bit of live program data (negative control) *)
  | Tag_clear  (** stray store over a stored pointer *)
  | Tag_set  (** forge a tag onto a granule of plain data *)
  | Cap_field  (** corrupt one field of a live capability *)
  | Alloc_fail  (** fail an upcoming malloc or free *)

let all_kinds = [ Bitflip; Tag_clear; Tag_set; Cap_field; Alloc_fail ]

let kind_key = function
  | Bitflip -> "bitflip"
  | Tag_clear -> "tag-clear"
  | Tag_set -> "tag-set"
  | Cap_field -> "cap-field"
  | Alloc_fail -> "alloc-fail"

let kind_of_key s =
  match String.lowercase_ascii s with
  | "bitflip" -> Some Bitflip
  | "tag-clear" | "tagclear" -> Some Tag_clear
  | "tag-set" | "tagset" -> Some Tag_set
  | "cap-field" | "capfield" -> Some Cap_field
  | "alloc-fail" | "allocfail" -> Some Alloc_fail
  | _ -> None

(* The kinds whose CHERI detection story is structural: a perturbed
   pointer either traps or the program was never going to use it.
   [Tag_set] is excluded deliberately — forging a tag is a fault
   *below* the architecture (a tag-SRAM upset), and a forged tag that
   resurrects a stale-but-plausible capability is exactly the
   corruption the tag bit cannot police; like [Bitflip] it is kept in
   the matrix as a measured control, not a guarantee. *)
let pointer_protecting = function
  | Tag_clear | Cap_field -> true
  | Bitflip | Tag_set | Alloc_fail -> false

(* -- verdicts --------------------------------------------------------------- *)

type verdict =
  | Detected of string  (** trapped; carries the pretty-printed trap *)
  | Masked  (** reference exit status and output anyway *)
  | Silent of string  (** wrong behaviour, no trap; carries the diff *)
  | Hung  (** fuel or wall-clock watchdog fired *)

let verdict_key = function
  | Detected _ -> "detected"
  | Masked -> "masked"
  | Silent _ -> "silent"
  | Hung -> "hang"

let verdict_why = function Detected w | Silent w -> w | Masked | Hung -> ""

type record = {
  workload : string;
  abi : string;  (** {!Abi.name} of the target *)
  kind : kind;
  seed : int;
  trigger : int;  (** instruction index the fault was applied at *)
  detail : string;  (** what exactly was perturbed *)
  verdict : verdict;
}

(* -- workloads -------------------------------------------------------------- *)

type workload = { w_name : string; w_source : Abi.t -> string }

(* Injection replays every workload hundreds of times, so the builtin
   table uses scaled-down parameters: a few hundred thousand retired
   instructions each — large enough to have live heap structure at any
   trigger point, small enough to replay in milliseconds. *)
let builtin_workloads : workload list =
  let module O = Cheri_workloads.Olden in
  let module D = Cheri_workloads.Dhrystone in
  let module T = Cheri_workloads.Tcpdump_sim in
  let module Z = Cheri_workloads.Zlib_like in
  List.map
    (fun (k : O.kernel) ->
      {
        w_name = "olden." ^ String.lowercase_ascii k.O.kname;
        w_source = (fun _ -> k.O.source { O.scale = 1 });
      })
    O.kernels
  @ [
      {
        w_name = "dhrystone";
        w_source = (fun _ -> D.source { D.iterations = 150 });
      };
      {
        w_name = "tcpdump";
        w_source =
          (let p = { T.packets = 64; passes = 1 } in
           function
           | Abi.Cheri Cheri_core.Cap_ops.V2 -> T.source_v2 p
           | _ -> T.source p);
      };
      {
        w_name = "zlib";
        w_source = (fun _ -> Z.source { Z.input_size = 2048; boundary_copy = false });
      };
    ]

let workload_names = List.map (fun w -> w.w_name) builtin_workloads

let find_workload name =
  List.find_opt (fun w -> w.w_name = name) builtin_workloads

(* -- the reference run ------------------------------------------------------ *)

type reference = {
  ref_workload : string;
  ref_abi : Abi.t;
  ref_linked : Asm.linked;
  ref_outcome : Machine.outcome;
  ref_output : string;
  ref_instret : int;
}

let default_fuel = 50_000_000

let reference ?(fuel = default_fuel) ?deadline_s (w : workload) abi : reference =
  let linked = Codegen.compile_source abi (w.w_source abi) in
  let m = Codegen.machine_for abi linked in
  let outcome = Machine.run ~fuel ?deadline_s m in
  {
    ref_workload = w.w_name;
    ref_abi = abi;
    ref_linked = linked;
    ref_outcome = outcome;
    ref_output = Machine.output m;
    ref_instret = Machine.instret m;
  }

(* -- fault-site discovery --------------------------------------------------- *)

let is_cheri = function Abi.Cheri _ -> true | Abi.Mips -> false

(* live data regions: the loaded data segment plus every live heap
   block — the places a stray store could plausibly land on program
   state (perturbing never-written memory only measures noise) *)
let data_regions r m =
  let data =
    (r.ref_linked.Asm.data_base, Int64.of_int (Bytes.length r.ref_linked.Asm.data))
  in
  let regions = data :: Machine.allocated_blocks m in
  List.filter (fun (_, size) -> size > 0L) regions

(* pick a uniformly random byte address across a region list *)
let pick_byte rng regions =
  let total = List.fold_left (fun acc (_, s) -> Int64.add acc s) 0L regions in
  if total = 0L then None
  else
    let off = ref (Int64.of_int (Rng.below rng (Int64.to_int total))) in
    let rec find = function
      | [] -> None
      | (base, size) :: rest ->
          if !off < size then Some (Int64.add base !off)
          else begin
            off := Int64.sub !off size;
            find rest
          end
    in
    find regions

let tagged_granules m =
  let acc = ref [] in
  Tagmem.iter_tagged (Machine.mem m) (fun a -> acc := a :: !acc);
  Array.of_list (List.rev !acc)

(* MIPS has no tags, so "a stored pointer" is found by its
   representation: an 8-aligned word in live data or the active stack
   whose value lands in the pointable range [data_base, mem_size). *)
let pointer_homes r m =
  let mem = Machine.mem m in
  let lo = (Machine.config m).Machine.data_base in
  let hi = Int64.of_int (Tagmem.size mem) in
  let plausible v = v >= lo && v < hi in
  let stack = (Machine.gpr m 29, Int64.sub (Machine.stack_top m) (Machine.gpr m 29)) in
  let regions = stack :: data_regions r m in
  let acc = ref [] in
  List.iter
    (fun (base, size) ->
      let first = Int64.logand (Int64.add base 7L) (Int64.lognot 7L) in
      let last = Int64.add base size in
      let a = ref first in
      while Int64.add !a 8L <= last do
        if plausible (Tagmem.load_int_i64 mem ~addr:!a ~size:8) then acc := !a :: !acc;
        a := Int64.add !a 8L
      done)
    regions;
  Array.of_list (List.rev !acc)

(* capability sites: registers holding a tagged capability, and tagged
   granules in memory *)
type cap_site = Reg of int | Mem of int64

let cap_sites m =
  let regs = ref [] in
  for i = 31 downto 1 do
    if (Machine.cap m i).Capability.tag then regs := Reg i :: !regs
  done;
  Array.of_list (!regs @ Array.to_list (Array.map (fun a -> Mem a) (tagged_granules m)))

(* -- fault application ------------------------------------------------------ *)

(* a stray architectural store: flips one bit of one byte through the
   data path, so the §4.2 integrity rule clears the granule tag *)
let flip_byte mem addr bit =
  Tagmem.store_byte_i64 mem addr (Tagmem.load_byte_i64 mem addr lxor (1 lsl bit))

(* same flip below the architecture: the granule tag survives *)
let flip_byte_raw mem addr bit =
  Tagmem.poke_raw_i64 mem addr (Tagmem.load_byte_i64 mem addr lxor (1 lsl bit))

type field = F_base | F_length | F_offset | F_perms

let field_name = function
  | F_base -> "base"
  | F_length -> "length"
  | F_offset -> "offset"
  | F_perms -> "perms"

(* word index inside the 32-byte in-memory representation; must agree
   with Capability.to_words (word 3 carries perms in its low byte) *)
let field_word = function F_base -> 0 | F_length -> 1 | F_offset -> 2 | F_perms -> 3

(* Apply one fault of [kind] to the running machine; returns a
   human-readable description of what was done. A kind with no target
   in the current machine state (no live capability yet, no
   pointer-like word) degrades to a recorded no-op — the run then
   almost certainly masks, which is itself a data point. *)
let apply_fault rng r m kind : string =
  let mem = Machine.mem m in
  match kind with
  | Bitflip -> (
      match pick_byte rng (data_regions r m) with
      | None -> "no-op: no live data"
      | Some addr ->
          let bit = Rng.below rng 8 in
          flip_byte mem addr bit;
          Printf.sprintf "flipped bit %d of data byte 0x%Lx" bit addr)
  | Tag_clear ->
      if is_cheri r.ref_abi then begin
        let granules = tagged_granules m in
        if Array.length granules = 0 then "no-op: no tagged granules yet"
        else begin
          let base = granules.(Rng.below rng (Array.length granules)) in
          let byte = Rng.below rng (Tagmem.granule mem) in
          let bit = Rng.below rng 8 in
          flip_byte mem (Int64.add base (Int64.of_int byte)) bit;
          Printf.sprintf
            "stray store over capability granule 0x%Lx (byte %d bit %d): tag cleared"
            base byte bit
        end
      end
      else begin
        let homes = pointer_homes r m in
        if Array.length homes = 0 then "no-op: no pointer-like words"
        else begin
          let addr = homes.(Rng.below rng (Array.length homes)) in
          let bitpos = Rng.below rng 64 in
          flip_byte mem (Int64.add addr (Int64.of_int (bitpos / 8))) (bitpos mod 8);
          Printf.sprintf "stray store over pointer word 0x%Lx (bit %d)" addr bitpos
        end
      end
  | Tag_set -> (
      (* forge validity onto plain data: pick a live data byte and set
         its granule's tag without making the bytes a capability *)
      match pick_byte rng (data_regions r m) with
      | None -> "no-op: no live data"
      | Some addr ->
          if Tagmem.tag_at_i64 mem addr then "no-op: granule already tagged"
          else begin
            Tagmem.set_tag_at_i64 mem addr;
            Printf.sprintf "forged tag onto granule of 0x%Lx" addr
          end)
  | Cap_field -> (
      let sites = cap_sites m in
      if Array.length sites = 0 then "no-op: no live capabilities"
      else
        let site = sites.(Rng.below rng (Array.length sites)) in
        let field =
          match Rng.below rng 4 with
          | 0 -> F_base
          | 1 -> F_length
          | 2 -> F_offset
          | _ -> F_perms
        in
        let bit = match field with F_perms -> Rng.below rng 8 | _ -> Rng.below rng 64 in
        match site with
        | Reg i ->
            let words = Capability.to_words (Machine.cap m i) in
            let w = field_word field in
            words.(w) <- Int64.logxor words.(w) (Int64.shift_left 1L bit);
            (* guard fields (length, perms) never change which address
               is accessed, so the SEU may keep the tag — detection is
               the bounds/perms check's job. Address fields only change
               through capability instructions; a raw write-back loses
               provenance and with it the tag. *)
            let tag = match field with F_length | F_perms -> true | _ -> false in
            Machine.set_cap m i (Capability.of_words ~tag words);
            Printf.sprintf "flipped bit %d of %s in capability register c%d%s" bit
              (field_name field) i
              (if tag then "" else " (provenance lost: tag cleared)")
        | Mem base ->
            let addr = Int64.add base (Int64.of_int ((field_word field * 8) + (bit / 8))) in
            (match field with
            | F_length | F_perms -> flip_byte_raw mem addr (bit mod 8)
            | F_base | F_offset -> flip_byte mem addr (bit mod 8));
            Printf.sprintf "flipped bit %d of %s in capability at 0x%Lx%s" bit
              (field_name field) base
              (match field with
              | F_length | F_perms -> " (tag preserved)"
              | _ -> " (data path: tag cleared)"))
  | Alloc_fail ->
      let after = Rng.below rng 4 in
      if Rng.bool rng then begin
        Machine.inject_alloc_failure m ~after;
        Printf.sprintf "armed malloc failure (after %d more)" after
      end
      else begin
        Machine.inject_free_failure m ~after;
        Printf.sprintf "armed free failure (after %d more)" after
      end

(* -- single injection run --------------------------------------------------- *)

let classify r outcome m =
  match outcome with
  | Machine.Exit code ->
      if outcome = r.ref_outcome && Machine.output m = r.ref_output then Masked
      else
        Silent
          (Printf.sprintf "exit %Ld with %s output" code
             (if Machine.output m = r.ref_output then "reference" else "divergent"))
  | Machine.Trap _ as o -> Detected (Format.asprintf "%a" Machine.pp_outcome o)
  | Machine.Fuel_exhausted | Machine.Deadline_exceeded | Machine.Yielded -> Hung

let task_rng (r : reference) kind seed =
  Rng.of_key [ string_of_int seed; r.ref_workload; Abi.name r.ref_abi; kind_key kind ]

(* allocator faults are armed early, while the allocator is still
   active — most workloads build their heap up front, and a
   malloc-failure armed after the last malloc can never fire *)
let draw_trigger rng (r : reference) kind =
  let trigger_range =
    match kind with
    | Alloc_fail -> max 1 (r.ref_instret / 10)
    | _ -> max 1 (r.ref_instret - 1)
  in
  1 + Rng.below rng trigger_range

let mk_record (r : reference) kind seed trigger detail verdict =
  {
    workload = r.ref_workload;
    abi = Abi.name r.ref_abi;
    kind;
    seed;
    trigger;
    detail;
    verdict;
  }

let run_one ?(fuel = default_fuel) ?deadline_s (r : reference) kind seed : record =
  let mk = mk_record r kind seed in
  match r.ref_outcome with
  | Machine.Fuel_exhausted | Machine.Deadline_exceeded | Machine.Yielded ->
      (* the workload itself is a runaway: the watchdog reaped the
         reference run, and every injection into it inherits the
         verdict instead of aborting the campaign *)
      mk 0 "reference run reaped by the watchdog" Hung
  | Machine.Trap _ ->
      mk 0
        (Format.asprintf "reference run trapped: %a" Machine.pp_outcome r.ref_outcome)
        (Detected (Format.asprintf "%a" Machine.pp_outcome r.ref_outcome))
  | Machine.Exit _ ->
      let rng = task_rng r kind seed in
      let trigger = draw_trigger rng r kind in
      let m = Codegen.machine_for r.ref_abi r.ref_linked in
      (* [Yielded]: the fresh machine has replayed up to the trigger *)
      (match Machine.run ~fuel:trigger ~yield:true m with
      | Machine.Yielded ->
          let detail = apply_fault rng r m kind in
          let outcome = Machine.run ~fuel ?deadline_s m in
          mk trigger detail (classify r outcome m)
      | o ->
          (* replay divergence would be a simulator bug; record it
             honestly rather than asserting *)
          mk trigger "program ended before the trigger point" (classify r o m))

(* -- campaigns -------------------------------------------------------------- *)

type campaign = {
  c_workloads : workload list;
  c_kinds : kind list;
  c_seeds : int;  (** seeds per (workload, ABI, kind) cell *)
  c_first_seed : int;
  c_fuel : int;
  c_deadline_s : float option;
}

let default_campaign ?(workloads = builtin_workloads) ?(kinds = all_kinds) ?(seeds = 8)
    ?(first_seed = 0) ?(fuel = default_fuel) ?deadline_s () =
  {
    c_workloads = workloads;
    c_kinds = kinds;
    c_seeds = seeds;
    c_first_seed = first_seed;
    c_fuel = fuel;
    c_deadline_s = deadline_s;
  }

type task = { t_workload : workload; t_abi : Abi.t; t_kind : kind; t_seed : int }

(* canonical task order: workload-major, then ABI, kind, seed — the
   order of [report.records] regardless of jobs or resume *)
let tasks c =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun abi ->
          List.concat_map
            (fun kind ->
              List.init c.c_seeds (fun i ->
                  { t_workload = w; t_abi = abi; t_kind = kind; t_seed = c.c_first_seed + i }))
            c.c_kinds)
        Abi.all)
    c.c_workloads

let task_key w abi kind seed = Printf.sprintf "%s|%s|%s|%d" w abi (kind_key kind) seed

type error = { e_workload : string; e_abi : string; e_kind : kind; e_seed : int; e_exn : string }

type report = {
  r_campaign : campaign;
  r_records : record list;  (** canonical task order *)
  r_errors : error list;
  r_resumed : int;  (** records restored from the checkpoint *)
  r_jobs : int;
  r_wall_s : float;
  r_task_seconds : float list;
      (** per-task wall times of freshly executed tasks, completion
          order — timing data, excluded from byte-identity *)
}

(* -- matrix ----------------------------------------------------------------- *)

type counts = { n_detected : int; n_masked : int; n_silent : int; n_hung : int }

let zero_counts = { n_detected = 0; n_masked = 0; n_silent = 0; n_hung = 0 }

let count_verdict c = function
  | Detected _ -> { c with n_detected = c.n_detected + 1 }
  | Masked -> { c with n_masked = c.n_masked + 1 }
  | Silent _ -> { c with n_silent = c.n_silent + 1 }
  | Hung -> { c with n_hung = c.n_hung + 1 }

(* per (ABI, kind) outcome counts, in ABI-major then kind order *)
let matrix (r : report) : ((string * kind) * counts) list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun rec_ ->
      let key = (rec_.abi, rec_.kind) in
      let c = Option.value (Hashtbl.find_opt tbl key) ~default:zero_counts in
      Hashtbl.replace tbl key (count_verdict c rec_.verdict))
    r.r_records;
  List.concat_map
    (fun abi ->
      List.filter_map
        (fun kind ->
          Option.map
            (fun c -> ((Abi.name abi, kind), c))
            (Hashtbl.find_opt tbl (Abi.name abi, kind)))
        r.r_campaign.c_kinds)
    Abi.all

(* -- checkpointing ---------------------------------------------------------- *)

let esc = Json.escape

let record_json rec_ =
  Printf.sprintf
    "{\"workload\":\"%s\",\"abi\":\"%s\",\"kind\":\"%s\",\"seed\":%d,\"trigger\":%d,\"verdict\":\"%s\",\"why\":\"%s\",\"detail\":\"%s\"}"
    (esc rec_.workload) (esc rec_.abi) (kind_key rec_.kind) rec_.seed rec_.trigger
    (verdict_key rec_.verdict)
    (esc (verdict_why rec_.verdict))
    (esc rec_.detail)

let record_of_json j : record option =
  let str k = Json.mem_str k j in
  let why = Option.value (str "why") ~default:"" in
  let verdict = function
    | "detected" -> Some (Detected why)
    | "masked" -> Some Masked
    | "silent" -> Some (Silent why)
    | "hang" -> Some Hung
    | _ -> None
  in
  match
    ( str "workload",
      str "abi",
      Option.bind (str "kind") kind_of_key,
      Json.mem_int "seed" j,
      Json.mem_int "trigger" j,
      Option.bind (str "verdict") verdict )
  with
  | Some workload, Some abi, Some kind, Some seed, Some trigger, Some verdict ->
      let detail = Option.value (str "detail") ~default:"" in
      Some { workload; abi; kind; seed; trigger; detail; verdict }
  | _ -> None

let checkpoint_schema = "cheri_c.inject-ckpt/v1"

let header_json c =
  Printf.sprintf
    "{\"schema\":\"%s\",\"workloads\":[%s],\"kinds\":[%s],\"seeds\":%d,\"first_seed\":%d,\"fuel\":%d}"
    checkpoint_schema
    (String.concat ","
       (List.map (fun w -> "\"" ^ esc w.w_name ^ "\"") c.c_workloads))
    (String.concat "," (List.map (fun k -> "\"" ^ kind_key k ^ "\"") c.c_kinds))
    c.c_seeds c.c_first_seed c.c_fuel

exception Resume_mismatch = Journal.Resume_mismatch

let journal c : (string, record) Journal.codec =
  {
    Journal.header = header_json c;
    key = (fun r -> task_key r.workload r.abi r.kind r.seed);
    encode = record_json;
    decode = record_of_json;
  }

(* -- preemptive (sliced) injection runs ------------------------------------- *)

(* With [~slice:n], a task advances at most [n] instructions per
   {!Exec.Pool.map_sliced} slice instead of running to completion. The
   replay to the trigger point and the post-fault run are both sliced;
   the machine stops only between instructions, so the verdicts are
   bit-identical to the unsliced engine for every slice size. The
   payoff is crash safety: while a checkpoint is being written, every
   in-flight task also persists a machine snapshot to a sidecar file at
   each yield, so a killed campaign resumes long tasks mid-run instead
   of from their trigger replay. *)

(* what a task carries through every slice *)
type task_ctx = {
  x_ref : reference;
  x_kind : kind;
  x_seed : int;
  x_key : string;
  x_span : Obs.Span.span;  (** the task's span, opened at init *)
}

type sliced_state =
  | S_done of record  (** decided without running (reference trapped/hung) *)
  | S_replay of { ctx : task_ctx; m : Machine.t; rng : Rng.t; trigger : int }
      (** advancing a fresh machine to the trigger *)
  | S_post of {
      ctx : task_ctx;
      m : Machine.t;
      trigger : int;
      detail : string;
      fuel_left : int;
      time_left : float option;
          (** seconds left of the task's [deadline_s]: one budget for
              the whole post-fault run, charged only for its own slices *)
    }
      (** fault applied; running it out in fuel slices *)

let inflight_schema = "cheri_c.inject-inflight/v1"

let sanitize_key =
  String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-') as c -> c | _ -> '-')

let sidecar_path ckpt key = ckpt ^ ".inflight." ^ sanitize_key key ^ ".snap"

let inflight_note ~key ~trigger ~detail ~fuel_left =
  Resumable.note ~schema:inflight_schema
    [
      ("task", Json.Str key);
      ("trigger", Json.Num (string_of_int trigger));
      ("detail", Json.Str detail);
      ("fuel_left", Json.Num (string_of_int fuel_left));
    ]

(* A sidecar is strictly an optimization: only a note for this very
   task with fuel left is accepted, and any failure (stale file, torn
   write, changed campaign) silently restarts the task from its
   trigger replay. The note carries no deadline budget: a resumed task
   gets the full [deadline_s] again for the rest of its run. *)
let resume_from_sidecar ~resume ~deadline_s ctx =
  let r = ctx.x_ref in
  let accept j =
    match Json.(mem_str "task" j, mem_int "trigger" j, mem_str "detail" j, mem_int "fuel_left" j) with
    | Some k, Some trigger, Some detail, Some fuel_left when k = ctx.x_key && fuel_left > 0 ->
        Some (trigger, detail, fuel_left)
    | _ -> None
  in
  Option.bind resume (fun ckpt ->
      Resumable.resume ~schema:inflight_schema ~accept ~abi:(Abi.name r.ref_abi)
        ~fresh:(fun () -> Codegen.machine_for r.ref_abi r.ref_linked)
        (sidecar_path ckpt ctx.x_key))
  |> Option.map (fun (m, (trigger, detail, fuel_left)) ->
         S_post { ctx; m; trigger; detail; fuel_left; time_left = deadline_s })

let init_sliced ~resume ~deadline_s ~obs ~root ref_tbl key_of t =
  match Hashtbl.find ref_tbl (t.t_workload.w_name, Abi.name t.t_abi) with
  | Error e -> failwith ("reference run failed: " ^ e)
  | Ok r -> (
      let key = key_of t in
      let mk = mk_record r t.t_kind t.t_seed in
      match r.ref_outcome with
      | Machine.Fuel_exhausted | Machine.Deadline_exceeded | Machine.Yielded ->
          S_done (mk 0 "reference run reaped by the watchdog" Hung)
      | Machine.Trap _ ->
          S_done
            (mk 0
               (Format.asprintf "reference run trapped: %a" Machine.pp_outcome r.ref_outcome)
               (Detected (Format.asprintf "%a" Machine.pp_outcome r.ref_outcome)))
      | Machine.Exit _ -> (
          let x_span = Obs.Span.enter obs ~parent:root ("inject.task:" ^ key) in
          let ctx = { x_ref = r; x_kind = t.t_kind; x_seed = t.t_seed; x_key = key; x_span } in
          match resume_from_sidecar ~resume ~deadline_s ctx with
          | Some st -> st
          | None ->
              let rng = task_rng r t.t_kind t.t_seed in
              let trigger = draw_trigger rng r t.t_kind in
              S_replay { ctx; m = Codegen.machine_for r.ref_abi r.ref_linked; rng; trigger }))

let slice_sliced ~slice:slice_n ~fuel ?deadline_s ~checkpoint st :
    (sliced_state, record) Exec.Pool.progress =
  match st with
  | S_done rec_ -> Exec.Pool.Done rec_
  | S_replay { ctx; m; rng; trigger } -> (
      let r = ctx.x_ref in
      (* [Yielded]: at the trigger, or the slice is spent *)
      match Machine.run ~fuel:(min slice_n (trigger - Machine.instret m)) ~yield:true m with
      | Machine.Yielded when Machine.instret m < trigger -> Exec.Pool.Yield st
      | Machine.Yielded ->
          let detail = apply_fault rng r m ctx.x_kind in
          Exec.Pool.Yield
            (S_post { ctx; m; trigger; detail; fuel_left = fuel; time_left = deadline_s })
      | o ->
          Exec.Pool.Done
            (mk_record r ctx.x_kind ctx.x_seed trigger "program ended before the trigger point"
               (classify r o m)))
  | S_post ({ ctx; m; trigger; detail; fuel_left; time_left } as p) -> (
      let f = min slice_n fuel_left in
      (* Each slice runs on what is left of the task's deadline and is
         charged its own wall time, so time spent queued behind other
         tasks never counts. The charge is measured here because a
         slice shorter than the machine's sampling stride never reads
         the clock. *)
      let t0 = Unix.gettimeofday () in
      let outcome =
        match time_left with
        | Some t when t <= 0. -> Machine.Deadline_exceeded
        | _ -> Machine.run ~fuel:f ?deadline_s:time_left m
      in
      let time_left = Option.map (fun t -> t -. (Unix.gettimeofday () -. t0)) time_left in
      match outcome with
      | Machine.Fuel_exhausted when fuel_left > f ->
          let fuel_left = fuel_left - f in
          Option.iter
            (fun ckpt ->
              (* a failed sidecar write only costs resume granularity,
                 never campaign results *)
              Resumable.save
                ~note:(inflight_note ~key:ctx.x_key ~trigger ~detail ~fuel_left)
                ~abi:(Abi.name ctx.x_ref.ref_abi)
                ~path:(sidecar_path ckpt ctx.x_key)
                m)
            checkpoint;
          Exec.Pool.Yield (S_post { p with fuel_left; time_left })
      | outcome ->
          Option.iter (fun ckpt -> Resumable.discard (sidecar_path ckpt ctx.x_key)) checkpoint;
          Exec.Pool.Done
            (mk_record ctx.x_ref ctx.x_kind ctx.x_seed trigger detail
               (classify ctx.x_ref outcome m)))

let run ?(jobs = 1) ?(retries = 1) ?checkpoint ?resume ?limit ?slice ?(obs = Obs.default)
    ?heartbeat c : report =
  let all = tasks c in
  let key_of t = task_key t.t_workload.w_name (Abi.name t.t_abi) t.t_kind t.t_seed in
  let journal = Journal.start ?resume ?checkpoint (journal c) ~tasks:(List.map key_of all) in
  let resumed = Journal.restored journal in
  let pending = List.filter (fun t -> Option.is_none (Journal.find journal (key_of t))) all in
  let pending =
    match limit with None -> pending | Some n -> List.filteri (fun i _ -> i < n) pending
  in
  let start = Unix.gettimeofday () in
  (* campaign-level observability: verdict counters keyed by verdict
     name (values independent of jobs/slice/resume history), the task
     latency histogram, a span per campaign/task/slice, and the
     heartbeat status file *)
  let m_tasks = Obs.counter obs "inject_tasks_total" in
  let m_errors = Obs.counter obs "inject_errors_total" in
  let m_verdict v =
    Obs.counter obs (Printf.sprintf "inject_verdicts_total{verdict=%S}" (verdict_key v))
  in
  let m_task_s = Obs.histogram obs "inject_task_seconds" in
  Obs.Counter.incr ~by:(List.length resumed) (Obs.counter obs "inject_resumed_total");
  let root = Obs.Span.enter obs "inject.campaign" in
  let progress =
    Obs.Progress.create ?heartbeat ~total:(List.length all)
      (List.map (fun r -> verdict_key r.verdict) resumed)
  in
  (* references are shared across every (kind, seed) task of a
     (workload, ABI) pair: compute each pair once, in parallel, before
     the fan-out. A failing reference (a codegen limit, say) fails each
     of its tasks with the same recorded error instead of aborting. *)
  let pairs =
    let seen = Hashtbl.create 32 in
    List.filter_map
      (fun t ->
        let k = (t.t_workload.w_name, Abi.name t.t_abi) in
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (t.t_workload, t.t_abi)
        end)
      pending
  in
  let ref_cells =
    Obs.Span.with_ obs ~parent:root "inject.references" (fun () ->
        Exec.Pool.map ~jobs ~retries ~obs
          (fun (w, abi) -> reference ~fuel:c.c_fuel ?deadline_s:c.c_deadline_s w abi)
          pairs)
  in
  let ref_tbl = Hashtbl.create 32 in
  List.iter2
    (fun (w, abi) (cell : _ Exec.Pool.cell) ->
      Hashtbl.replace ref_tbl (w.w_name, Abi.name abi)
        (match cell.Exec.Pool.result with
        | Ok r -> Ok r
        | Error e -> Error e.Exec.Pool.exn))
    pairs ref_cells;
  let on_result (cell : _ Exec.Pool.cell) =
    (match cell.Exec.Pool.result with
    | Ok rec_ ->
        Journal.record journal rec_;
        Obs.Counter.incr m_tasks;
        Obs.Counter.incr (m_verdict rec_.verdict)
    | Error _ -> Obs.Counter.incr m_errors);
    Obs.Histogram.observe m_task_s cell.Exec.Pool.elapsed_s;
    Obs.Progress.finish progress cell.Exec.Pool.elapsed_s
      ?verdict:(Result.to_option (Result.map (fun r -> verdict_key r.verdict) cell.Exec.Pool.result))
  in
  let cells =
    match slice with
    | None ->
        Exec.Pool.map ~jobs ~retries ~obs ~on_result
          (fun t ->
            match Hashtbl.find ref_tbl (t.t_workload.w_name, Abi.name t.t_abi) with
            | Ok r ->
                Obs.Span.with_ obs ~parent:root ("inject.task:" ^ key_of t) (fun () ->
                    run_one ~fuel:c.c_fuel ?deadline_s:c.c_deadline_s r t.t_kind t.t_seed)
            | Error e -> failwith ("reference run failed: " ^ e))
          pending
    | Some n ->
        let n = max 1 n in
        let task_span = function
          | S_done _ -> Obs.Span.none
          | S_replay { ctx; _ } | S_post { ctx; _ } -> ctx.x_span
        in
        Exec.Pool.map_sliced ~jobs ~retries ~obs ~on_result
          ~init:(init_sliced ~resume ~deadline_s:c.c_deadline_s ~obs ~root ref_tbl key_of)
          ~slice:(fun st ->
            let span = task_span st in
            let parent = if Obs.Span.id span = 0 then root else span in
            let progress =
              Obs.Span.with_ obs ~parent "inject.slice" (fun () ->
                  slice_sliced ~slice:n ~fuel:c.c_fuel ?deadline_s:c.c_deadline_s ~checkpoint
                    st)
            in
            (match progress with
            | Exec.Pool.Done _ -> Obs.Span.exit obs span
            | Exec.Pool.Yield _ -> ());
            progress)
          pending
  in
  Journal.close journal;
  (* in-flight sidecars are only meaningful for tasks that did not
     finish; drop the ones whose task has a record *)
  Option.iter
    (fun ckpt ->
      List.iter
        (fun t ->
          let key = key_of t in
          if Option.is_some (Journal.find journal key) then
            Resumable.discard (sidecar_path ckpt key))
        all)
    checkpoint;
  let errors = ref [] in
  List.iter2
    (fun t (cell : _ Exec.Pool.cell) ->
      match cell.Exec.Pool.result with
      | Ok _ -> ()
      | Error e ->
          errors :=
            {
              e_workload = t.t_workload.w_name;
              e_abi = Abi.name t.t_abi;
              e_kind = t.t_kind;
              e_seed = t.t_seed;
              e_exn = e.Exec.Pool.exn;
            }
            :: !errors)
    pending cells;
  let records = List.filter_map (fun t -> Journal.find journal (key_of t)) all in
  Obs.Span.exit obs root;
  let report =
    {
      r_campaign = c;
      r_records = records;
      r_errors = List.rev !errors;
      r_resumed = List.length resumed;
      r_jobs = jobs;
      r_wall_s = Unix.gettimeofday () -. start;
      r_task_seconds = Obs.Progress.walls progress;
    }
  in
  Obs.Progress.force progress;
  report

(* -- reporting -------------------------------------------------------------- *)

let error_json e =
  Printf.sprintf "{\"workload\":\"%s\",\"abi\":\"%s\",\"kind\":\"%s\",\"seed\":%d,\"exn\":\"%s\"}"
    (esc e.e_workload) (esc e.e_abi) (kind_key e.e_kind) e.e_seed (esc e.e_exn)

let cell_json ((abi, kind), c) =
  Printf.sprintf
    "{\"abi\":\"%s\",\"kind\":\"%s\",\"detected\":%d,\"masked\":%d,\"silent\":%d,\"hang\":%d}"
    (esc abi) (kind_key kind) c.n_detected c.n_masked c.n_silent c.n_hung

(* The report JSON is deliberately timing-free apart from the one
   "timing" key, dropped with [~timing:false]: a resumed campaign must
   produce a byte-identical file once timing is excluded. *)
let report_json ?(timing = true) (r : report) : string =
  let c = r.r_campaign in
  Printf.sprintf
    "{\n\
    \  \"schema\": \"cheri_c.inject/v1\",\n\
    \  \"workloads\": [%s],\n\
    \  \"abis\": [%s],\n\
    \  \"kinds\": [%s],\n\
    \  \"seeds\": %d,\n\
    \  \"first_seed\": %d,\n\
    \  \"fuel\": %d,\n\
    \  \"tasks\": %d,\n\
    \  \"completed\": %d,\n%s\
    \  \"errors\": [%s],\n\
    \  \"matrix\": [\n    %s\n  ],\n\
    \  \"records\": [\n    %s\n  ]\n\
     }\n"
    (String.concat ", " (List.map (fun w -> "\"" ^ esc w.w_name ^ "\"") c.c_workloads))
    (String.concat ", " (List.map (fun a -> "\"" ^ esc (Abi.name a) ^ "\"") Abi.all))
    (String.concat ", " (List.map (fun k -> "\"" ^ kind_key k ^ "\"") c.c_kinds))
    c.c_seeds c.c_first_seed c.c_fuel
    (List.length (tasks c))
    (List.length r.r_records)
    (if timing then
       Printf.sprintf "  \"timing\": %s,\n"
         (Obs.timing_json ~jobs:r.r_jobs ~wall_s:r.r_wall_s r.r_task_seconds)
     else "")
    (String.concat "," (List.map error_json r.r_errors))
    (String.concat ",\n    " (List.map cell_json (matrix r)))
    (String.concat ",\n    " (List.map record_json r.r_records))

(* silent-corruption count for one ABI over a set of kinds — the
   acceptance check behind the detection matrix *)
let silent_count (r : report) ~abi kinds =
  List.fold_left
    (fun acc ((a, k), c) -> if a = abi && List.mem k kinds then acc + c.n_silent else acc)
    0 (matrix r)

let pp_report ppf (r : report) =
  let c = r.r_campaign in
  Format.fprintf ppf
    "injection campaign: %d workloads x %d ABIs x %d kinds x %d seeds = %d tasks@."
    (List.length c.c_workloads) (List.length Abi.all) (List.length c.c_kinds) c.c_seeds
    (List.length (tasks c));
  if r.r_resumed > 0 then
    Format.fprintf ppf "resumed: %d tasks restored from the checkpoint@." r.r_resumed;
  Format.fprintf ppf "%-10s %-12s %9s %7s %7s %5s@." "abi" "kind" "detected" "masked"
    "silent" "hang";
  List.iter
    (fun ((abi, kind), c) ->
      Format.fprintf ppf "%-10s %-12s %9d %7d %7d %5d@." abi (kind_key kind) c.n_detected
        c.n_masked c.n_silent c.n_hung)
    (matrix r);
  List.iter
    (fun e ->
      Format.fprintf ppf "error: %s/%s %s seed %d: %s@." e.e_workload e.e_abi
        (kind_key e.e_kind) e.e_seed e.e_exn)
    r.r_errors;
  Format.fprintf ppf "wall %.2fs on %d jobs@." r.r_wall_s r.r_jobs
