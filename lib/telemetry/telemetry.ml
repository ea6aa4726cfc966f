(* Typed event sink with a fixed-size ring buffer, monotonic counters,
   a hot-PC histogram, and summary/JSONL/Chrome-trace exporters. *)

type opcode_class =
  | Op_nop
  | Op_alu
  | Op_load
  | Op_store
  | Op_cap_load
  | Op_cap_store
  | Op_clc
  | Op_csc
  | Op_cap_query
  | Op_cap_modify
  | Op_cap_jump
  | Op_branch
  | Op_jump
  | Op_syscall
  | Op_halt

let all_opcode_classes =
  [
    Op_nop; Op_alu; Op_load; Op_store; Op_cap_load; Op_cap_store; Op_clc; Op_csc;
    Op_cap_query; Op_cap_modify; Op_cap_jump; Op_branch; Op_jump; Op_syscall; Op_halt;
  ]

let opcode_class_index = function
  | Op_nop -> 0
  | Op_alu -> 1
  | Op_load -> 2
  | Op_store -> 3
  | Op_cap_load -> 4
  | Op_cap_store -> 5
  | Op_clc -> 6
  | Op_csc -> 7
  | Op_cap_query -> 8
  | Op_cap_modify -> 9
  | Op_cap_jump -> 10
  | Op_branch -> 11
  | Op_jump -> 12
  | Op_syscall -> 13
  | Op_halt -> 14

let n_opcode_classes = List.length all_opcode_classes

let opcode_class_name = function
  | Op_nop -> "nop"
  | Op_alu -> "alu"
  | Op_load -> "load"
  | Op_store -> "store"
  | Op_cap_load -> "cap_load"
  | Op_cap_store -> "cap_store"
  | Op_clc -> "clc"
  | Op_csc -> "csc"
  | Op_cap_query -> "cap_query"
  | Op_cap_modify -> "cap_modify"
  | Op_cap_jump -> "cap_jump"
  | Op_branch -> "branch"
  | Op_jump -> "jump"
  | Op_syscall -> "syscall"
  | Op_halt -> "halt"

type fault_kind =
  | F_tag
  | F_bounds
  | F_perm
  | F_length
  | F_align
  | F_repr
  | F_seal
  | F_unsupported
  | F_overflow
  | F_div_zero
  | F_bus
  | F_unresolved
  | F_bad_syscall
  | F_oom
  | F_bad_free
  | F_pc_range
  | F_model

let all_fault_kinds =
  [
    F_tag; F_bounds; F_perm; F_length; F_align; F_repr; F_seal; F_unsupported;
    F_overflow; F_div_zero; F_bus; F_unresolved; F_bad_syscall; F_oom; F_bad_free;
    F_pc_range; F_model;
  ]

let fault_kind_index = function
  | F_tag -> 0
  | F_bounds -> 1
  | F_perm -> 2
  | F_length -> 3
  | F_align -> 4
  | F_repr -> 5
  | F_seal -> 6
  | F_unsupported -> 7
  | F_overflow -> 8
  | F_div_zero -> 9
  | F_bus -> 10
  | F_unresolved -> 11
  | F_bad_syscall -> 12
  | F_oom -> 13
  | F_bad_free -> 14
  | F_pc_range -> 15
  | F_model -> 16

let n_fault_kinds = List.length all_fault_kinds

let fault_kind_name = function
  | F_tag -> "tag_violation"
  | F_bounds -> "bounds_violation"
  | F_perm -> "perm_violation"
  | F_length -> "length_violation"
  | F_align -> "alignment_violation"
  | F_repr -> "representation_violation"
  | F_seal -> "seal_violation"
  | F_unsupported -> "unsupported"
  | F_overflow -> "signed_overflow"
  | F_div_zero -> "div_by_zero"
  | F_bus -> "bus_error"
  | F_unresolved -> "unresolved_operand"
  | F_bad_syscall -> "invalid_syscall"
  | F_oom -> "out_of_memory"
  | F_bad_free -> "invalid_free"
  | F_pc_range -> "pc_out_of_range"
  | F_model -> "model_fault"

let fault_kind_of_cap : Cheri_core.Cap_fault.t -> fault_kind = function
  | Cheri_core.Cap_fault.Tag_violation -> F_tag
  | Bounds_violation _ -> F_bounds
  | Perm_violation _ -> F_perm
  | Length_violation -> F_length
  | Alignment_violation _ -> F_align
  | Representation_violation -> F_repr
  | Seal_violation _ -> F_seal
  | Unsupported _ -> F_unsupported

type event =
  | Instret of { pc : int; cls : opcode_class }
  | Fault of { pc : int; kind : fault_kind; detail : string }
  | Tag_write of { addr : int64; tag : bool }
  | Tag_clear of { addr : int64 }
  | Syscall of { pc : int; number : int64 }
  | Alloc of { base : int64; size : int64 }
  | Free of { base : int64 }
  | Cache_miss of { level : int; addr : int64 }
  | Idiom_case of { model : string; idiom : string; result : string }
  | Custom of { name : string; detail : string }

let pp_event ppf = function
  | Instret { pc; cls } -> Format.fprintf ppf "instret pc=%d %s" pc (opcode_class_name cls)
  | Fault { pc; kind; detail } ->
      Format.fprintf ppf "fault pc=%d %s%s" pc (fault_kind_name kind)
        (if detail = "" then "" else ": " ^ detail)
  | Tag_write { addr; tag } -> Format.fprintf ppf "tag_write 0x%Lx tag=%b" addr tag
  | Tag_clear { addr } -> Format.fprintf ppf "tag_clear 0x%Lx" addr
  | Syscall { pc; number } -> Format.fprintf ppf "syscall pc=%d n=%Ld" pc number
  | Alloc { base; size } -> Format.fprintf ppf "alloc 0x%Lx size=%Ld" base size
  | Free { base } -> Format.fprintf ppf "free 0x%Lx" base
  | Cache_miss { level; addr } -> Format.fprintf ppf "l%d_miss 0x%Lx" level addr
  | Idiom_case { model; idiom; result } ->
      Format.fprintf ppf "idiom %s/%s: %s" model idiom result
  | Custom { name; detail } ->
      Format.fprintf ppf "%s%s" name (if detail = "" then "" else ": " ^ detail)

(* -- the sink ------------------------------------------------------------ *)

module Sink = struct
  type t = {
    enabled : bool;
    capacity : int;
    ring : (int * event) array;
    mutable total : int;  (* events ever recorded *)
    mutable seq : int;  (* fallback clock *)
    op_counts : int array;
    fault_counts : int array;
    hot : (int, int ref) Hashtbl.t;
    mutable tag_writes : int;
    mutable tag_clears : int;
    mutable syscalls : int;
    mutable allocs : int;
    mutable frees : int;
    mutable alloc_bytes : int64;
    cache_miss_counts : int array;  (* index = level - 1 *)
  }

  let make ~enabled ~capacity =
    {
      enabled;
      capacity;
      ring = Array.make (max capacity 1) (0, Custom { name = ""; detail = "" });
      total = 0;
      seq = 0;
      op_counts = Array.make n_opcode_classes 0;
      fault_counts = Array.make n_fault_kinds 0;
      hot = Hashtbl.create (if enabled then 256 else 1);
      tag_writes = 0;
      tag_clears = 0;
      syscalls = 0;
      allocs = 0;
      frees = 0;
      alloc_bytes = 0L;
      cache_miss_counts = Array.make 2 0;
    }

  let null = make ~enabled:false ~capacity:0
  let is_null t = not t.enabled

  let create ?(capacity = 4096) () =
    if capacity < 0 then invalid_arg "Telemetry.Sink.create: negative capacity";
    make ~enabled:true ~capacity

  let count t ev =
    match ev with
    | Instret { pc; cls } -> (
        t.op_counts.(opcode_class_index cls) <- t.op_counts.(opcode_class_index cls) + 1;
        match Hashtbl.find_opt t.hot pc with
        | Some r -> incr r
        | None -> Hashtbl.add t.hot pc (ref 1))
    | Fault { kind; _ } ->
        t.fault_counts.(fault_kind_index kind) <- t.fault_counts.(fault_kind_index kind) + 1
    | Tag_write _ -> t.tag_writes <- t.tag_writes + 1
    | Tag_clear _ -> t.tag_clears <- t.tag_clears + 1
    | Syscall _ -> t.syscalls <- t.syscalls + 1
    | Alloc { size; _ } ->
        t.allocs <- t.allocs + 1;
        t.alloc_bytes <- Int64.add t.alloc_bytes size
    | Free _ -> t.frees <- t.frees + 1
    | Cache_miss { level; _ } ->
        if level >= 1 && level <= 2 then
          t.cache_miss_counts.(level - 1) <- t.cache_miss_counts.(level - 1) + 1
    | Idiom_case _ | Custom _ -> ()

  let record t ?ts ev =
    if t.enabled then begin
      let ts =
        match ts with
        | Some ts -> ts
        | None ->
            t.seq <- t.seq + 1;
            t.seq
      in
      count t ev;
      if t.capacity > 0 then t.ring.(t.total mod t.capacity) <- (ts, ev);
      t.total <- t.total + 1
    end

  let total_events t = t.total
  let buffered t = min t.total t.capacity
  let dropped_events t = t.total - buffered t

  let events t =
    let n = buffered t in
    let start = t.total - n in
    List.init n (fun i -> t.ring.((start + i) mod max t.capacity 1))

  let opcode_count t cls = t.op_counts.(opcode_class_index cls)
  let fault_count t kind = t.fault_counts.(fault_kind_index kind)

  let hot_pcs ?(n = 10) t =
    let all = Hashtbl.fold (fun pc r acc -> (pc, !r) :: acc) t.hot [] in
    let sorted =
      List.sort (fun (pa, ca) (pb, cb) -> if cb <> ca then compare cb ca else compare pa pb) all
    in
    List.filteri (fun i _ -> i < n) sorted

  let tag_writes t = t.tag_writes
  let collateral_tag_clears t = t.tag_clears
  let syscalls t = t.syscalls
  let allocs t = t.allocs
  let frees t = t.frees
  let alloc_bytes t = t.alloc_bytes

  let cache_misses t ~level =
    if level < 1 || level > 2 then invalid_arg "Telemetry.Sink.cache_misses: level must be 1 or 2";
    t.cache_miss_counts.(level - 1)
end

(* -- snapshots ----------------------------------------------------------- *)

type snapshot = {
  total_events : int;
  dropped_events : int;
  opcode_counts : (opcode_class * int) list;
  fault_counts : (fault_kind * int) list;
  hot_pcs : (int * int) list;
  tag_writes : int;
  collateral_tag_clears : int;
  syscalls : int;
  allocs : int;
  frees : int;
  alloc_bytes : int64;
  l1_miss_events : int;
  l2_miss_events : int;
}

let hot_pcs_shown = 10

let snapshot (s : Sink.t) =
  let nonzero all count = List.filter_map (fun k -> match count k with 0 -> None | n -> Some (k, n)) all in
  {
    total_events = Sink.total_events s;
    dropped_events = Sink.dropped_events s;
    opcode_counts = nonzero all_opcode_classes (Sink.opcode_count s);
    fault_counts = nonzero all_fault_kinds (Sink.fault_count s);
    hot_pcs = Sink.hot_pcs ~n:hot_pcs_shown s;
    tag_writes = Sink.tag_writes s;
    collateral_tag_clears = Sink.collateral_tag_clears s;
    syscalls = Sink.syscalls s;
    allocs = Sink.allocs s;
    frees = Sink.frees s;
    alloc_bytes = Sink.alloc_bytes s;
    l1_miss_events = Sink.cache_misses s ~level:1;
    l2_miss_events = Sink.cache_misses s ~level:2;
  }

(* -- exporters ----------------------------------------------------------- *)

let pp_summary ppf (s : Sink.t) =
  let snap = snapshot s in
  Format.fprintf ppf "telemetry: %d events (%d dropped from ring)@." snap.total_events
    snap.dropped_events;
  if snap.opcode_counts <> [] then begin
    Format.fprintf ppf "instructions by class:@.";
    List.iter
      (fun (cls, n) -> Format.fprintf ppf "  %-12s%10d@." (opcode_class_name cls) n)
      snap.opcode_counts
  end;
  Format.fprintf ppf "faults by kind:%s@." (if snap.fault_counts = [] then " (none)" else "");
  List.iter
    (fun (k, n) -> Format.fprintf ppf "  %-24s%6d@." (fault_kind_name k) n)
    snap.fault_counts;
  if snap.hot_pcs <> [] then begin
    Format.fprintf ppf "hot PCs (top %d):@." (List.length snap.hot_pcs);
    List.iter (fun (pc, n) -> Format.fprintf ppf "  pc %6d%10d@." pc n) snap.hot_pcs
  end;
  Format.fprintf ppf
    "tag writes: %d  collateral tag clears: %d  syscalls: %d  allocs: %d  frees: %d  alloc bytes: \
     %Ld@."
    snap.tag_writes snap.collateral_tag_clears snap.syscalls snap.allocs snap.frees
    snap.alloc_bytes;
  Format.fprintf ppf "cache miss events: L1 %d  L2 %d@." snap.l1_miss_events snap.l2_miss_events

(* one escaper for the whole repo — kept under its historical name for
   the exporters below and their callers *)
let json_escape = Cheri_util.Json.escape

(* Bridge a run's retired-instruction and fault counters into the
   metrics registry. Called once per run with a sink snapshot — the
   machine's per-instruction hot path stays uninstrumented, so the
   null-registry perf budgets hold. Counter values depend only on what
   the machine executed, never on scheduling. *)
let obs_to_counters ?(obs = Cheri_obs.Obs.default) (s : snapshot) =
  let count name n = if n > 0 then Cheri_obs.Obs.Counter.incr ~by:n (Cheri_obs.Obs.counter obs name) in
  List.iter
    (fun (cls, n) ->
      count (Printf.sprintf "machine_insns_total{class=%S}" (opcode_class_name cls)) n)
    s.opcode_counts;
  List.iter
    (fun (kind, n) ->
      count (Printf.sprintf "machine_faults_total{kind=%S}" (fault_kind_name kind)) n)
    s.fault_counts;
  count "machine_events_total" s.total_events;
  count "machine_tag_writes_total" s.tag_writes;
  count "machine_collateral_tag_clears_total" s.collateral_tag_clears

let snapshot_to_json (s : snapshot) =
  let b = Buffer.create 512 in
  let pair_list to_name xs =
    String.concat ","
      (List.map (fun (k, n) -> Printf.sprintf "\"%s\":%d" (json_escape (to_name k)) n) xs)
  in
  Buffer.add_string b
    (Printf.sprintf "{\"total_events\":%d,\"dropped_events\":%d," s.total_events s.dropped_events);
  Buffer.add_string b
    (Printf.sprintf "\"opcode_counts\":{%s}," (pair_list opcode_class_name s.opcode_counts));
  Buffer.add_string b
    (Printf.sprintf "\"fault_counts\":{%s}," (pair_list fault_kind_name s.fault_counts));
  Buffer.add_string b
    (Printf.sprintf "\"hot_pcs\":[%s],"
       (String.concat ","
          (List.map (fun (pc, n) -> Printf.sprintf "{\"pc\":%d,\"count\":%d}" pc n) s.hot_pcs)));
  Buffer.add_string b
    (Printf.sprintf
       "\"tag_writes\":%d,\"collateral_tag_clears\":%d,\"syscalls\":%d,\"allocs\":%d,\"frees\":%d,\"alloc_bytes\":%Ld,"
       s.tag_writes s.collateral_tag_clears s.syscalls s.allocs s.frees s.alloc_bytes);
  Buffer.add_string b
    (Printf.sprintf "\"l1_miss_events\":%d,\"l2_miss_events\":%d}" s.l1_miss_events
       s.l2_miss_events);
  Buffer.contents b

(* The JSON payload shared by the JSONL and Chrome-trace emitters:
   an event name plus its arguments object. *)
let event_fields = function
  | Instret { pc; cls } ->
      ("instret", Printf.sprintf "{\"pc\":%d,\"class\":\"%s\"}" pc (opcode_class_name cls))
  | Fault { pc; kind; detail } ->
      ( "fault",
        Printf.sprintf "{\"pc\":%d,\"kind\":\"%s\",\"detail\":\"%s\"}" pc (fault_kind_name kind)
          (json_escape detail) )
  | Tag_write { addr; tag } ->
      ("tag_write", Printf.sprintf "{\"addr\":%Ld,\"tag\":%b}" addr tag)
  | Tag_clear { addr } -> ("tag_clear", Printf.sprintf "{\"addr\":%Ld}" addr)
  | Syscall { pc; number } -> ("syscall", Printf.sprintf "{\"pc\":%d,\"number\":%Ld}" pc number)
  | Alloc { base; size } -> ("alloc", Printf.sprintf "{\"base\":%Ld,\"size\":%Ld}" base size)
  | Free { base } -> ("free", Printf.sprintf "{\"base\":%Ld}" base)
  | Cache_miss { level; addr } ->
      ("cache_miss", Printf.sprintf "{\"level\":%d,\"addr\":%Ld}" level addr)
  | Idiom_case { model; idiom; result } ->
      ( "idiom_case",
        Printf.sprintf "{\"model\":\"%s\",\"idiom\":\"%s\",\"result\":\"%s\"}"
          (json_escape model) (json_escape idiom) (json_escape result) )
  | Custom { name; detail } ->
      ("custom", Printf.sprintf "{\"name\":\"%s\",\"detail\":\"%s\"}" (json_escape name)
           (json_escape detail))

let jsonl_of_events (s : Sink.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (ts, ev) ->
      let name, args = event_fields ev in
      Buffer.add_string b (Printf.sprintf "{\"ts\":%d,\"ev\":\"%s\",\"args\":%s}\n" ts name args))
    (Sink.events s);
  Buffer.contents b

let chrome_trace (s : Sink.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"cheri_c \
     softcore\"}}";
  List.iter
    (fun (ts, ev) ->
      let name, args = event_fields ev in
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":1,\"tid\":1,\"args\":%s}"
           name ts args))
    (Sink.events s);
  Buffer.add_string b "]\n";
  Buffer.contents b
