(* Schema-aware diff over the committed BENCH_PR*.json trajectory.

   The gate is deliberately structural: each legacy schema family
   declares which result fields are gated and in which direction,
   cells are keyed by workload (and ABI where present); a perfbench
   result takes all of that from the BENCHMARK.json spec. The
   comparison is a pure function over parsed documents — the CLI in
   bench/main.ml only reads the files and maps the outcome to an exit
   code. *)

module Json = Cheri_util.Json

type direction = Higher_better | Lower_better

type metric = {
  m_cell : string;
  m_name : string;
  m_dir : direction;
  m_old : float;
  m_new : float;
  m_delta_pct : float;
  m_bound_pct : float;
  m_regressed : bool;
}

type outcome = {
  o_family : string;
  o_threshold_pct : float option;
  o_metrics : metric list;
  o_missing : string list;
  o_failures : string list;
  o_regressed : bool;
}

(* ---------- schema table ---------- *)

(* (field, direction) gated per results[] cell, and whether the cell
   key includes the abi field *)
type family_spec = {
  f_name : string;
  f_cell_fields : (string * direction) list;
  f_key_abi : bool;
  f_slicing : (string * direction) list;  (* fields of the top-level "slicing" object *)
}

let families =
  [
    {
      f_name = "cheri_c.bench";
      f_cell_fields = [ ("cycles", Lower_better); ("instret", Lower_better) ];
      f_key_abi = true;
      f_slicing = [];
    };
    {
      f_name = "cheri_c.bench-perf";
      f_cell_fields =
        [
          ("cycles", Lower_better);
          ("instret", Lower_better);
          ("insn_per_s", Higher_better);
          ("minor_words_per_insn", Lower_better);
        ];
      f_key_abi = true;
      f_slicing = [];
    };
    {
      f_name = "cheri_c.snap-bench";
      f_cell_fields =
        [ ("save_ms", Lower_better); ("restore_ms", Lower_better); ("bytes", Lower_better) ];
      f_key_abi = false;
      f_slicing =
        [
          ("insn_per_s_flat", Higher_better);
          ("insn_per_s_sliced", Higher_better);
          ("ratio", Higher_better);
        ];
    };
    (* the multi-tenant service (BENCH_PR8, BENCH_PR10): cells are
       heterogeneous — "sustained" carries throughput/latency,
       "recovery" carries post-kill recovery time — and extract
       already drops fields a cell does not have *)
    {
      f_name = "cheri_c.serve-bench";
      f_cell_fields =
        [
          ("jobs_per_s", Higher_better);
          ("p50_ms", Lower_better);
          ("p99_ms", Lower_better);
          ("recovery_ms", Lower_better);
        ];
      f_key_abi = false;
      f_slicing = [];
    };
  ]

(* perfbench results (BENCH_PR16 on): cells and metrics come from
   the BENCHMARK.json spec, never from a table here *)
let trajectory = "perfbench-trajectory"

type family = Legacy of family_spec | Trajectory

let family_of_schema schema =
  let base =
    match String.index_opt schema '/' with Some i -> String.sub schema 0 i | None -> schema
  in
  if base = trajectory then Some Trajectory
  else Option.map (fun f -> Legacy f) (List.find_opt (fun f -> f.f_name = base) families)

let family_name = function Legacy f -> f.f_name | Trajectory -> trajectory

let ( let* ) = Result.bind

(* [f] over [l], stopping at the first error *)
let all f l =
  List.fold_right (fun x acc -> let* acc = acc in let* y = f x in Ok (y :: acc)) l (Ok [])

let cell_key spec cell =
  match Json.mem_str "workload" cell with
  | None -> None
  | Some w ->
      if spec.f_key_abi then
        match Json.mem_str "abi" cell with Some a -> Some (w ^ "/" ^ a) | None -> None
      else Some w

(* (cell key, field, dir, value) for every gated value in the doc *)
let extract spec doc =
  let cells =
    match Option.bind (Json.member "results" doc) Json.to_list with Some l -> l | None -> []
  in
  let of_cell cell =
    match cell_key spec cell with
    | None -> []
    | Some key ->
        List.filter_map
          (fun (field, dir) ->
            Option.map (fun v -> (key, field, dir, v)) (Json.mem_float field cell))
          spec.f_cell_fields
  in
  let slicing =
    match Json.member "slicing" doc with
    | Some s when spec.f_slicing <> [] ->
        List.filter_map
          (fun (field, dir) ->
            Option.map (fun v -> ("slicing", field, dir, v)) (Json.mem_float field s))
          spec.f_slicing
    | _ -> []
  in
  List.concat_map of_cell cells @ slicing

let metric ~cell ~name ~dir ~bound_pct v_old v_new =
  (* positive delta = moved in the regressed direction *)
  let delta_pct =
    if v_old = 0. then if v_new = 0. then 0. else infinity
    else
      let change = (v_new -. v_old) /. Float.abs v_old *. 100. in
      match dir with Lower_better -> change | Higher_better -> -.change
  in
  {
    m_cell = cell;
    m_name = name;
    m_dir = dir;
    m_old = v_old;
    m_new = v_new;
    m_delta_pct = delta_pct;
    m_bound_pct = bound_pct;
    m_regressed = delta_pct > bound_pct;
  }

let outcome ~family ~threshold_pct ~quick ~metrics ~missing ~failures =
  {
    o_family = family;
    o_threshold_pct = threshold_pct;
    o_metrics = metrics;
    o_missing = missing;
    o_failures = failures;
    o_regressed =
      List.exists (fun m -> m.m_regressed) metrics
      || failures <> []
      || ((not quick) && missing <> []);
  }

let diff_legacy ~threshold_pct ~quick spec old_doc new_doc =
  let olds = extract spec old_doc in
  let news = extract spec new_doc in
  if olds = [] then Error "OLD: no gated metrics found"
  else begin
    let lookup (key, field) =
      List.find_map
        (fun (k, f, _, v) -> if k = key && f = field then Some v else None)
        news
    in
    let metrics, missing =
      List.fold_left
        (fun (ms, miss) (key, field, dir, v_old) ->
          match lookup (key, field) with
          | None -> (ms, if List.mem key miss then miss else key :: miss)
          | Some v_new ->
              (metric ~cell:key ~name:field ~dir ~bound_pct:threshold_pct v_old v_new :: ms, miss))
        ([], []) olds
    in
    Ok
      (outcome ~family:spec.f_name ~threshold_pct:(Some threshold_pct) ~quick
         ~metrics:(List.rev metrics) ~missing:(List.rev missing) ~failures:[])
  end

(* ---------- perfbench-trajectory ---------- *)

(* what BENCHMARK.json gates: workload names, and each end-to-end
   metric's (name, direction, bound as a fraction) *)
type gate = { g_workloads : string list; g_metrics : (string * direction * float) list }

let gate_of_spec spec =
  Result.map_error (fun e -> "BENCHMARK.json: " ^ e)
  @@
  let* doc = Json.parse spec in
  let list key =
    Option.to_result ~none:(Printf.sprintf "no %S list" key)
      (Option.bind (Json.member key doc) Json.to_list)
  in
  let* ws = list "workloads" in
  let* ms = list "end_to_end" in
  let* g_workloads =
    all (fun w -> Option.to_result ~none:"a workload has no name" (Json.mem_str "name" w)) ws
  in
  let* g_metrics =
    all
      (fun m ->
        match (Json.mem_str "name" m, Json.mem_str "better" m, Json.mem_float "bound" m) with
        | Some n, Some "lower", Some b when b >= 0. -> Ok (n, Lower_better, b)
        | Some n, Some "higher", Some b when b >= 0. -> Ok (n, Higher_better, b)
        | _ -> Error "an end_to_end entry needs a name, better (lower|higher) and a bound >= 0")
      ms
  in
  if g_workloads = [] || g_metrics = [] then Error "gates no workload or no metric"
  else Ok { g_workloads; g_metrics }

type side = { correct : bool; failed_share : float; values : float list }

(* one file's [change.<w>], or [None] when the workload is absent *)
let read_side label gate doc w =
  match Option.bind (Json.member "change" doc) (Json.member w) with
  | None -> Ok None
  | Some r ->
      let need what conv path =
        let rec dig j = function
          | [] -> conv j
          | k :: ks -> Option.bind (Json.member k j) (fun j -> dig j ks)
        in
        Option.to_result
          ~none:(Printf.sprintf "%s: change.%s.%s is not %s" label w (String.concat "." path) what)
          (dig r path)
      in
      let* correct = need "a boolean" Json.to_bool [ "correct" ] in
      let* attempted = need "a number" Json.to_float [ "attempted" ] in
      let* failed = need "a number" Json.to_float [ "failed" ] in
      let* values =
        all
          (fun (name, _, _) -> need "a number" Json.to_float [ "metrics"; name; "value" ])
          gate.g_metrics
      in
      let failed_share = if attempted > 0. then failed /. attempted else 0. in
      Ok (Some { correct; failed_share; values })

let diff_trajectory ~quick ~spec old_doc new_doc =
  let* gate = gate_of_spec spec in
  let* cells =
    all
      (fun w ->
        let* o = read_side "OLD" gate old_doc w in
        let* n = read_side "NEW" gate new_doc w in
        Ok (w, o, n))
      gate.g_workloads
  in
  let both = List.filter_map (function w, Some o, Some n -> Some (w, o, n) | _ -> None) cells in
  let missing = List.filter_map (function w, Some _, None -> Some w | _ -> None) cells in
  let metrics =
    List.concat_map
      (fun (w, o, n) ->
        List.map2
          (fun (name, dir, bound) (v_old, v_new) ->
            metric ~cell:w ~name ~dir ~bound_pct:(bound *. 100.) v_old v_new)
          gate.g_metrics (List.combine o.values n.values))
      both
  in
  let failures =
    List.concat_map
      (fun (w, o, n) ->
        (if n.correct then [] else [ w ^ ": correct is false" ])
        @
        if n.failed_share > o.failed_share then
          [ Printf.sprintf "%s: failed share %g, OLD %g" w n.failed_share o.failed_share ]
        else [])
      both
  in
  if both = [] && missing = [] then Error "OLD: no gated workload found"
  else Ok (outcome ~family:trajectory ~threshold_pct:None ~quick ~metrics ~missing ~failures)

let diff ?threshold_pct ?(quick = false) ?spec ~old_json ~new_json () =
  let parse label s =
    match Json.parse s with Ok j -> Ok j | Error e -> Error (Printf.sprintf "%s: %s" label e)
  in
  let* old_doc = parse "OLD" old_json in
  let* new_doc = parse "NEW" new_json in
  let schema_of label doc =
    match Json.mem_str "schema" doc with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: no \"schema\" field" label)
  in
  let* old_schema = schema_of "OLD" old_doc in
  let* new_schema = schema_of "NEW" new_doc in
  match (family_of_schema old_schema, family_of_schema new_schema) with
  | Some a, Some b when family_name a <> family_name b ->
      Error (Printf.sprintf "schema families differ: %s vs %s" (family_name a) (family_name b))
  | Some (Legacy f), Some _ ->
      diff_legacy ~threshold_pct:(Option.value threshold_pct ~default:10.) ~quick f old_doc new_doc
  | Some Trajectory, Some _ -> (
      match (threshold_pct, spec) with
      | Some _, _ ->
          Error "--threshold does not apply to perfbench-trajectory: bounds come from BENCHMARK.json"
      | None, None -> Error "perfbench-trajectory: no BENCHMARK.json spec"
      | None, Some spec -> diff_trajectory ~quick ~spec old_doc new_doc)
  | None, _ -> Error (Printf.sprintf "OLD: unsupported schema %s" old_schema)
  | _, None -> Error (Printf.sprintf "NEW: unsupported schema %s" new_schema)

let pp_outcome ppf o =
  let regressions = List.filter (fun m -> m.m_regressed) o.o_metrics in
  Format.fprintf ppf "@[<v>bench compare (%s, %s): %d metrics, %d regressed" o.o_family
    (match o.o_threshold_pct with
    | Some t -> Printf.sprintf "threshold %g%%" t
    | None -> "bounds from BENCHMARK.json")
    (List.length o.o_metrics) (List.length regressions);
  List.iter
    (fun m ->
      Format.fprintf ppf "@,  REGRESSED %s %s: %g -> %g (%+.1f%% %s%s)" m.m_cell m.m_name m.m_old
        m.m_new m.m_delta_pct
        (match m.m_dir with Lower_better -> "higher is worse" | Higher_better -> "lower is worse")
        (if o.o_threshold_pct = None then Printf.sprintf ", bound %g%%" m.m_bound_pct else ""))
    regressions;
  List.iter (fun c -> Format.fprintf ppf "@,  MISSING cell %s (present in OLD, absent in NEW)" c)
    o.o_missing;
  List.iter (fun f -> Format.fprintf ppf "@,  FAILED %s" f) o.o_failures;
  (if not o.o_regressed then
     let worst =
       List.fold_left (fun acc m -> Float.max acc m.m_delta_pct) neg_infinity o.o_metrics
     in
     if worst > neg_infinity then Format.fprintf ppf "@,  ok (worst delta %+.1f%%)" worst);
  Format.fprintf ppf "@]"

(* ---------- the self-test's synthetic regression ---------- *)

let worsen factor dir v =
  match dir with Lower_better -> v *. (1. +. factor) | Higher_better -> v *. (1. -. factor)

let doctor_worsen ?factor ?spec s =
  let* doc = Json.parse s in
  let* family =
    Option.to_result ~none:"unsupported schema"
      (Option.bind (Json.mem_str "schema" doc) family_of_schema)
  in
  let num f j = match Json.to_float j with Some v -> Json.Num (Json.number (f v)) | None -> j in
  match family with
  | Legacy spec ->
      let factor = Option.value factor ~default:0.2 in
      let doctor_obj fields j =
        match j with
        | Json.Obj kvs ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   match List.assoc_opt k fields with
                   | Some dir -> (k, num (worsen factor dir) v)
                   | None -> (k, v))
                 kvs)
        | _ -> j
      in
      let doc' =
        match doc with
        | Json.Obj kvs ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   match (k, v) with
                   | "results", Json.Arr cells ->
                       (k, Json.Arr (List.map (doctor_obj spec.f_cell_fields) cells))
                   | "slicing", _ when spec.f_slicing <> [] -> (k, doctor_obj spec.f_slicing v)
                   | _ -> (k, v))
                 kvs)
        | other -> other
      in
      Ok (Json.encode doc', factor)
  | Trajectory ->
      let* spec = Option.to_result ~none:"perfbench-trajectory: no BENCHMARK.json spec" spec in
      let* gate = gate_of_spec spec in
      (* past every bound, or the self-test would pass without biting *)
      let factor =
        Option.value factor
          ~default:(List.fold_left (fun acc (_, _, b) -> Float.max acc b) 0. gate.g_metrics +. 0.1)
      in
      let rec update path f j =
        match (path, j) with
        | [], _ -> f j
        | k :: ks, Json.Obj kvs ->
            Json.Obj (List.map (fun (k', v) -> (k', if k' = k then update ks f v else v)) kvs)
        | _ -> j
      in
      let doc' =
        List.fold_left
          (fun doc w ->
            List.fold_left
              (fun doc (name, dir, _) ->
                update [ "change"; w; "metrics"; name; "value" ] (num (worsen factor dir)) doc)
              doc gate.g_metrics)
          doc gate.g_workloads
      in
      Ok (Json.encode doc', factor)
