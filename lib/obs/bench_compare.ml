(* Schema-aware diff over the committed BENCH_PR*.json trajectory.

   The gate is deliberately structural: each schema family declares
   which result fields are gated and in which direction, cells are
   keyed by workload (and ABI where present), and the comparison is a
   pure function over two parsed documents — the CLI in bench/main.ml
   only maps the outcome to an exit code. *)

module Json = Cheri_util.Json

type direction = Higher_better | Lower_better

type metric = {
  m_cell : string;
  m_name : string;
  m_dir : direction;
  m_old : float;
  m_new : float;
  m_delta_pct : float;
  m_regressed : bool;
}

type outcome = {
  o_family : string;
  o_threshold_pct : float;
  o_metrics : metric list;
  o_missing : string list;
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
    (* the multi-tenant service (bench/main.exe serve): cells are
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

let family_of_schema schema =
  let base =
    match String.index_opt schema '/' with Some i -> String.sub schema 0 i | None -> schema
  in
  List.find_opt (fun f -> f.f_name = base) families

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

let diff ?(threshold_pct = 10.) ?(quick = false) ~old_json ~new_json () =
  let ( let* ) = Result.bind in
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
  let* spec =
    match (family_of_schema old_schema, family_of_schema new_schema) with
    | Some a, Some b when a.f_name = b.f_name -> Ok a
    | Some a, Some b ->
        Error (Printf.sprintf "schema families differ: %s vs %s" a.f_name b.f_name)
    | None, _ -> Error (Printf.sprintf "OLD: unsupported schema %s" old_schema)
    | _, None -> Error (Printf.sprintf "NEW: unsupported schema %s" new_schema)
  in
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
              (* positive delta = moved in the regressed direction *)
              let delta_pct =
                if v_old = 0. then if v_new = 0. then 0. else infinity
                else
                  let change = (v_new -. v_old) /. Float.abs v_old *. 100. in
                  match dir with Lower_better -> change | Higher_better -> -.change
              in
              let m =
                {
                  m_cell = key;
                  m_name = field;
                  m_dir = dir;
                  m_old = v_old;
                  m_new = v_new;
                  m_delta_pct = delta_pct;
                  m_regressed = delta_pct > threshold_pct;
                }
              in
              (m :: ms, miss))
        ([], []) olds
    in
    let metrics = List.rev metrics and missing = List.rev missing in
    let regressed =
      List.exists (fun m -> m.m_regressed) metrics || ((not quick) && missing <> [])
    in
    Ok
      {
        o_family = spec.f_name;
        o_threshold_pct = threshold_pct;
        o_metrics = metrics;
        o_missing = missing;
        o_regressed = regressed;
      }
  end

let pp_outcome ppf o =
  let regressions = List.filter (fun m -> m.m_regressed) o.o_metrics in
  Format.fprintf ppf "@[<v>bench compare (%s, threshold %g%%): %d metrics, %d regressed"
    o.o_family o.o_threshold_pct (List.length o.o_metrics) (List.length regressions);
  List.iter
    (fun m ->
      Format.fprintf ppf "@,  REGRESSED %s %s: %g -> %g (%+.1f%% %s)" m.m_cell m.m_name m.m_old
        m.m_new m.m_delta_pct
        (match m.m_dir with Lower_better -> "higher is worse" | Higher_better -> "lower is worse"))
    regressions;
  List.iter (fun c -> Format.fprintf ppf "@,  MISSING cell %s (present in OLD, absent in NEW)" c)
    o.o_missing;
  (if not o.o_regressed then
     let worst =
       List.fold_left (fun acc m -> Float.max acc m.m_delta_pct) neg_infinity o.o_metrics
     in
     if worst > neg_infinity then Format.fprintf ppf "@,  ok (worst delta %+.1f%%)" worst);
  Format.fprintf ppf "@]"

(* ---------- the self-test's synthetic regression ---------- *)

let doctor_worsen ?(factor = 0.2) s =
  match Json.parse s with
  | Error e -> Error e
  | Ok doc -> (
      match Option.bind (Json.mem_str "schema" doc) family_of_schema with
      | None -> Error "unsupported schema"
      | Some spec ->
          let worsen dir v =
            match dir with
            | Lower_better -> v *. (1. +. factor)
            | Higher_better -> v *. (1. -. factor)
          in
          let doctor_obj fields j =
            match j with
            | Json.Obj kvs ->
                Json.Obj
                  (List.map
                     (fun (k, v) ->
                       match (List.assoc_opt k fields, Json.to_float v) with
                       | Some dir, Some f -> (k, Json.Num (Json.number (worsen dir f)))
                       | _ -> (k, v))
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
                       | "slicing", _ when spec.f_slicing <> [] ->
                           (k, doctor_obj spec.f_slicing v)
                       | _ -> (k, v))
                     kvs)
            | other -> other
          in
          Ok (Json.encode doc'))
