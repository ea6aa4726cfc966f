(* The bench regression gate: one perfbench result's change side
   against its own parent side, with everything gated read from the
   BENCHMARK.json spec. The comparison is a pure function over parsed
   documents — the CLI in bench/main.ml only reads the files and maps
   the outcome to an exit code. *)

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

type outcome = { o_metrics : metric list; o_failures : string list; o_regressed : bool }

let schema = "perfbench-trajectory/v1"

let ( let* ) = Result.bind

(* [f] over [l], stopping at the first error *)
let all f l =
  List.fold_right (fun x acc -> let* acc = acc in let* y = f x in Ok (y :: acc)) l (Ok [])

let metric ~cell ~name ~dir ~bound_pct v_old v_new =
  (* positive delta = moved in the regressed direction; from a zero
     parent value any move is infinite, in its own direction *)
  let worse = match dir with Lower_better -> v_new -. v_old | Higher_better -> v_old -. v_new in
  let delta_pct =
    if v_old = 0. then if worse = 0. then 0. else Float.copy_sign infinity worse
    else worse /. Float.abs v_old *. 100.
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

(* the spec's gate and the parsed document, once its schema is checked *)
let parse ~spec json =
  let* gate = gate_of_spec spec in
  let* doc = Json.parse json in
  match Json.mem_str "schema" doc with
  | Some s when s = schema -> Ok (gate, doc)
  | Some s -> Error (Printf.sprintf "unsupported schema %s (want %s)" s schema)
  | None -> Error "no \"schema\" field"

type side = { correct : bool; failed_share : float; values : float list }

(* [<side>.<w>] of the document; a gated workload must be on both sides *)
let read_side gate doc side w =
  let* r =
    Option.to_result ~none:(Printf.sprintf "%s.%s is missing" side w)
      (Option.bind (Json.member side doc) (Json.member w))
  in
  let need what conv path =
    let rec dig j = function
      | [] -> conv j
      | k :: ks -> Option.bind (Json.member k j) (fun j -> dig j ks)
    in
    Option.to_result
      ~none:(Printf.sprintf "%s.%s.%s is not %s" side w (String.concat "." path) what)
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
  Ok { correct; failed_share; values }

let diff ~spec json =
  let* gate, doc = parse ~spec json in
  let* cells =
    all
      (fun w ->
        let* p = read_side gate doc "parent" w in
        let* c = read_side gate doc "change" w in
        Ok (w, p, c))
      gate.g_workloads
  in
  let metrics =
    List.concat_map
      (fun (w, p, c) ->
        List.map2
          (fun (name, dir, bound) (v_old, v_new) ->
            metric ~cell:w ~name ~dir ~bound_pct:(bound *. 100.) v_old v_new)
          gate.g_metrics (List.combine p.values c.values))
      cells
  in
  let failures =
    List.concat_map
      (fun (w, p, c) ->
        (if c.correct then [] else [ w ^ ": correct is false" ])
        @
        if c.failed_share > p.failed_share then
          [ Printf.sprintf "%s: failed share %g, parent %g" w c.failed_share p.failed_share ]
        else [])
      cells
  in
  Ok
    {
      o_metrics = metrics;
      o_failures = failures;
      o_regressed = failures <> [] || List.exists (fun m -> m.m_regressed) metrics;
    }

let pp_outcome ppf o =
  let regressions = List.filter (fun m -> m.m_regressed) o.o_metrics in
  Format.fprintf ppf
    "@[<v>bench compare (change vs parent, bounds from BENCHMARK.json): %d metrics, %d regressed"
    (List.length o.o_metrics) (List.length regressions);
  List.iter
    (fun m ->
      Format.fprintf ppf "@,  REGRESSED %s %s: %g -> %g (%+.1f%% %s, bound %g%%)" m.m_cell
        m.m_name m.m_old m.m_new m.m_delta_pct
        (match m.m_dir with Lower_better -> "higher is worse" | Higher_better -> "lower is worse")
        m.m_bound_pct)
    regressions;
  List.iter (fun f -> Format.fprintf ppf "@,  FAILED %s" f) o.o_failures;
  (match o.o_metrics with
  | [] -> ()
  | m0 :: ms ->
      let w = List.fold_left (fun a m -> if m.m_delta_pct > a.m_delta_pct then m else a) m0 ms in
      Format.fprintf ppf "@,  %s (worst delta %+.1f%%: %s %s, bound %g%%)"
        (if o.o_regressed then "regressed" else "ok")
        w.m_delta_pct w.m_cell w.m_name w.m_bound_pct);
  Format.fprintf ppf "@]"

(* ---------- the bite check's synthetic regression ---------- *)

let worsen factor dir v =
  match dir with Lower_better -> v *. (1. +. factor) | Higher_better -> v *. (1. -. factor)

let doctor_worsen ?factor ~spec json =
  let* gate, doc = parse ~spec json in
  (* past every bound, or the bite check would pass without biting *)
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
  let num f j = match Json.to_float j with Some v -> Json.Num (Json.number (f v)) | None -> j in
  (* the parent becomes the change side: a change far better than its
     parent, worsened by [factor] alone, would still pass *)
  let doc =
    match Json.member "change" doc with
    | Some change -> update [ "parent" ] (fun _ -> change) doc
    | None -> doc
  in
  let doc =
    List.fold_left
      (fun doc w ->
        List.fold_left
          (fun doc (name, dir, _) ->
            update [ "change"; w; "metrics"; name; "value" ] (num (worsen factor dir)) doc)
          doc gate.g_metrics)
      doc gate.g_workloads
  in
  Ok (Json.encode doc, factor)
