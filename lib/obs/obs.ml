(* Process-wide metrics registry with per-domain shards.

   Hot-path writes (counter incr, histogram observe) touch only a
   domain-local shard obtained through Domain.DLS — no atomics, no
   locks, no allocation after the first touch per domain. The shard
   list itself is guarded by the metric's mutex: a shard is pushed
   once when a domain first touches the metric, and readers fold over
   the list under the same mutex. A shard is just mutable cells owned
   by one writer domain; the reader may observe a value a few
   increments stale mid-run, but Domain.join publishes everything, so
   post-campaign reads (the only ones reports depend on) are exact. *)

module Json = Cheri_util.Json

let now = Unix.gettimeofday

(* ---------- counters ---------- *)

type counter_m = {
  c_name : string;
  c_live : bool;
  c_mu : Mutex.t;
  c_shards : int ref list ref;
  c_key : int ref Domain.DLS.key;
}

let make_counter ~live name =
  let mu = Mutex.create () in
  let shards = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = ref 0 in
        if live then Mutex.protect mu (fun () -> shards := s :: !shards);
        s)
  in
  { c_name = name; c_live = live; c_mu = mu; c_shards = shards; c_key = key }

let null_counter = make_counter ~live:false "null"

module Counter = struct
  type t = counter_m

  let incr ?(by = 1) c =
    if c.c_live then begin
      let s = Domain.DLS.get c.c_key in
      s := !s + by
    end

  let value c =
    if not c.c_live then 0
    else Mutex.protect c.c_mu (fun () -> List.fold_left (fun acc s -> acc + !s) 0 !(c.c_shards))
end

(* ---------- gauges ---------- *)

type gauge_m = { g_name : string; g_live : bool; g_mu : Mutex.t; mutable g_val : float }

let make_gauge ~live name = { g_name = name; g_live = live; g_mu = Mutex.create (); g_val = 0. }
let null_gauge = make_gauge ~live:false "null"

module Gauge = struct
  type t = gauge_m

  let set g v = if g.g_live then Mutex.protect g.g_mu (fun () -> g.g_val <- v)
  let value g = if not g.g_live then 0. else Mutex.protect g.g_mu (fun () -> g.g_val)
end

(* ---------- histograms ---------- *)

let default_buckets =
  [|
    1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25;
    0.5; 1.; 2.5; 5.; 10.; 30.;
  |]

type hshard = {
  hs_counts : int array;  (* one per bucket, plus the +Inf overflow slot *)
  mutable hs_sum : float;
  mutable hs_count : int;
  mutable hs_min : float;
  mutable hs_max : float;
}

type hist_m = {
  h_name : string;
  h_live : bool;
  h_buckets : float array;
  h_mu : Mutex.t;
  h_shards : hshard list ref;
  h_key : hshard Domain.DLS.key;
}

let make_hist ~live ~buckets name =
  let n = Array.length buckets in
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg (Printf.sprintf "Obs.histogram %s: buckets not strictly increasing" name)
  done;
  let mu = Mutex.create () in
  let shards = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let s =
          {
            hs_counts = Array.make (n + 1) 0;
            hs_sum = 0.;
            hs_count = 0;
            hs_min = infinity;
            hs_max = neg_infinity;
          }
        in
        if live then Mutex.protect mu (fun () -> shards := s :: !shards);
        s)
  in
  { h_name = name; h_live = live; h_buckets = buckets; h_mu = mu; h_shards = shards; h_key = key }

let null_hist = make_hist ~live:false ~buckets:default_buckets "null"

(* merged read-side view *)
type hist_view = {
  hv_buckets : float array;
  hv_counts : int array;  (* per bucket, overflow last *)
  hv_count : int;
  hv_sum : float;
  hv_min : float;
  hv_max : float;
}

let hist_view h =
  Mutex.protect h.h_mu (fun () ->
      let n = Array.length h.h_buckets in
      let counts = Array.make (n + 1) 0 in
      let sum = ref 0. and count = ref 0 and mn = ref infinity and mx = ref neg_infinity in
      List.iter
        (fun s ->
          Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.hs_counts;
          sum := !sum +. s.hs_sum;
          count := !count + s.hs_count;
          if s.hs_min < !mn then mn := s.hs_min;
          if s.hs_max > !mx then mx := s.hs_max)
        !(h.h_shards);
      {
        hv_buckets = h.h_buckets;
        hv_counts = counts;
        hv_count = !count;
        hv_sum = !sum;
        hv_min = !mn;
        hv_max = !mx;
      })

let view_quantile v q =
  if v.hv_count = 0 then nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int v.hv_count in
    let n = Array.length v.hv_buckets in
    let res = ref v.hv_max in
    let cum = ref 0. and found = ref false in
    for i = 0 to n do
      if not !found then begin
        let here = v.hv_counts.(i) in
        let cum' = !cum +. float_of_int here in
        if cum' >= target && here > 0 then begin
          let lo = if i = 0 then v.hv_min else Float.max v.hv_min v.hv_buckets.(i - 1) in
          let hi = if i = n then v.hv_max else Float.min v.hv_max v.hv_buckets.(i) in
          let frac = if here = 0 then 0. else (target -. !cum) /. float_of_int here in
          res := lo +. ((hi -. lo) *. Float.max 0. frac);
          found := true
        end;
        cum := cum'
      end
    done;
    !res
  end

module Histogram = struct
  type t = hist_m

  let observe h v =
    if h.h_live then begin
      let s = Domain.DLS.get h.h_key in
      let n = Array.length h.h_buckets in
      let i = ref 0 in
      while !i < n && v > h.h_buckets.(!i) do
        incr i
      done;
      s.hs_counts.(!i) <- s.hs_counts.(!i) + 1;
      s.hs_sum <- s.hs_sum +. v;
      s.hs_count <- s.hs_count + 1;
      if v < s.hs_min then s.hs_min <- v;
      if v > s.hs_max then s.hs_max <- v
    end

  let count h = if not h.h_live then 0 else (hist_view h).hv_count
  let sum h = if not h.h_live then 0. else (hist_view h).hv_sum
  let quantile h q = if not h.h_live then nan else view_quantile (hist_view h) q
end

let quantile_of samples q =
  match List.sort compare samples with
  | [] -> nan
  | [ x ] -> x
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let q = Float.max 0. (Float.min 1. q) in
      let rank = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Int.min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

(* ---------- spans ---------- *)

type span_info = { sp_id : int; sp_parent : int; sp_label : string; sp_start : float }

type span_rec = {
  sr_id : int;
  sr_parent : int;  (* 0 = root *)
  sr_label : string;
  sr_start : float;
  sr_dur : float;
}

let span_cap = 4096

(* ---------- registry ---------- *)

type metric = M_counter of counter_m | M_gauge of gauge_m | M_hist of hist_m

type t = {
  live : bool;
  mu : Mutex.t;
  metrics : (string, metric) Hashtbl.t;
  mutable spans : span_rec list;  (* newest first; capped at span_cap *)
  mutable span_recorded : int;
  mutable span_dropped : int;
  span_ids : int Atomic.t;
  stack : span_info list ref Domain.DLS.key;
  epoch : float;  (* creation time; span starts are exported relative to this *)
}

let make ~live =
  {
    live;
    mu = Mutex.create ();
    metrics = Hashtbl.create 32;
    spans = [];
    span_recorded = 0;
    span_dropped = 0;
    span_ids = Atomic.make 1;
    stack = Domain.DLS.new_key (fun () -> ref []);
    epoch = (if live then now () else 0.);
  }

let create () = make ~live:true
let null = make ~live:false
let default = make ~live:true
let is_live r = r.live

let intern r name ~mismatch ~build ~select =
  Mutex.protect r.mu (fun () ->
      match Hashtbl.find_opt r.metrics name with
      | Some m -> (
          match select m with
          | Some x -> x
          | None -> invalid_arg (Printf.sprintf "Obs: %s already registered as a %s" name mismatch))
      | None ->
          let x, m = build () in
          Hashtbl.add r.metrics name m;
          x)

let counter r name =
  if not r.live then null_counter
  else
    intern r name ~mismatch:"non-counter"
      ~build:(fun () ->
        let c = make_counter ~live:true name in
        (c, M_counter c))
      ~select:(function M_counter c -> Some c | _ -> None)

let gauge r name =
  if not r.live then null_gauge
  else
    intern r name ~mismatch:"non-gauge"
      ~build:(fun () ->
        let g = make_gauge ~live:true name in
        (g, M_gauge g))
      ~select:(function M_gauge g -> Some g | _ -> None)

let histogram ?(buckets = default_buckets) r name =
  if not r.live then null_hist
  else
    intern r name ~mismatch:"non-histogram"
      ~build:(fun () ->
        let h = make_hist ~live:true ~buckets name in
        (h, M_hist h))
      ~select:(function M_hist h -> Some h | _ -> None)

module Span = struct
  type span = span_info

  let none = { sp_id = 0; sp_parent = 0; sp_label = ""; sp_start = 0. }
  let id s = s.sp_id
  let cap = span_cap

  let enter r ?(parent = none) label =
    if not r.live then none
    else
      { sp_id = Atomic.fetch_and_add r.span_ids 1; sp_parent = parent.sp_id; sp_label = label;
        sp_start = now () }

  let exit r s =
    if r.live && s.sp_id <> 0 then begin
      let dur = now () -. s.sp_start in
      Mutex.protect r.mu (fun () ->
          if r.span_recorded - r.span_dropped >= span_cap then r.span_dropped <- r.span_dropped + 1
          else
            r.spans <-
              {
                sr_id = s.sp_id;
                sr_parent = s.sp_parent;
                sr_label = s.sp_label;
                sr_start = s.sp_start;
                sr_dur = dur;
              }
              :: r.spans;
          r.span_recorded <- r.span_recorded + 1)
    end

  let current r =
    if not r.live then None
    else match !(Domain.DLS.get r.stack) with [] -> None | s :: _ -> Some s

  let with_ r ?parent label f =
    if not r.live then f ()
    else begin
      let parent = match parent with Some p -> p | None -> Option.value (current r) ~default:none in
      let s = enter r ~parent label in
      let stack = Domain.DLS.get r.stack in
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          (match !stack with top :: rest when top.sp_id = s.sp_id -> stack := rest | _ -> ());
          exit r s)
        f
    end

  let recorded r = if not r.live then 0 else Mutex.protect r.mu (fun () -> r.span_recorded)
  let dropped r = if not r.live then 0 else Mutex.protect r.mu (fun () -> r.span_dropped)
end

(* ---------- registry snapshot (shared by the exporters) ---------- *)

type snap = {
  sn_counters : (string * int) list;  (* sorted by name *)
  sn_gauges : (string * float) list;
  sn_hists : (string * hist_view) list;
  sn_spans : span_rec list;  (* oldest first *)
  sn_dropped : int;
  sn_epoch : float;
}

let snap r =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  let metrics, spans, dropped =
    Mutex.protect r.mu (fun () ->
        ( Hashtbl.fold (fun _ m acc -> m :: acc) r.metrics [],
          List.rev r.spans,
          r.span_dropped ))
  in
  List.iter
    (function
      | M_counter c -> counters := (c.c_name, Counter.value c) :: !counters
      | M_gauge g -> gauges := (g.g_name, Gauge.value g) :: !gauges
      | M_hist h -> hists := (h.h_name, hist_view h) :: !hists)
    metrics;
  let by_name (a, _) (b, _) = compare a b in
  {
    sn_counters = List.sort by_name !counters;
    sn_gauges = List.sort by_name !gauges;
    sn_hists = List.sort by_name !hists;
    sn_spans = spans;
    sn_dropped = dropped;
    sn_epoch = r.epoch;
  }

(* ---------- exporters ---------- *)

let pp ppf r =
  let s = snap r in
  let pct v q = view_quantile v q in
  Format.fprintf ppf "@[<v>";
  if s.sn_counters <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter (fun (n, v) -> Format.fprintf ppf "  %-50s %d@," n v) s.sn_counters
  end;
  if s.sn_gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter (fun (n, v) -> Format.fprintf ppf "  %-50s %g@," n v) s.sn_gauges
  end;
  if s.sn_hists <> [] then begin
    Format.fprintf ppf "histograms:@,";
    List.iter
      (fun (n, v) ->
        if v.hv_count = 0 then Format.fprintf ppf "  %-40s (empty)@," n
        else
          Format.fprintf ppf "  %-40s n=%-6d sum=%.6g p50=%.6g p90=%.6g p99=%.6g max=%.6g@," n
            v.hv_count v.hv_sum (pct v 0.5) (pct v 0.9) (pct v 0.99) v.hv_max)
      s.sn_hists
  end;
  let nspans = List.length s.sn_spans in
  if nspans > 0 || s.sn_dropped > 0 then begin
    Format.fprintf ppf "spans: %d recorded, %d dropped@," (nspans + s.sn_dropped) s.sn_dropped;
    let shown = ref 0 in
    List.iter
      (fun sr ->
        if !shown < 20 then begin
          incr shown;
          Format.fprintf ppf "  [%d<-%d] %-30s %.3f ms@," sr.sr_id sr.sr_parent sr.sr_label
            (sr.sr_dur *. 1e3)
        end)
      s.sn_spans;
    if nspans > 20 then Format.fprintf ppf "  ... %d more@," (nspans - 20)
  end;
  Format.fprintf ppf "@]"

let to_jsonl ?(timing = true) r =
  let s = snap r in
  let b = Buffer.create 1024 in
  let line j =
    Buffer.add_string b (Json.encode j);
    Buffer.add_char b '\n'
  in
  let num_i n = Json.Num (string_of_int n) in
  let num_f f = if f <> f then Json.Null else Json.Num (Json.number f) in
  List.iter
    (fun (n, v) ->
      line (Json.Obj [ ("kind", Json.Str "counter"); ("name", Json.Str n); ("value", num_i v) ]))
    s.sn_counters;
  if timing then begin
    List.iter
      (fun (n, v) ->
        line (Json.Obj [ ("kind", Json.Str "gauge"); ("name", Json.Str n); ("value", num_f v) ]))
      s.sn_gauges;
    List.iter
      (fun (n, v) ->
        let buckets =
          Json.Arr
            (List.mapi
               (fun i le ->
                 Json.Obj [ ("le", num_f le); ("n", num_i v.hv_counts.(i)) ])
               (Array.to_list v.hv_buckets)
            @ [
                Json.Obj
                  [ ("le", Json.Str "+Inf"); ("n", num_i v.hv_counts.(Array.length v.hv_buckets)) ];
              ])
        in
        line
          (Json.Obj
             [
               ("kind", Json.Str "histogram");
               ("name", Json.Str n);
               ("count", num_i v.hv_count);
               ("sum", num_f v.hv_sum);
               ("min", if v.hv_count = 0 then Json.Null else num_f v.hv_min);
               ("max", if v.hv_count = 0 then Json.Null else num_f v.hv_max);
               ("p50", num_f (view_quantile v 0.5));
               ("p90", num_f (view_quantile v 0.9));
               ("p99", num_f (view_quantile v 0.99));
               ("buckets", buckets);
             ]))
      s.sn_hists;
    List.iter
      (fun sr ->
        line
          (Json.Obj
             [
               ("kind", Json.Str "span");
               ("id", num_i sr.sr_id);
               ("parent", if sr.sr_parent = 0 then Json.Null else num_i sr.sr_parent);
               ("label", Json.Str sr.sr_label);
               ("start_s", num_f (sr.sr_start -. s.sn_epoch));
               ("dur_s", num_f sr.sr_dur);
             ]))
      s.sn_spans;
    if s.sn_dropped > 0 then
      line (Json.Obj [ ("kind", Json.Str "spans_dropped"); ("value", num_i s.sn_dropped) ])
  end;
  Buffer.contents b

(* "name{label=\"x\"}" -> "name", for # TYPE comments *)
let base_name n = match String.index_opt n '{' with Some i -> String.sub n 0 i | None -> n

let to_prometheus ?(timing = true) r =
  let s = snap r in
  let b = Buffer.create 1024 in
  let last_type = ref "" in
  let typ name kind =
    let base = base_name name in
    if base <> !last_type then begin
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" base kind);
      last_type := base
    end
  in
  List.iter
    (fun (n, v) ->
      typ n "counter";
      Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
    s.sn_counters;
  if timing then begin
    List.iter
      (fun (n, v) ->
        typ n "gauge";
        Buffer.add_string b (Printf.sprintf "%s %s\n" n (Json.number v)))
      s.sn_gauges;
    List.iter
      (fun (n, v) ->
        typ n "histogram";
        let cum = ref 0 in
        Array.iteri
          (fun i le ->
            cum := !cum + v.hv_counts.(i);
            Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (Json.number le) !cum))
          v.hv_buckets;
        cum := !cum + v.hv_counts.(Array.length v.hv_buckets);
        Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n !cum);
        Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (Json.number v.hv_sum));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" n v.hv_count))
      s.sn_hists;
    let nspans = List.length s.sn_spans in
    if nspans > 0 || s.sn_dropped > 0 then
      Buffer.add_string b
        (Printf.sprintf "# spans: %d recorded, %d dropped\n" (nspans + s.sn_dropped) s.sn_dropped)
  end;
  Buffer.contents b

(* ---------- heartbeat ---------- *)

module Heartbeat = struct
  type t = {
    hb_path : string;
    hb_interval : float;
    hb_mu : Mutex.t;
    mutable hb_last : float;  (* last write time; neg_infinity before the first *)
  }

  let create ?(interval_s = 1.0) ~path () =
    { hb_path = path; hb_interval = interval_s; hb_mu = Mutex.create (); hb_last = neg_infinity }

  let path t = t.hb_path

  let write_atomic ~path payload =
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try output_string oc payload
     with e ->
       close_out_noerr oc;
       raise e);
    close_out oc;
    Sys.rename tmp path

  let write t payload =
    match write_atomic ~path:t.hb_path (payload ()) with
    | () -> ()
    | exception Sys_error _ -> ()

  let beat t payload =
    Mutex.protect t.hb_mu (fun () ->
        let t_now = now () in
        if t_now -. t.hb_last >= t.hb_interval then begin
          t.hb_last <- t_now;
          write t payload
        end)

  let force t payload =
    Mutex.protect t.hb_mu (fun () ->
        t.hb_last <- now ();
        write t payload)

  (* The supervisor-side half of the plane: classify a status file by
     its age. The threshold is 2x the writer's interval — one interval
     of legitimate silence (the writer beats at most once per interval)
     plus one interval of slack for scheduling. An mtime in the future
     means clock skew between writer and prober (or a coarse
     filesystem clock), never staleness — a skewed-but-beating worker
     must not be reaped. *)
  let staleness ~interval_s ~now:t_now ~mtime =
    let age = t_now -. mtime in
    if age > 2. *. interval_s then `Stale age else `Fresh

  let probe ?now:probe_now ~interval_s path =
    match Unix.stat path with
    | exception Unix.Unix_error _ -> `Missing
    | exception Sys_error _ -> `Missing
    | st ->
        let t_now = match probe_now with Some t -> t | None -> now () in
        staleness ~interval_s ~now:t_now ~mtime:st.Unix.st_mtime
end

let status_json ?(verdicts = []) ?p99_task_s ~tasks_done ~tasks_total ~elapsed_s () =
  let num_i n = Json.Num (string_of_int n) in
  let num_f f = if f <> f then Json.Null else Json.Num (Json.number f) in
  let eta =
    if tasks_done > 0 && tasks_total > tasks_done then
      num_f (elapsed_s /. float_of_int tasks_done *. float_of_int (tasks_total - tasks_done))
    else if tasks_done >= tasks_total then num_f 0.
    else Json.Null
  in
  Json.encode
    (Json.Obj
       [
         ("schema", Json.Str "cheri_c.status/v1");
         ("tasks_done", num_i tasks_done);
         ("tasks_total", num_i tasks_total);
         ("verdicts", Json.Obj (List.map (fun (k, v) -> (k, num_i v)) verdicts));
         ("elapsed_s", num_f elapsed_s);
         ("eta_s", eta);
         ("p99_task_s", match p99_task_s with Some v -> num_f v | None -> Json.Null);
       ])

(* A campaign's heartbeat tally, kept apart from the registry so a
   shared registry does not leak earlier campaigns into this one's
   status line. *)
module Progress = struct
  type t = {
    mu : Mutex.t;
    hb : Heartbeat.t option;
    total : int;
    start : float;
    verdicts : (string, int) Hashtbl.t;
    mutable finished : int;
    mutable walls : float list;  (** newest first *)
  }

  let tally t v =
    Hashtbl.replace t.verdicts v (1 + Option.value ~default:0 (Hashtbl.find_opt t.verdicts v))

  let payload t () =
    Mutex.protect t.mu (fun () ->
        let p99 = quantile_of t.walls 0.99 in
        status_json
          ~verdicts:(List.sort compare (List.of_seq (Hashtbl.to_seq t.verdicts)))
          ?p99_task_s:(if p99 = p99 then Some p99 else None)
          ~tasks_done:t.finished ~tasks_total:t.total ~elapsed_s:(now () -. t.start) ())

  let force t = Option.iter (fun hb -> Heartbeat.force hb (payload t)) t.hb

  let create ?heartbeat ~total restored =
    let verdicts = Hashtbl.create 8 and finished = List.length restored in
    let t =
      { mu = Mutex.create (); hb = heartbeat; total; start = now (); verdicts; finished; walls = [] }
    in
    List.iter (tally t) restored;
    force t;
    t

  let finish t ?verdict wall_s =
    Mutex.protect t.mu (fun () ->
        t.finished <- t.finished + 1;
        t.walls <- wall_s :: t.walls;
        Option.iter (tally t) verdict);
    Option.iter (fun hb -> Heartbeat.beat hb (payload t)) t.hb

  let walls t = Mutex.protect t.mu (fun () -> List.rev t.walls)
end

let timing_json ~jobs ~wall_s ?serial_s task_seconds =
  let num f = if f <> f then Json.Null else Json.Num (Json.number f) in
  let q p = num (quantile_of task_seconds p) in
  Json.encode
    (Json.Obj
       (("jobs", Json.Num (string_of_int jobs)) :: ("wall_s", num wall_s)
        :: Option.to_list (Option.map (fun s -> ("serial_s", num s)) serial_s)
       @ [
           ("tasks_timed", Json.Num (string_of_int (List.length task_seconds)));
           ("task_wall_p50_s", q 0.5);
           ("task_wall_p90_s", q 0.9);
           ("task_wall_p99_s", q 0.99);
         ]))
