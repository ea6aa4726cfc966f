(* Spans recorded by the benchmark around its calls into the program's
   layers. Off unless the run is traced; when on, every span is kept in
   memory and written out once the run ends.

   A span has a name, start, end, the span that caused it, and the id
   of the operation it belongs to (-1 for set-up). Spans nest by a
   stack, so a layer's self time is its duration minus the time its
   child spans cover. *)

type kind =
  | Work  (** a call the workload makes *)
  | Probe
      (** a diagnostic call the workload itself does not make (a page
          scan or digest repeated right after a save): reported, but
          kept out of the workload's time *)
  | Client  (** an interval stamped by the service's client *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
  kind : kind;
  lane : int;  (** timeline row in the span file *)
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack = ref [ 0 ]
let op = ref (-1)

let reset () =
  spans := [];
  next_id := 1;
  stack := [ 0 ];
  op := -1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let with_ ?(kind = Work) name f =
  if not !on then f ()
  else begin
    let id = fresh_id () and parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = Common.now () in
    let finish () =
      stack := List.tl !stack;
      spans := { id; parent; op = !op; name; t0; t1 = Common.now (); kind; lane = 0 } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* An interval stamped from outside the process that did the work: the
   client's view of one tenant. Intervals of concurrent operations
   overlap, so each operation gets its own lane. *)
let interval ~op name t0 t1 =
  if !on then
    spans :=
      { id = fresh_id (); parent = 0; op; name; t0; t1; kind = Client; lane = op + 1 } :: !spans

(* -- analysis -------------------------------------------------------------- *)

type layer = { l_name : string; l_self : float; l_calls : int; l_kind : kind }

(* self time and call count per span name, in first-seen order *)
let layers () =
  let all = List.rev !spans in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    all;
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      match Hashtbl.find_opt acc s.name with
      | Some (t, c, k) -> Hashtbl.replace acc s.name (t +. self, c + 1, k)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace acc s.name (self, 1, s.kind))
    all;
  List.rev_map
    (fun n ->
      let t, c, k = Hashtbl.find acc n in
      { l_name = n; l_self = t; l_calls = c; l_kind = k })
    !order

let self_of name = List.fold_left (fun a l -> if l.l_name = name then a +. l.l_self else a) 0. (layers ())
let calls_of name = List.fold_left (fun a l -> if l.l_name = name then a + l.l_calls else a) 0 (layers ())

(* total duration of probe spans: time the workload itself did not spend *)
let probe_time () =
  List.fold_left (fun a s -> if s.kind = Probe then a +. (s.t1 -. s.t0) else a) 0. !spans

(* self time of every call the workload made *)
let work_self () =
  List.fold_left (fun a l -> if l.l_kind = Work then a +. l.l_self else a) 0. (layers ())

(* -- output ---------------------------------------------------------------- *)

(* Chrome trace-event JSON (load it in chrome://tracing or Perfetto);
   ids, parents and operation ids ride in [args]. *)
let chrome_json () =
  let all = List.rev !spans in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity all in
  let us t = Printf.sprintf "%.1f" ((t -. base) *. 1e6) in
  let ev s =
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"probe\":%b}}"
      (Common.Json.escape s.name) (us s.t0)
      (Printf.sprintf "%.1f" ((s.t1 -. s.t0) *. 1e6))
      s.lane s.id s.parent s.op (s.kind = Probe)
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map ev all) ^ "\n]}\n"
