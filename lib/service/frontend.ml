(* The client side shared by both service tiers: the listen socket,
   framed-JSON client connections, the answers a supervisor and the
   router give identically, and the one select tick that multiplexes
   clients with whatever fds the tier also watches. A reply a tier
   cannot give yet (a drain report) is deferred on the client that
   asked for it, so it dies with that connection instead of reaching
   whoever reuses the fd number. *)

module Json = Cheri_util.Json
module Obs = Cheri_obs.Obs

(* Claim a Unix-domain listen socket path. A leftover file at the path
   is only an error if something still answers on it: probe with a
   connect — a live listener accepts (the path is genuinely in use); a
   dead leftover (crashed server, stale tmpdir) refuses, and is safe to
   unlink and rebind. The old behavior (unlink unconditionally) could
   steal a running server's socket; raw bind would crash on any
   leftover with an unstructured Unix_error. *)
let bind_listener path =
  let bind_fresh () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* workers (and shards, under the router) are spawned after the
       bind: without close-on-exec they would inherit the listener, and
       a SIGKILLed server's children would keep the socket answering
       connect probes — making an honest respawn refuse to start *)
    Unix.set_close_on_exec fd;
    match
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e))
  in
  if not (Sys.file_exists path) then bind_fresh ()
  else begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error (_, _, _) -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      Error (Printf.sprintf "socket %s is in use: another server is listening on it" path)
    else begin
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      bind_fresh ()
    end
  end

type client = {
  c_fd : Unix.file_descr;
  c_reader : Protocol.Reader.t;
  mutable c_awaiting : string list;  (* keys of deferred replies owed *)
}

type t = { path : string; listen : Unix.file_descr; mutable clients : client list }
type answer = Reply of Json.t | Defer of string

type handlers = {
  status : unit -> (string * Json.t) list;
  shutdown : unit -> unit;
  request : string -> Json.t -> answer option;
}

let err ?(extra = []) code = Json.Obj (("ok", Json.Bool false) :: ("error", Json.Str code) :: extra)
let bad_request detail = err "bad_request" ~extra:[ ("detail", Json.Str detail) ]

let listen path =
  match bind_listener path with
  | Ok fd -> { path; listen = fd; clients = [] }
  | Error detail ->
      prerr_endline
        (Json.encode
           Json.(Obj [ ("error", Str "socket_in_use"); ("detail", Str detail); ("exit", Num "2") ]));
      exit 2

let drop t c =
  (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
  t.clients <- List.filter (fun x -> x != c) t.clients

let reply c json =
  try
    Protocol.write_frame c.c_fd (Json.encode json);
    true
  with Unix.Unix_error _ -> false

let answer h frame =
  let ok = ("ok", Json.Bool true) in
  match Json.parse frame with
  | Error e -> Reply (bad_request ("unparseable request: " ^ e))
  | Ok j -> (
      match Json.mem_str "op" j with
      | Some "stats" -> Reply (Json.Obj (ok :: h.status ()))
      | Some "metrics" ->
          Reply (Json.Obj [ ok; ("metrics", Json.Str (Obs.to_prometheus Obs.default)) ])
      | Some "shutdown" ->
          h.shutdown ();
          Reply (Json.Obj [ ok; ("shutting_down", Json.Bool true) ])
      | Some op -> (
          match h.request op j with Some a -> a | None -> Reply (bad_request ("unknown op " ^ op)))
      | None -> Reply (bad_request "missing op"))

let pump t h c =
  let buf = Bytes.create 65536 in
  match Unix.read c.c_fd buf 0 (Bytes.length buf) with
  | 0 -> drop t c
  | n ->
      Protocol.Reader.feed c.c_reader (Bytes.sub_string buf 0 n);
      let rec frames () =
        match Protocol.Reader.next c.c_reader with
        | `Frame f -> (
            match answer h f with
            | Reply json -> if reply c json then frames () else drop t c
            | Defer key ->
                c.c_awaiting <- key :: c.c_awaiting;
                frames ())
        | `Awaiting -> ()
        | `Corrupt m ->
            ignore (reply c (bad_request m) : bool);
            drop t c
      in
      frames ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> drop t c

let accept t =
  match Unix.accept ~cloexec:true t.listen with
  | fd, _ ->
      t.clients <- { c_fd = fd; c_reader = Protocol.Reader.create (); c_awaiting = [] } :: t.clients
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let resolve t key json =
  List.iter
    (fun c ->
      if List.mem key c.c_awaiting then begin
        c.c_awaiting <- List.filter (fun k -> k <> key) c.c_awaiting;
        if not (reply c json) then drop t c
      end)
    t.clients

let tick ?(extra = []) ?(on_extra = fun _ -> ()) t h ~timeout_s =
  let fds = (t.listen :: extra) @ List.map (fun c -> c.c_fd) t.clients in
  let readable, _, _ =
    match Unix.select fds [] [] timeout_s with
    | r -> r
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ([], [], [])
  in
  List.iter
    (fun fd ->
      if fd = t.listen then accept t
      else if List.mem fd extra then on_extra fd
      else
        match List.find_opt (fun c -> c.c_fd = fd) t.clients with
        | Some c -> pump t h c
        | None -> ())
    readable

let close t =
  List.iter (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) t.clients;
  t.clients <- [];
  (try Unix.close t.listen with Unix.Unix_error _ -> ());
  try Unix.unlink t.path with Unix.Unix_error _ -> ()
