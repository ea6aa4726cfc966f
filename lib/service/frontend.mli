(** The client side of both service tiers: one listen socket, framed
    JSON ({!Protocol}) client connections, the answers {!Service} and
    {!Router} give identically ([stats], [metrics], [shutdown], unknown
    or missing op, unparseable or corrupt frame), and one select tick.
    A reply that cannot be given yet is deferred on the asking client
    and is dropped with that client. *)

val bind_listener : string -> (Unix.file_descr, string) result
(** Claim a Unix-domain listen socket path. A leftover file is probed
    with a connect: a live listener makes this [Error] ("truly in
    use"); a dead leftover is unlinked and rebound. *)

type t

type answer =
  | Reply of Cheri_util.Json.t
  | Defer of string
      (** answer later, through {!resolve} with this key; every client
          deferred on the key gets the reply *)

type handlers = {
  status : unit -> (string * Cheri_util.Json.t) list;  (** the [stats] fields *)
  shutdown : unit -> unit;  (** a [shutdown] request arrived *)
  request : string -> Cheri_util.Json.t -> answer option;
      (** the tier's own ops; [None] = unknown op *)
}

val err : ?extra:(string * Cheri_util.Json.t) list -> string -> Cheri_util.Json.t
(** [{"ok":false,"error":code,...extra}]. *)

val listen : string -> t
(** {!bind_listener}, or exit 2 with a structured [socket_in_use]
    message on stderr. *)

val tick :
  ?extra:Unix.file_descr list ->
  ?on_extra:(Unix.file_descr -> unit) ->
  t ->
  handlers ->
  timeout_s:float ->
  unit
(** One select over the listener, the clients and [extra]: accept,
    read and answer clients, and pass each readable [extra] fd to
    [on_extra]. *)

val resolve : t -> string -> Cheri_util.Json.t -> unit
(** Send the reply to every client deferred on the key. *)

val close : t -> unit
(** Close every client and the listener, and unlink the socket path. *)
