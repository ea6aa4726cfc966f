(** Length-prefixed JSON framing for the simulation service.

    A frame is 8 lowercase hex digits (the payload length), one
    newline, then exactly that many payload bytes — scriptable from a
    shell ([printf '%08x\n%s' ${#REQ} "$REQ" | nc -U serve.sock]) yet
    a true length prefix: payload bytes are never scanned for a
    terminator. *)

val header_bytes : int
(** 9: eight hex digits plus the newline. *)

val max_frame : int
(** Frames above this payload size (16 MiB) are refused as corrupt —
    a garbage header must not make the reader buffer gigabytes. *)

val encode : string -> string
(** The framed bytes for a payload. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, riding out short writes, [EINTR] and (on
    nonblocking fds) [EAGAIN]. Peer-death errors ([EPIPE], ...) escape
    as [Unix_error]: the caller owns the drop-the-peer decision. *)

val write_frame : Unix.file_descr -> string -> unit
(** [write_all fd (encode payload)]. *)

(** Incremental frame decoder for a multiplexed (select-driven) fd:
    feed whatever bytes arrive, pull complete frames out. *)
module Reader : sig
  type t

  val create : unit -> t
  val feed : t -> string -> unit

  val next : t -> [ `Frame of string | `Awaiting | `Corrupt of string ]
  (** One decoded payload, [`Awaiting] if the buffered bytes end
      mid-frame (a SIGKILLed writer's torn last frame parses as this
      forever — discarded when the fd reaches EOF), or [`Corrupt] if
      the buffer cannot be a frame header. After [`Corrupt] the reader
      is poisoned; drop the connection. *)
end

val read_frame :
  Unix.file_descr -> Reader.t -> [ `Frame of string | `Eof | `Corrupt of string ]
(** Blocking read of one frame (client and worker sides); surplus bytes
    stay buffered in the reader for the next call. *)

val connect : string -> Unix.file_descr
(** A connected (close-on-exec) client socket to a Unix-domain path;
    [Unix_error] escapes with no fd leaked. *)

val request :
  Unix.file_descr -> Reader.t -> Cheri_util.Json.t -> (Cheri_util.Json.t, string) result
(** One blocking request/response round trip: frame and send the
    request, read and parse one response frame. *)

val request_timeout :
  Unix.file_descr ->
  Reader.t ->
  timeout_s:float ->
  Cheri_util.Json.t ->
  [ `Ok of Cheri_util.Json.t | `Timeout | `Error of string ]
(** {!request} with a deadline, for peers that may be stalled
    (SIGSTOP, wedged syscall): returns [`Timeout] instead of hanging.
    A timed-out connection may hold a partial response in the reader —
    drop it, don't reuse it. *)
