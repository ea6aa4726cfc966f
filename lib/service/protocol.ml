(* The service wire format: length-prefixed JSON frames.

   A frame is 8 lowercase hex digits (payload length), one '\n', then
   exactly that many payload bytes. The prefix is ASCII rather than
   binary so a job can be submitted from a shell one-liner
   (`printf '%08x\n%s' ${#REQ} "$REQ" | nc -U serve.sock`) while still
   being a real length prefix — the reader never scans the payload for
   a terminator, so payloads may contain newlines, braces, anything.

   The same framing runs on two very different transports:
   - supervisor <-> client over a Unix-domain socket (nonblocking fds
     multiplexed under select: the incremental [Reader] buffers
     partial frames across reads);
   - supervisor <-> worker over pipes (the worker side blocks, the
     supervisor side is the same [Reader]; a SIGKILLed worker leaves
     at worst one torn frame in its pipe, which parses as `Awaiting
     and is discarded at EOF — exactly the torn-final-line contract of
     the campaign checkpoint files). *)

let header_bytes = 9 (* 8 hex digits + '\n' *)
let max_frame = 16 * 1024 * 1024

let encode payload = Printf.sprintf "%08x\n%s" (String.length payload) payload

(* Write the whole string, riding out short writes, EINTR, and (for
   nonblocking fds) EAGAIN via a bounded select. Unix_error from a dead
   peer (EPIPE/ECONNRESET) escapes to the caller, which owns the
   drop-the-peer decision. *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | w -> off := !off + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 1.0)
  done

let write_frame fd payload = write_all fd (encode payload)

module Reader = struct
  type t = { mutable pending : string }

  let create () = { pending = "" }
  let feed t s = if s <> "" then t.pending <- t.pending ^ s

  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

  let next t =
    let p = t.pending in
    let n = String.length p in
    if n < header_bytes then `Awaiting
    else if p.[8] <> '\n' then `Corrupt "frame header is not 8 hex digits + newline"
    else if not (String.for_all is_hex (String.sub p 0 8)) then
      `Corrupt "frame length is not hexadecimal"
    else
      let len = int_of_string ("0x" ^ String.sub p 0 8) in
      if len > max_frame then `Corrupt (Printf.sprintf "frame length %d exceeds limit" len)
      else if n < header_bytes + len then `Awaiting
      else begin
        t.pending <- String.sub p (header_bytes + len) (n - header_bytes - len);
        `Frame (String.sub p header_bytes len)
      end
end

(* Blocking frame read for the client and worker sides (one reader per
   fd; buffered surplus stays in it for the next call). *)
let read_frame fd reader =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Reader.next reader with
    | (`Frame _ | `Corrupt _) as r -> r
    | `Awaiting -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> `Eof
        | n ->
            Reader.feed reader (Bytes.sub_string buf 0 n);
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* One blocking request/response round trip (the client side). *)
let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let request fd reader json =
  write_frame fd (Cheri_util.Json.encode json);
  match read_frame fd reader with
  | `Frame f -> (
      match Cheri_util.Json.parse f with
      | Ok j -> Ok j
      | Error e -> Error ("unparseable response: " ^ e))
  | `Eof -> Error "connection closed by server"
  | `Corrupt m -> Error ("corrupt response frame: " ^ m)

(* [request] with a deadline: a router talking to a shard that might be
   SIGSTOPped (or wedged) must not hang with it — `Timeout hands the
   no-answer case back to the caller, which owns the is-it-dead
   decision (heartbeat probe, kill). Any partial response stays in the
   reader, so a timed-out connection must be dropped, not reused. *)
let request_timeout fd reader ~timeout_s json =
  match write_frame fd (Cheri_util.Json.encode json) with
  | exception Unix.Unix_error (e, _, _) -> `Error ("send: " ^ Unix.error_message e)
  | () ->
      let deadline = Unix.gettimeofday () +. timeout_s in
      let buf = Bytes.create 65536 in
      let rec go () =
        match Reader.next reader with
        | `Frame f -> (
            match Cheri_util.Json.parse f with
            | Ok j -> `Ok j
            | Error e -> `Error ("unparseable response: " ^ e))
        | `Corrupt m -> `Error ("corrupt response frame: " ^ m)
        | `Awaiting -> (
            let left = deadline -. Unix.gettimeofday () in
            if left <= 0. then `Timeout
            else
              match Unix.select [ fd ] [] [] left with
              | [], _, _ -> `Timeout
              | _ -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> `Error "connection closed by server"
                  | n ->
                      Reader.feed reader (Bytes.sub_string buf 0 n);
                      go ()
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
                  | exception Unix.Unix_error (e, _, _) ->
                      `Error ("recv: " ^ Unix.error_message e))
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      in
      go ()
