(** Resumable tasks: "resume this machine from its checkpoint, else
    start from scratch", once for fault-injection sidecars, service
    tenants and [cheri-run --resume].

    A checkpoint is a {!Snapshot} file whose note is a JSON object
    with [schema] as its first field. {!resume} turns every failure (a
    missing, torn or corrupt file, a foreign note, another task's
    note, a mismatched machine) into [None]: start from scratch.
    Nothing here raises. *)

module Json = Cheri_util.Json
module Machine = Cheri_isa.Machine

val note : schema:string -> (string * Json.t) list -> string
(** [{"schema":schema, fields...}], compact. *)

val open_note : schema:string -> string -> (Json.t, string) result
(** Parse a note and check its schema. *)

val restore :
  abi:string ->
  fresh:(unit -> Machine.t) ->
  check:(string -> ('a, string) result) ->
  string ->
  (Machine.t * 'a, Snapshot.error) result
(** The strict variant: load the file (CRC checked), [check] its note
    (a refusal is a [Machine_mismatch]), restore into [fresh ()]. *)

val resume :
  schema:string ->
  accept:(Json.t -> 'a option) ->
  abi:string ->
  fresh:(unit -> Machine.t) ->
  string ->
  (Machine.t * 'a) option
(** {!restore} a note of [schema] that the caller's key predicate
    [accept] decodes; [None] on any failure. *)

val read_note : string -> (string, Snapshot.error) result
(** The note of a CRC-checked checkpoint, nothing restored. *)

val save : ?note:string -> abi:string -> path:string -> Machine.t -> unit
(** Best-effort {!Snapshot.save}: a failed save is ignored, because it
    costs only resume granularity. *)

val discard : string -> unit
(** Remove a checkpoint and its spare ({!Snapshot.remove}). *)
