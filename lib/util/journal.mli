(** The crash-safe JSONL journal of the fuzz and fault-injection
    campaigns: a header line describing the campaign, then one record
    line per finished task, flushed as it completes, so a killed run
    leaves at worst a torn final line. A campaign supplies only its
    {!codec}. *)

exception Resume_mismatch of string
(** The resume file is unreadable or describes another campaign; the
    CLIs print [--resume: <message>] and exit 2. *)

type ('k, 'a) codec = {
  header : string;  (** this campaign's header line *)
  key : 'a -> 'k;  (** the task a record belongs to *)
  encode : 'a -> string;
  decode : Json.t -> 'a option;
}

type error = Unreadable of string | Mismatch of string

val error_to_string : error -> string

val load : ('k, 'a) codec -> tasks:'k list -> string -> ('a list, error) result
(** The file's records for [tasks], one per task in [tasks] order (the
    last line for a task wins). Torn or undecodable lines and records
    of other keys are skipped. Never raises. *)

type ('k, 'a) t
(** A running campaign's journal. *)

val start : ?resume:string -> ?checkpoint:string -> ('k, 'a) codec -> tasks:'k list -> ('k, 'a) t
(** {!load} [resume] (raising {!Resume_mismatch} on an error), then
    rewrite [checkpoint] whole: header and restored records. The two
    may name one file. *)

val restored : ('k, 'a) t -> 'a list
val find : ('k, 'a) t -> 'k -> 'a option

val record : ('k, 'a) t -> 'a -> unit
(** Keep a finished task's record and append it to the checkpoint as
    one flushed line. Callers serialize. *)

val close : ('k, 'a) t -> unit
