(** Declarative command-line flags for the driver binaries.

    Every driver used to hand-roll the same recursive-descent match
    over [Sys.argv], each with its own drift: different unknown-flag
    messages, inconsistent [--flag=VALUE] support, no [--help]. This
    module owns that loop once. A binary declares its flags as a list
    of specs; [parse] walks the arguments, supports both
    [--flag VALUE] and [--flag=VALUE] spellings for every
    argument-taking flag, prints a generated usage page on [--help]
    (exit 0), and reports unknown flags, missing arguments and
    malformed values uniformly (exit 2).

    Validation failures inside a caller-supplied handler should go
    through {!die} so their exit status and formatting match the
    built-in errors. *)

type t
(** One flag specification. *)

val unit : string -> doc:string -> (unit -> unit) -> t
(** A bare flag: [-x], [--shrink]. Passing [--flag=V] to it is an
    error. *)

val string : string -> metavar:string -> doc:string -> (string -> unit) -> t
(** A flag with a required string argument: [--json FILE] or
    [--json=FILE]. *)

val int : ?min:int -> string -> metavar:string -> doc:string -> (int -> unit) -> t
(** A flag with a required integer argument, rejected below [min]
    (default 0) with a uniform message. *)

val float : ?strictly_positive:bool -> string -> metavar:string -> doc:string -> (float -> unit) -> t
(** A flag with a required numeric argument; non-negative by default,
    or strictly positive when [strictly_positive]. *)

val opt_string : string -> metavar:string -> doc:string -> (string option -> unit) -> t
(** A flag whose argument is optional and only attaches with [=]:
    [--trace] passes [None], [--trace=FILE] passes [Some "FILE"]
    (matching the historical [--trace]/[--metrics] spelling, where a
    following bare word is a positional argument, not a value). *)

val die : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Print the message to stderr and exit 2 — the same exit path the
    parser itself uses, for handler-level validation (unknown ABI,
    unknown fault kind, ...). *)

val write_output : flag:string -> string -> string -> unit
(** [write_output ~flag path contents] writes the output file [flag]
    named ({!File.write}); on failure it {!die}s with
    ["<flag>: <path>: <reason>"]. *)

val help_text : prog:string -> usage:string -> t list -> string
(** The generated usage page: ["usage: <prog> <usage>"] followed by one
    aligned line per flag. [--help] is appended automatically. *)

val parse :
  prog:string ->
  usage:string ->
  ?positional:(string -> unit) ->
  t list ->
  string list ->
  unit
(** Walk the arguments against the specs. [--help]/[-h] print
    {!help_text} on stdout and exit 0. A token starting with ['-']
    (other than ["-"] alone) that matches no spec is an unknown-flag
    error. Non-flag tokens go to [positional]; without a [positional]
    handler they are an error. *)
