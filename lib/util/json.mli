(** A minimal JSON reader/escape helper for the resilience layer.

    Campaign checkpoints are append-only JSONL files (one JSON object
    per line); a killed run leaves at worst one torn final line, and
    resuming means re-reading every completed line. This module is the
    reader for that path — a small recursive-descent parser over the
    subset of JSON the campaigns emit (objects, arrays, strings with
    escapes, integers, floats, booleans, null). It is deliberately not
    a general-purpose JSON library: no streaming, no number-precision
    promises beyond [int]/[float], inputs are trusted checkpoint files
    we wrote ourselves. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the raw lexeme; see {!to_int} / {!to_float} *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value (surrounding whitespace allowed).
    Returns [Error msg] with a character position on malformed input —
    a torn checkpoint line must never raise. *)

(** {1 Accessors} — all total, returning [option] on shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] otherwise. *)

val to_int : t -> int option
val to_float : t -> float option
val to_string : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val mem_int : string -> t -> int option
(** [mem_int k j] is [member k j] read as an int; likewise below. *)

val mem_float : string -> t -> float option
val mem_str : string -> t -> string option
val mem_bool : string -> t -> bool option

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON output:
    backslash, quote, and control characters (\n, \t, ..., \u00XX).
    Every JSON emitter in the repo (telemetry exporters, bench tables,
    campaign reports, metrics) routes string escaping through here. *)

val number : float -> string
(** The one float-to-JSON formatter: integral values print without a
    fraction, everything else as the shortest decimal that round-trips
    through [float_of_string]. Non-finite values print as [null] (JSON
    has no inf/nan). *)

val encode : t -> string
(** Serialize a value compactly (no added whitespace). [Num] lexemes
    pass through verbatim, so [parse |> encode] preserves number
    spellings — the bench regression gate relies on this to doctor a
    report without disturbing unrelated fields. *)
