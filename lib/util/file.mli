(** Whole-file reading, the one way every library and driver loads a
    file. *)

val read : string -> (string, string) result
(** [read path] is the file's contents, read into one string allocated
    at the file's size. Any failure (missing, unreadable, a directory,
    shrunk while being read) is a one-line message that names [path];
    never raises. *)

val write : string -> string -> (unit, string) result
(** [write path contents] creates or truncates [path] and writes
    [contents] to it. Any failure (missing directory, no permission, a
    directory, a full disk) is a one-line message that names [path];
    never raises. *)
