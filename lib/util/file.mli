(** Whole-file reading, the one way every library and driver loads a
    file. *)

val read : string -> (string, string) result
(** [read path] is the file's contents, read into one string allocated
    at the file's size. Any failure (missing, unreadable, a directory,
    shrunk while being read) is a one-line message that names [path];
    never raises. *)
