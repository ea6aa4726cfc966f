(** Versioned machine snapshots: the crash-safety layer under resumable
    execution.

    A snapshot file ([cheri_c.snap/v1]) captures the complete
    architectural and micro-architectural state of a
    {!Cheri_isa.Machine}: general registers, the capability register
    file with every field (tags included), the sparse nonzero pages of
    the tagged memory (data and tag planes), cycle/instret and
    telemetry counters, allocator bookkeeping, buffered program output
    and cache-model state. Restoring it into a fresh machine built from
    the same program and configuration puts the simulation exactly
    where it stopped: running the remainder produces byte-identical
    output and identical cycle/instret counts to a run that was never
    interrupted (see {!Cheri_isa.Machine.snapshot} for the
    determinism argument).

    The file is magic + JSON header + little-endian binary body +
    trailing CRC-32. Saves are atomic (a standing spare beside the
    image is rewritten, then swapped in). Loads are
    paranoid: a file that is truncated, corrupted, written by another
    format, or taken from a different program/ABI/configuration is
    refused with a structured {!error} — no exception escapes this
    interface. *)

val format_version : string
(** ["cheri_c.snap/v1"]; the first line of every snapshot file. *)

(** {1 Errors} *)

type error =
  | Io of string  (** the file could not be read or written *)
  | Truncated of string  (** the file ends before its declared size *)
  | Crc_mismatch of { stored : int; computed : int }
      (** right length, wrong bits: the trailing CRC-32 does not match *)
  | Version_mismatch of { found : string }
      (** the file does not start with {!format_version} *)
  | Machine_mismatch of string
      (** a well-formed image that belongs to a different program, ABI
          or machine configuration *)

val pp_error : Format.formatter -> error -> unit
(** Actionable one-line rendering, suitable for an error message that
    precedes [exit 2]. *)

val error_to_string : error -> string

(** {1 Saving} *)

val save :
  ?note:string -> abi:string -> path:string -> Cheri_isa.Machine.t -> (int, error) result
(** Serialize the machine to [path], atomically: the image is written
    into the spare [path ^ ".tmp"], which is then exchanged with
    [path] (or renamed over it, where [path] is missing, is not a
    regular file or cannot be exchanged). [path] always holds a
    complete image; after a save the spare holds the previous one and
    is rewritten in place by the next save, so it stays until
    {!remove}. [abi] is the ABI key the program was compiled under
    (e.g. ["CHERIv3"]); it is recorded in the header and checked again
    on {!restore}. [note] is free-form text for the caller (the fault
    campaigns stash their task state here). Returns the file size in
    bytes. *)

val spare : string -> string
(** The name of [path]'s spare, [path ^ ".tmp"]. *)

val remove : string -> unit
(** Delete the image at [path] and its spare; either may be missing. *)

val remove_spare : string -> unit
(** Delete only the spare of [path], for one-shot writers that leave
    the image behind. *)

(** {1 Loading and restoring} *)

type image
(** A parsed, CRC-checked snapshot not yet bound to a machine. *)

val load : string -> (image, error) result
(** Read and validate a snapshot file. All structural validation
    happens here; what it cannot check is whether the image fits the
    machine you are about to restore into — that is {!restore}'s job. *)

val image_abi : image -> string
val image_note : image -> string

val image_instret : image -> int
(** Instructions retired at the moment the snapshot was taken. *)

val restore :
  Cheri_isa.Machine.t -> abi:string -> image -> (unit, error) result
(** Overwrite the machine's state with the image. Refuses (with
    [Machine_mismatch]) unless the ABI, ISA revision, memory geometry,
    timing configuration and code digest all match the machine — the
    machine is untouched when an error is returned. *)

val describe : image -> string
(** Multi-line human-readable summary ([cheri-snap info]). *)

val code_digest : abi:string -> Cheri_isa.Insn.t array -> string
(** Digest of the printed instruction stream that pins a snapshot to
    one compiled program; stable across processes. Equal to
    {!Cheri_isa.Decoded.source_digest}, where the computation lives. *)
