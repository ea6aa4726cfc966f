(** CRC-32 (IEEE 802.3) over strings — the corruption guard of the
    snapshot format. Digests are 32-bit values carried in a native
    [int]; [update] composes zlib-style, so a digest can be built
    incrementally over concatenated chunks.

    One C kernel computes it: carry-less-multiply folding on x86-64
    CPUs with PCLMULQDQ and SSE4.1 (chosen once, at load), slice-by-8
    tables for inputs under 64 bytes, for the tail of a fold and on
    every other CPU. Results do not depend on the path taken. *)

val digest : string -> int
val digest_sub : string -> pos:int -> len:int -> int

val update : int -> string -> int
(** [update crc s] extends a running digest: [update (update 0 a) b]
    equals [digest (a ^ b)]. *)

val update_sub : int -> string -> pos:int -> len:int -> int
(** [update] over a substring; raises [Invalid_argument] if the range
    falls outside the string. *)
