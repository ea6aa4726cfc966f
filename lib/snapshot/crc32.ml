(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). The checksum
   guards snapshot images against truncation and bit rot; it is not a
   cryptographic integrity check (snapshots are local files we wrote
   ourselves, like the campaign checkpoints).

   The kernel and its per-CPU dispatch live in crc32_stubs.c. This side
   adds the range check, kept in OCaml so the external can be untagged
   and noalloc: a checksum of a short piece costs a plain call. *)

external update_unsafe :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "cheri_crc32_update_byte" "cheri_crc32_update"
[@@noalloc]

(* zlib-style composition: [update crc s] continues a running digest,
   so [update (update 0 a) b = update 0 (a ^ b)]. The pre/post
   inversion lives inside, and the running value stays in the low 32
   bits of a native int. *)
let update_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update_sub: range outside the string";
  update_unsafe crc s pos len

let update crc s = update_sub crc s ~pos:0 ~len:(String.length s)
let digest s = update 0 s
let digest_sub s ~pos ~len = update_sub 0 s ~pos ~len
