(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slice-by-8.
   The checksum guards snapshot images against truncation and bit rot;
   it is not a cryptographic integrity check (snapshots are local files
   we wrote ourselves, like the campaign checkpoints). Implemented here
   rather than pulled in as a dependency: the container toolchain is
   frozen, and a page of code beats a vendored zlib binding. *)

(* Eight 256-entry tables in one array: table [k] (at [k * 256]) is the
   CRC of a byte followed by [k] zero bytes, so eight input bytes fold
   into the running value with eight independent lookups instead of
   eight dependent ones. Table 0 is the classic bytewise table. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(* Unsigned little-endian 32-bit word. Read as int32, not as one int64:
   [Int64.to_int] would drop bit 63 of the wider read. *)
let[@inline] u32 s i = Int32.to_int (String.get_int32_le s i) land 0xffffffff

(* zlib-style composition: [update crc s] continues a running digest,
   so [update (update 0 a) b = update 0 (a ^ b)]. The pre/post
   inversion lives inside, and the running value stays in the low 32
   bits of a native int. *)
let update_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update_sub: range outside the string";
  let t = Lazy.force tables in
  let c = ref ((crc land 0xffffffff) lxor 0xffffffff) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = !c lxor u32 s !i and hi = u32 s (!i + 4) in
    c :=
      Array.unsafe_get t (0x700 + (lo land 0xff))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xff))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let update crc s = update_sub crc s ~pos:0 ~len:(String.length s)
let digest s = update 0 s
let digest_sub s ~pos ~len = update_sub 0 s ~pos ~len
