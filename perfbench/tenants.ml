(* Seeded tenant programs for tenant-burst and resume-chain.

   A tenant is a minic program that mallocs an array and, round after
   round, folds a linear congruential accumulator through 512 words of
   it, writing each word back. Two properties vary, because they are
   what a checkpoint's cost depends on:

   - Length, in 50k-instruction service slices (one round retires
     18,966 instructions under every ABI and footprint). Lengths follow
     the service traffic the repository already generates:
     Chaos.tenant_source draws 20k-80k loop iterations of about 24.6
     instructions, i.e. tenants of 10 to 39 slices, uniformly, mean
     about 24.5. Here every block of ten holds one tenant from each
     three-slice band 10-12, 13-15, ..., 37-39, so each block has that
     spread and mean.
   - Memory touched, as footprint and pages dirtied per slice. No
     measured footprint mix of real service traffic exists
     (Chaos.tenant_source touches one page), so the five bands are
     weighted equally and span the best to the worst case for a
     checkpoint; the mix is a choice, not a measurement:
     . page: one 4 KiB page, rewritten every round. The best case for a
       checkpoint that writes only dirty pages.
     . 64k: 16 pages, all dirtied every slice.
     . 1m: a 1 MiB array, 2 words in each of its 256 pages every round.
     . 4m: a 4 MiB array, half its 1024 pages each round, so every
       page is dirtied every slice. The worst case: a delta is the
       whole footprint.
     . 4m-window: a 4 MiB array walked by a 16-page window that moves
       on each round, so about 45 pages are dirtied per slice while the
       saved footprint grows to MiBs. Separates "bytes dirtied" from
       "bytes resident".
     Each footprint appears twice per block, paired with a short and a
     long length band whose midpoints average 24.5 slices, so no
     footprint is measured only on short or only on long tenants.

   The seed shuffles the block's order and jitters each tenant's length
   within its band, its round count and its constants. Every run
   therefore sees the same mix, and two seeds differ in order and
   detail, not in how much work a run holds. ABIs rotate MIPS, CHERIv2,
   CHERIv3. *)

type t = {
  index : int;
  abi : string;  (** service ABI key *)
  source : string;
  band : string;  (** "<length>/<footprint>" *)
  slices : int;  (** length in [slice_insns] service slices *)
}

let abis = [| "mips"; "cheriv2"; "cheriv3" |]

let footprints = [| "page"; "64k"; "1m"; "4m"; "4m-window" |]

(* slot j of a block: slices in [10 + 3j, 12 + 3j]; footprint f takes
   slots f and 9 - f *)
let block = Array.init 10 (fun j -> (10 + (3 * j), footprints.(min j (9 - j))))

let slice_insns = 50_000
let round_insns = 18_966

(* splitmix-style step kept in 62 bits *)
let mix x =
  let x = (x + 0x1E3779B97F4A7C15) land 0x3FFFFFFFFFFFFFFF in
  let x = (x lxor (x lsr 30)) * 0x2545F4914F6CDD1D land 0x3FFFFFFFFFFFFFFF in
  (x lxor (x lsr 27)) land 0x3FFFFFFFFFFFFFFF

(* (words in the array, words between touches, words swept per round,
   window shift per round) *)
let geometry = function
  | "page" -> (512, 1, 512, 0)
  | "64k" -> (8192, 16, 8192, 0)
  | "1m" -> (131072, 256, 131072, 0)
  | "4m" -> (524288, 512, 262144, 262144)
  | "4m-window" -> (524288, 16, 8192, 8192)
  | b -> invalid_arg ("Tenants.geometry: " ^ b)

let render ~words ~stride ~sweep ~shift ~rounds ~acc0 =
  Printf.sprintf
    {|int main(void) {
  long n = %d;
  long *a = (long *)malloc(n * 8);
  long acc = %d;
  long base = 0;
  for (long r = 0; r < %d; r++) {
    for (long i = 0; i < %d; i += %d) {
      long k = (base + i) & (n - 1);
      acc = acc * 1103515245 + 12345 + a[k];
      a[k] = acc;
    }
    base = base + %d;
  }
  print_int(acc & 1048575);
  return 0;
}
|}
    words acc0 rounds sweep stride shift

(* Fisher-Yates driven by [mix], so the order is the same on any host *)
let shuffle key a =
  let a = Array.copy a in
  let r = ref key in
  for i = Array.length a - 1 downto 1 do
    r := mix !r;
    let j = !r mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let make ~seed index =
  let n = Array.length block in
  let band, foot = (shuffle (mix (seed * 7919 + (index / n))) block).(index mod n) in
  let r = mix ((seed * 1_000_003) + index) in
  let slices = band + (mix r mod 3) in
  let words, stride, sweep, shift = geometry foot in
  (* any round count in this range makes exactly [slices] slices *)
  let lo = ((slices - 1) * slice_insns / round_insns) + 1 and hi = slices * slice_insns / round_insns in
  let rounds = lo + (r mod (hi - lo + 1)) in
  {
    index;
    abi = abis.(index mod 3);
    source = render ~words ~stride ~sweep ~shift ~rounds ~acc0:(mix r mod 100_000);
    band = Printf.sprintf "%d-%d/%s" band (band + 2) foot;
    slices;
  }

(* Service warm-up tenant [i]: fixed for every seed, two slices over a
   64 KiB array, and never equal to a stream tenant, so it warms the
   workers without filling their compile cache. *)
let warmup i =
  {
    index = -1 - i;
    abi = abis.(i mod 3);
    source = render ~words:8192 ~stride:16 ~sweep:8192 ~shift:0 ~rounds:4 ~acc0:(100_000 + i);
    band = "2/64k";
    slices = 2;
  }
