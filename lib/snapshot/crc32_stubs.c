/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the kernel
   behind Crc32.update_sub. See crc32.ml for the OCaml side.

   Two paths, one answer:

   - On x86-64 CPUs with PCLMULQDQ and SSE4.1 (checked once, at load),
     runs of 64 bytes or more, rounded down to a multiple of 16, are
     folded 64 bytes at a time with carry-less multiplies (Gopal et
     al., "Fast CRC Computation for Generic Polynomials Using
     PCLMULQDQ Instruction", Intel, 2009), then reduced to 32 bits
     with a Barrett step.
   - Everything else (inputs under 64 bytes, the 0-15 byte tail of a
     fold, and every input on other CPUs) goes through slice-by-8
     tables: eight independent lookups per eight input bytes.

   The intrinsics are compiled per function (target attribute), so the
   file needs no -m flag and the binary still runs on a CPU without
   them. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

/* table[k][n] is the CRC of byte n followed by k zero bytes; table[0]
   is the classic bytewise table. Built before main by the constructor
   below, so domains never race to fill it. */
static uint32_t table[8][256];

#if defined(__x86_64__)
static int have_clmul;
#endif

__attribute__((constructor)) static void crc32_init(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int i = 0; i < 8; i++) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++)
      table[k][n] = (table[k - 1][n] >> 8) ^ table[0][table[k - 1][n] & 0xff];
#if defined(__x86_64__)
  __builtin_cpu_init();
  have_clmul = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
}

/* Little-endian 32-bit word, whatever the host byte order; compilers
   turn this into one load on x86-64. */
static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}

/* [c] is the running value between the pre- and post-inversion. */
static uint32_t crc32_tables(uint32_t c, const unsigned char *p, size_t n)
{
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = c ^ le32(p), hi = le32(p + 4);
    c = table[7][lo & 0xff] ^ table[6][(lo >> 8) & 0xff] ^ table[5][(lo >> 16) & 0xff]
        ^ table[4][lo >> 24] ^ table[3][hi & 0xff] ^ table[2][(hi >> 8) & 0xff]
        ^ table[1][(hi >> 16) & 0xff] ^ table[0][hi >> 24];
  }
  for (; n > 0; p++, n--) c = table[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
#include <immintrin.h>

/* One fold step: multiply both 64-bit halves of [x] by their constant
   in [k], which moves them forward by the fold distance, and add the
   next 128 bits of input. */
__attribute__((target("pclmul,sse4.1")))
static inline __m128i fold(__m128i x, __m128i k, __m128i next)
{
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)), next);
}

/* Fold [n] bytes (n >= 64, n a multiple of 16) into [c]. The constants
   are x^k mod P for the reflected polynomial, as 33-bit values:
   k1/k2 fold across 512 bits (four lanes), k3/k4 across 128 bits, k5
   takes 96 bits to 64, and the last pair is the Barrett reduction's
   P (low) and mu (high). */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc32_clmul(uint32_t c, const unsigned char *p, size_t n)
{
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  /* four 128-bit lanes, the running CRC xored into the first */
  __m128i x0 = _mm_xor_si128(_mm_loadu_si128((const __m128i *)p), _mm_cvtsi32_si128((int)c));
  __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 16));
  __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 32));
  __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 48));
  p += 64;
  n -= 64;

  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, _mm_loadu_si128((const __m128i *)p));
    x1 = fold(x1, k1k2, _mm_loadu_si128((const __m128i *)(p + 16)));
    x2 = fold(x2, k1k2, _mm_loadu_si128((const __m128i *)(p + 32)));
    x3 = fold(x3, k1k2, _mm_loadu_si128((const __m128i *)(p + 48)));
  }

  /* four lanes into one, then any remaining 16-byte blocks */
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, _mm_loadu_si128((const __m128i *)p));

  /* 128 bits to 64 */
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  /* Barrett reduction to 32 bits */
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return (uint32_t)_mm_extract_epi32(_mm_xor_si128(x0, t), 1);
}
#endif

/* zlib-style update of a finished digest [crc] over [len] bytes of [s]
   from [pos]. The caller has checked the range. */
intnat cheri_crc32_update(intnat crc, value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  size_t n = (size_t)len;
  uint32_t c = ~(uint32_t)crc;
#if defined(__x86_64__)
  if (have_clmul && n >= 64) {
    size_t bulk = n & ~(size_t)15;
    c = crc32_clmul(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return (intnat)(~crc32_tables(c, p, n));
}

value cheri_crc32_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(cheri_crc32_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}
