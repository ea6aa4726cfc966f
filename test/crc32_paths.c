/* The CRC-32 kernel's slice-by-8 tables against the bytewise
   definition, over every length.

   On a CPU with PCLMULQDQ the OCaml tests reach the tables only for
   inputs under 64 bytes and for the tail of a fold (the fold itself is
   checked there, through the real entry point); this program, built
   on the kernel's source, runs the tables alone on long inputs too.
   Exit 0 iff every checksum agrees. */

#include "../lib/snapshot/crc32_stubs.c"

#include <stdio.h>
#include <stdlib.h>

static uint32_t bytewise(const unsigned char *p, size_t n)
{
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; i++) {
    c ^= p[i];
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

int main(void)
{
  const size_t max_len = 9000;
  unsigned char *buf = malloc(max_len + 16);
  if (buf == NULL) return 2;
  for (size_t i = 0; i < max_len + 16; i++) buf[i] = (unsigned char)(i * 167 + (i >> 8) + 13);
  int bad = 0;
  for (size_t pos = 0; pos < 16; pos++)
    for (size_t len = 0; len <= max_len; len += len < 600 ? 1 : 37) {
      const unsigned char *p = buf + pos;
      if (~crc32_tables(0xffffffffu, p, len) != bytewise(p, len)) bad++;
    }
  printf("crc32 tables: %d disagreements\n", bad);
  free(buf);
  return bad != 0;
}
