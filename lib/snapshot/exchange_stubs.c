/* Atomic swap of two directory entries, the last step of
   Snapshot.save: the freshly written spare becomes the image and the
   previous image becomes the next save's spare. Returns false where
   the kernel or file system cannot exchange (non-Linux, EINVAL,
   EXDEV, ...); the caller then falls back to a plain rename. */

#define _GNU_SOURCE
#include <fcntl.h>
#include <stdio.h>

#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value cheri_snapshot_exchange(value a, value b)
{
#if defined(__linux__) && defined(RENAME_EXCHANGE)
  char *pa = caml_stat_strdup(String_val(a));
  char *pb = caml_stat_strdup(String_val(b));
  caml_enter_blocking_section();
  int rc = renameat2(AT_FDCWD, pa, AT_FDCWD, pb, RENAME_EXCHANGE);
  caml_leave_blocking_section();
  caml_stat_free(pa);
  caml_stat_free(pb);
  return Val_bool(rc == 0);
#else
  (void)a;
  (void)b;
  return Val_false;
#endif
}
