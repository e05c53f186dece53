/* Gathered socket writes for the binary wire protocol.
 *
 * The OCaml side hands over a frame list as an array of
 * (string, offset, length) slices -- header buffers interleaved with
 * zero-copy payload bodies -- and the stub flushes the whole batch
 * with one kernel write per socket-buffer fill instead of one per
 * frame (Unix.write additionally slices every call into 16 KiB
 * copies, so a 256 KiB chunk alone costs 16 syscalls there).
 *
 * The slice bytes are gathered into one malloc'd buffer while the
 * runtime lock is held (OCaml strings may move once it is released),
 * then written outside the lock so a slow peer never stalls the other
 * server threads.  This keeps writev(2)'s one-syscall-per-batch
 * property; the single bounded memcpy replaces the per-frame string
 * concatenation the pure-OCaml path would do anyway. */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

CAMLprim value ddf_gather_write(value vfd, value vslices, value vtotal)
{
  CAMLparam3(vfd, vslices, vtotal);
  int fd = Int_val(vfd);
  long total = Long_val(vtotal);
  long nslices = Wosize_val(vslices);
  long off = 0, written = 0;
  int err = 0;
  char *buf;

  if (total < 0) caml_invalid_argument("ddf_gather_write: negative total");
  buf = malloc(total > 0 ? (size_t)total : 1);
  if (buf == NULL) caml_raise_out_of_memory();

  for (long i = 0; i < nslices; i++) {
    value s = Field(vslices, i);
    const char *base = String_val(Field(s, 0));
    long soff = Long_val(Field(s, 1));
    long slen = Long_val(Field(s, 2));
    if (slen < 0 || soff < 0 || off + slen > total ||
        soff + slen > caml_string_length(Field(s, 0))) {
      free(buf);
      caml_invalid_argument("ddf_gather_write: slice out of bounds");
    }
    memcpy(buf + off, base + soff, (size_t)slen);
    off += slen;
  }

  caml_release_runtime_system();
  while (written < off) {
    ssize_t k = write(fd, buf + written, (size_t)(off - written));
    if (k >= 0)
      written += k;
    else if (errno == EINTR)
      continue;
    else {
      err = errno;
      break;
    }
  }
  caml_acquire_runtime_system();
  free(buf);
  if (err != 0) caml_unix_error(err, "ddf_gather_write", Nothing);
  CAMLreturn(Val_long(written));
}
