/* The runtime's count of minor collections (every domain's), the
 * figure Gc.quick_stat reports as minor_collections, read in place:
 * quick_stat allocates its record and walks every domain's sampled
 * statistics, too dear for a count the writer takes once a batch. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/minor_gc.h>

value ddf_minor_collections(value unit)
{
  (void)unit;
  return Val_long(atomic_load(&caml_minor_collections_count));
}
