/* Peak resident set size from getrusage(2), which the OCaml Unix
   library does not expose. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

/* Peak RSS in KiB of this process, or (children = true) of the largest
   descendant this process has waited for, grandchildren included. */
value perfbench_peak_rss_kb(value children)
{
  struct rusage ru;
  if (getrusage(Bool_val(children) ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
