/* Host monotonic clock in nanoseconds. CLOCK_MONOTONIC is the clock the
   OCaml 5 runtime stamps its Runtime_events with, so benchmark spans and
   GC spans share one time base. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
