/* CPU time of the calling thread, in seconds.  The kernel leaves out
   the time the thread was not running, including time a virtual CPU
   was held by the host (steal). */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_thread_cpu_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
