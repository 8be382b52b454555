/* Clocks for the benchmark: monotonic wall time and the process's CPU
   time (every thread, user + system), both in nanoseconds. The CPU
   clock has nanosecond resolution, where [Unix.times] counts 10 ms
   ticks. Both return an untagged int and never allocate. */

#include <time.h>
#include <caml/mlvalues.h>

static intnat read_ns(clockid_t id)
{
  struct timespec ts;
  clock_gettime(id, &ts);
  return (intnat)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

intnat perfbench_monotonic_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_MONOTONIC);
}

intnat perfbench_cpu_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_PROCESS_CPUTIME_ID);
}

value perfbench_monotonic_ns_byte(value unit)
{
  return Val_long(perfbench_monotonic_ns(unit));
}

value perfbench_cpu_ns_byte(value unit)
{
  return Val_long(perfbench_cpu_ns(unit));
}
