/**
 * @file
 * A fixed reference kernel that measures how fast the host runs right
 * now, so timings taken minutes apart on a shared machine can be put
 * on one scale.
 */

#pragma once

#include <sys/types.h>

namespace perfbench
{

/**
 * Times the reference kernel in a helper process forked at
 * construction, so the kernel's buffers never count against the
 * benchmark's own peak memory. Construct it while the process has one
 * thread; use it from one thread.
 *
 * The kernel: each of `threads` threads at once streams floating-point
 * updates over its own 1 MiB array, walks a shared 8 MiB cycle and runs
 * a branchy integer hash. It is the benchmark's own code and never
 * changes with the program, so its time moves only with the host.
 */
class Reference
{
  public:
    explicit Reference(int threads);
    /** Ends the helper and waits for it. */
    ~Reference();
    Reference(const Reference&) = delete;
    Reference& operator=(const Reference&) = delete;

    /** Wall seconds of one kernel run, median of three, measured now. */
    double seconds();

  private:
    int request_ = -1;
    int reply_ = -1;
    pid_t child_ = -1;
};

} // namespace perfbench
