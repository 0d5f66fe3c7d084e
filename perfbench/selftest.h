#ifndef UUQ_PERFBENCH_SELFTEST_H_
#define UUQ_PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Runs the benchmark's arithmetic self-tests; returns the failure count.
int RunSelfTest();

}  // namespace perfbench

#endif  // UUQ_PERFBENCH_SELFTEST_H_
