// The benchmark's own arithmetic: percentiles and the tail rule, the span
// store and self-time, open-loop timing, and process resource readings.
// Everything here is a pure function of its inputs (selftest.cc pins it).
#ifndef UUQ_PERFBENCH_MEASURE_H_
#define UUQ_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Bit-for-bit equality of two doubles (the correctness gate's test).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`:
/// the value at 1-based rank ceil(p/100 * n). 0 for an empty input.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Nearest-rank median of `values` (any order). 0 for an empty input.
double Median(std::vector<double> values);

/// The reported tail: the highest percentile of the fixed ladder
/// {50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99} that still has at least 10
/// samples strictly beyond its nearest rank. With fewer than 20 samples no
/// rung qualifies and the tail is the maximum (percentile 100, 0 beyond).
/// `ceiling` < 100 drops the rungs above it: the highest rung with 10
/// samples beyond is then at most `ceiling`.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t beyond = 0;
  int64_t n = 0;
};
Tail TailOf(std::vector<double> values, double ceiling = 100.0);

/// Open-loop latency: from when the request was DUE to be sent (not when
/// the sender got round to it) to its completion, so a stalled generator
/// charges the stall to every request it delayed.
inline double OpenLoopLatencyMs(double due_ms, double done_ms) {
  return done_ms - due_ms;
}

/// One traced call. Times are microseconds since the run's trace epoch;
/// `parent` is the id of the causing span (-1 for a root) and `request`
/// groups the spans of one request.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// measure of the UNION of its children's intervals clipped to its own, so
/// children that overlap in time (parallel replicates) are not subtracted
/// twice.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// In-memory span store; thread-safe. Spans are written out only when the
/// run ends (WriteJson).
class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  double ToUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  /// Records a finished span and returns its id.
  int64_t Add(const std::string& name, int64_t parent, int64_t request,
              double start_us, double end_us);
  /// Reserves an id for a span whose end is not known yet (a parent);
  /// Close() records it.
  int64_t Open();
  void Close(int64_t id, const std::string& name, int64_t parent,
             int64_t request, double start_us, double end_us);
  std::vector<Span> spans() const;
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Process user+system CPU seconds so far.
double CpuSeconds();
/// Peak resident set size in MB (ru_maxrss).
double PeakRssMb();

/// Machine-wide CPU time counters from /proc/stat (all zero where it cannot
/// be read). On a virtual machine `steal` is time the host ran something
/// else while this machine's CPUs wanted to run.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

}  // namespace perfbench

#endif  // UUQ_PERFBENCH_MEASURE_H_
