// Self-tests of the benchmark's own arithmetic: the tail rule, self time
// under overlapping children, open-loop timing from the due time, and
// seed-determinism of the generated requests. `perfbench --self-test`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.h"
#include "selftest.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TailRule() {
  Tail t = TailOf(Range(1000));
  Check(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10,
        "n=1000: p99 (rank 990, 10 beyond); p99.5 would leave only 5");
  t = TailOf(Range(100000));
  Check(t.percentile == 99.99 && t.value == 99990.0 && t.beyond == 10,
        "n=100000: p99.99 is the highest rung");
  t = TailOf(Range(20));
  Check(t.percentile == 50.0 && t.value == 10.0 && t.beyond == 10,
        "n=20: only p50 keeps 10 samples beyond");
  t = TailOf(Range(19));
  Check(t.percentile == 100.0 && t.value == 19.0 && t.beyond == 0,
        "n=19: no rung qualifies, the tail is the maximum");
  t = TailOf(Range(250));
  Check(t.percentile == 95.0 && t.value == 238.0 && t.n == 250,
        "n=250: p95 (rank 238, 12 beyond)");
  t = TailOf(Range(100000), 99.0);
  Check(t.percentile == 99.0 && t.value == 99000.0 && t.beyond == 1000,
        "n=100000 under a p99 ceiling: p99");
  t = TailOf(Range(250), 99.0);
  Check(t.percentile == 95.0 && t.value == 238.0,
        "n=250 under a p99 ceiling: p95, as without it");
  t = TailOf(Range(100000), 90.0);
  Check(t.percentile == 90.0 && t.value == 90000.0 && t.beyond == 10000,
        "n=100000 under a p90 ceiling: p90");
  Check(Median(Range(5)) == 3.0 && Median({}) == 0.0, "nearest-rank median");
}

void SelfTime() {
  // Parent [0,100]; two children that overlap each other (parallel
  // replicates) and one that runs past the parent's end; a grandchild
  // that must only be charged to its own parent.
  const std::vector<Span> spans = {
      {0, -1, 1, "interval", 0.0, 100.0},
      {1, 0, 1, "replicate", 10.0, 40.0},
      {2, 0, 1, "replicate", 20.0, 50.0},
      {3, 0, 1, "replicate", 90.0, 120.0},
      {4, 1, 1, "estimate", 15.0, 35.0},
  };
  const std::vector<double> self = SelfTimesUs(spans);
  Check(self[0] == 50.0,
        "overlapping children are subtracted once (100 - |[10,50]u[90,100]|)");
  Check(self[1] == 10.0, "a child's own child is charged to the child only");
  Check(self[3] == 30.0 && self[4] == 20.0, "leaf self time is its duration");
}

void OpenLoop() {
  // Due every 10 ms; the sender stalls and sends the second and third
  // requests at 35 and 36 ms; each completes 5 ms after it was sent.
  const double due[] = {0.0, 10.0, 20.0};
  const double sent[] = {0.0, 35.0, 36.0};
  double total = 0.0;
  for (int i = 0; i < 3; ++i) total += OpenLoopLatencyMs(due[i], sent[i] + 5.0);
  Check(total == 5.0 + 30.0 + 21.0,
        "open-loop latency runs from the due time, charging the stall");
}

bool SameRequests(const Inputs& a, const Inputs& b) {
  if (a.requests.size() != b.requests.size()) return false;
  for (size_t i = 0; i < a.requests.size(); ++i) {
    const Request& x = a.requests[i];
    const Request& y = b.requests[i];
    if (x.sql != y.sql || x.sample != y.sample || x.epsilon != y.epsilon) {
      return false;
    }
  }
  if (a.samples.size() != b.samples.size()) return false;
  for (size_t i = 0; i < a.samples.size(); ++i) {
    const auto& s = a.samples[i].stream;
    const auto& t = b.samples[i].stream;
    if (s.size() != t.size()) return false;
    for (size_t j = 0; j < s.size(); ++j) {
      if (s[j].source_id != t[j].source_id ||
          s[j].entity_key != t[j].entity_key || s[j].value != t[j].value) {
        return false;
      }
    }
  }
  if (a.workload == Workload::kServeRepeat) {
    ZipfStream za(a, 0), zb(b, 0);
    for (int i = 0; i < 1000; ++i) {
      if (za.Next() != zb.Next()) return false;
    }
  }
  return true;
}

void Determinism() {
  for (Workload w : {Workload::kServeRepeat, Workload::kServeDistinct,
                     Workload::kIngestRefresh, Workload::kOfflineAnalyst}) {
    const Inputs a = MakeInputs(w, 7);
    const Inputs b = MakeInputs(w, 7);
    const Inputs c = MakeInputs(w, 8);
    Check(SameRequests(a, b),
          std::string(WorkloadName(w)) + ": same seed, identical inputs");
    Check(!SameRequests(a, c),
          std::string(WorkloadName(w)) + ": another seed, different inputs");
  }
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  std::printf("perfbench self-test\n");
  TailRule();
  SelfTime();
  OpenLoop();
  Determinism();
  std::printf("perfbench self-test: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
