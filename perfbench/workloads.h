// Workload inputs (generated from the seed with src/simulation), the
// serving and offline loops, the correctness gate, and the traced
// per-layer decomposition. The program under test only ever receives the
// generated observations and SQL through its public API.
#ifndef UUQ_PERFBENCH_WORKLOADS_H_
#define UUQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/query_correction.h"
#include "db/aggregate.h"
#include "integration/sample.h"
#include "integration/source.h"

namespace perfbench {

enum class Workload { kServeRepeat, kServeDistinct, kIngestRefresh, kOfflineAnalyst };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// One generated sample: its arrival-ordered observation stream plus the
/// population it was drawn from (the known truth).
struct SampleInput {
  std::string name;
  std::vector<uuq::Observation> stream;
  std::vector<double> population;  ///< true values, ascending
  std::vector<double> observed;    ///< fused observed entity values, ascending
  /// True SUM over population items with value > threshold (NaN: all).
  double TrueSum(double threshold) const;
  /// The observed (closed-world) aggregate, from the stream alone.
  double ObservedAggregate(uuq::AggregateKind kind) const;
};

struct Request {
  std::string sql;
  uuq::AggregateKind kind = uuq::AggregateKind::kSum;
  int sample = 0;  ///< index into Inputs::samples
  /// WHERE value > threshold; NaN means no predicate.
  double threshold = std::numeric_limits<double>::quiet_NaN();
  /// > 0: adaptive precision target (predicate-free serve-distinct only).
  double epsilon = 0.0;
  bool has_predicate() const { return threshold == threshold; }
};

/// Everything a workload sends, derived from the seed alone.
///  * serve-repeat: `requests` is the 48-text catalogue, drawn per client by
///    ZipfStream;
///  * serve-distinct / offline-analyst: `requests` is the request stream in
///    order (every serve-distinct text unique);
///  * ingest-refresh: `requests` is the 4-query dashboard and the stream of
///    samples[0] arrives in `batch_size` batches.
struct Inputs {
  Workload workload = Workload::kServeRepeat;
  uint64_t seed = 0;
  std::vector<SampleInput> samples;
  std::vector<Request> requests;
  std::vector<double> zipf_cdf;   ///< serve-repeat: over catalogue ranks
  std::vector<int> rank_to_text;  ///< serve-repeat: seeded rank permutation
  size_t batch_size = 0;
};

Inputs MakeInputs(Workload workload, uint64_t seed);

/// Client `client`'s serve-repeat draw sequence (catalogue indices).
class ZipfStream {
 public:
  ZipfStream(const Inputs& inputs, int client);
  int Next();

 private:
  const Inputs* inputs_;
  uuq::Rng rng_;
};

std::string SqlFor(uuq::AggregateKind kind, double threshold);

/// Derives an independent 64-bit value from (seed, salt).
uint64_t Mix(uint64_t seed, uint64_t salt);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  Workload workload = Workload::kServeRepeat;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve-distinct open-loop offered rate (queries/s); required, set in
  /// BENCHMARK.json's command.
  double distinct_rate_qps = 0.0;
  /// Directory for the span dump and per-layer file (traced runs).
  std::string out_dir;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form facts recorded with the result (tail percentiles and their
  /// sample counts, gate findings).
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Runs one workload: the untraced run (trace=false) yields the end-to-end
/// metrics, the traced run (trace=true) the per-layer metrics.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // UUQ_PERFBENCH_WORKLOADS_H_
