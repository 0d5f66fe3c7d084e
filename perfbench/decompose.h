// The traced run's per-request decomposition: each sampled request is
// replayed outside the service, calling every layer's public entry point in
// pipeline order (parse, filter, view, advise, point, interval) with one
// span per call, next to a whole-query CorrectSql span on the same request.
#ifndef UUQ_PERFBENCH_DECOMPOSE_H_
#define UUQ_PERFBENCH_DECOMPOSE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/query_correction.h"
#include "measure.h"
#include "serving/query_service.h"
#include "serving/sample_cache.h"
#include "workloads.h"

namespace perfbench {

/// The corrector configuration a served level-0 query runs with: the
/// service's default correction options, an interval, `replicates` of it.
/// `epsilon` > 0 adds the adaptive budget the service gives a
/// precision-targeted request (query_service.cc, RunQuery).
inline uuq::QueryCorrector::Options ServedCorrection(int replicates,
                                                     double epsilon = 0.0) {
  const uuq::ServingOptions serving;
  uuq::QueryCorrector::Options options = serving.correction;
  options.attach_bootstrap = true;
  options.bootstrap.replicates = replicates;
  if (epsilon > 0.0) {
    uuq::AdaptiveBudgetOptions& adaptive = options.bootstrap.adaptive;
    adaptive.enabled = true;
    adaptive.epsilon = epsilon;
    adaptive.confidence = options.bootstrap.confidence;
    adaptive.pilot_replicates = serving.adaptive_pilot_replicates;
    adaptive.escalation_block = serving.adaptive_escalation_block;
    adaptive.max_replicates = serving.adaptive_max_replicates;
  }
  return options;
}

struct DecomposeTarget {
  std::shared_ptr<const uuq::IntegratedSample> sample;
  /// The snapshot's artifacts when the workload serves from the artifact
  /// cache (predicate-free requests then reuse them, as the corrector does).
  std::shared_ptr<const uuq::SampleArtifacts> artifacts;
  Request request;
};

struct Decomposition {
  int64_t requests = 0;
  /// Requests whose staged point estimate or interval differed, bit for
  /// bit, from CorrectSql on the same request.
  int64_t mismatches = 0;
  std::map<std::string, int64_t> choices;  ///< advisor verdict counts
  std::vector<double> selectivity;         ///< filtered / total entities
  std::vector<double> unattributed;        ///< 1 - sum(stage self) / CorrectSql
  std::vector<double> speedup;             ///< 1-thread / pool interval time
};

/// Decomposes targets in order until `budget_s` has elapsed (at least one).
void Decompose(const std::vector<DecomposeTarget>& targets,
               uuq::ThreadPool* pool, double budget_s, uint64_t seed,
               Trace* trace, Decomposition* out);

}  // namespace perfbench

#endif  // UUQ_PERFBENCH_DECOMPOSE_H_
