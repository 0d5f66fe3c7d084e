// An independent reference for the dynamic split scan (paper §3.3.2,
// Algorithm 1): a straight port of the original exhaustive scan. Every
// bucket re-walks its cut list and evaluates BOTH |Δ| halves of every
// candidate — no memo arena, no pruning, no SoA kernel, no probe seeding,
// no root-scan cache.
//
// DynamicPartitioner must produce bit-identical bucket boundaries (and,
// through the bootstrap, bit-identical intervals) to this partitioner on
// every input. Shared by tests/partition_memo_test.cc and
// bench/bench_bootstrap.cc's verify pass; it lives here, outside src/,
// because production code never needs it.
#ifndef UUQ_TESTS_SUPPORT_REFERENCE_PARTITIONER_H_
#define UUQ_TESTS_SUPPORT_REFERENCE_PARTITIONER_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/bucket.h"

namespace uuq {

class ReferenceDynamicPartitioner final : public BucketPartitioner {
 public:
  std::string name() const override { return "dynamic-reference"; }

  void PartitionInto(const SortedEntityIndex& index,
                     const StatsSumEstimator& inner, PartitionScratch* scratch,
                     std::vector<size_t>* bounds) const override {
    UUQ_UNUSED(scratch);
    const size_t size = index.size();
    bounds->clear();
    if (size == 0) {
      *bounds = {0, 0};
      return;
    }

    // FIFO worklist, fresh per-bucket delta, first-minimum tie-break.
    std::vector<std::pair<size_t, size_t>> todo;
    std::vector<std::pair<size_t, size_t>> done;
    double delta_min = AbsDelta(inner, index.Slice(0, size));
    todo.push_back({0, size});

    for (size_t head = 0; head < todo.size(); ++head) {
      const auto [b_begin, b_end] = todo[head];
      const double b_delta = AbsDelta(inner, index.Slice(b_begin, b_end));
      double delta_rest;
      if (std::isinf(b_delta) || std::isinf(delta_min)) {
        delta_rest = 0.0;
        for (const auto& r : done) {
          delta_rest += AbsDelta(inner, index.Slice(r.first, r.second));
        }
        for (size_t i = head + 1; i < todo.size(); ++i) {
          delta_rest +=
              AbsDelta(inner, index.Slice(todo[i].first, todo[i].second));
        }
        delta_min = delta_rest + b_delta;
      } else {
        delta_rest = delta_min - b_delta;
      }

      bool found = false;
      size_t best_cut = 0;
      for (size_t cut = index.UpperBoundOfValueAt(b_begin); cut < b_end;
           cut = index.UpperBoundOfValueAt(cut)) {
        const double candidate = delta_rest +
                                 AbsDelta(inner, index.Slice(b_begin, cut)) +
                                 AbsDelta(inner, index.Slice(cut, b_end));
        if (candidate < delta_min) {
          delta_min = candidate;
          best_cut = cut;
          found = true;
        }
      }
      if (found) {
        todo.push_back({b_begin, best_cut});
        todo.push_back({best_cut, b_end});
      } else {
        done.push_back({b_begin, b_end});
      }
    }

    std::sort(done.begin(), done.end());
    bounds->push_back(0);
    for (const auto& r : done) bounds->push_back(r.second);
  }

 private:
  /// |Δ| of a slice; non-finite estimates read +infinity so that
  /// singleton-only buckets are never attractive to the split search.
  static double AbsDelta(const StatsSumEstimator& inner,
                         const SampleStats& stats) {
    if (stats.empty()) return 0.0;
    const double delta = inner.DeltaFromStats(stats);
    if (!std::isfinite(delta)) return std::numeric_limits<double>::infinity();
    return std::fabs(delta);
  }
};

}  // namespace uuq

#endif  // UUQ_TESTS_SUPPORT_REFERENCE_PARTITIONER_H_
