// MIN/MAX queries under unknown unknowns (paper §5, Figure 7(e)(f)).
//
// Extremes cannot be estimated outright, but we can say WHEN the observed
// extreme is trustworthy: partition the value range into buckets, estimate
// the unknown-unknowns count per bucket, and claim the observed MAX (MIN)
// as the true extreme only when the highest (lowest) bucket's estimated
// unknown count is (near) zero.
//
// BOOTSTRAP. The interval QueryCorrector attaches to a MIN/MAX answer is
// over each replicate's OBSERVED extreme, which needs no partition:
// ObservedExtreme folds it in one pass. The partition runs once, for the
// point estimate's claim. The ReplicateSample forms of EstimateMax/
// EstimateMin serve only the fold's fallback and the benchmark's
// staged trace (perfbench/trace.cc).
#ifndef UUQ_CORE_MINMAX_H_
#define UUQ_CORE_MINMAX_H_

#include <memory>

#include "core/bucket.h"
#include "core/estimate.h"

namespace uuq {

struct ExtremeEstimate {
  bool has_data = false;
  /// True when the extreme bucket's unknown count estimate is below the
  /// claim threshold — the observed extreme is then reported as trustworthy.
  bool claim_true_extreme = false;
  double observed_extreme = 0.0;
  /// Estimated count of unknown unknowns inside the extreme bucket.
  double extreme_bucket_missing = 0.0;
  /// Value range of the extreme bucket.
  double bucket_lo = 0.0;
  double bucket_hi = 0.0;
};

class MinMaxEstimator {
 public:
  /// `claim_threshold`: the extreme is claimed when the extreme bucket's
  /// estimated missing count is strictly below it (0.5 == "rounds to zero").
  explicit MinMaxEstimator(double claim_threshold = 0.5)
      : MinMaxEstimator(std::make_shared<BucketSumEstimator>(),
                        claim_threshold) {}
  MinMaxEstimator(std::shared_ptr<const BucketSumEstimator> bucket,
                  double claim_threshold)
      : bucket_(std::move(bucket)), claim_threshold_(claim_threshold) {}

  ExtremeEstimate EstimateMax(const IntegratedSample& sample) const;
  ExtremeEstimate EstimateMin(const IntegratedSample& sample) const;

  /// Columnar replicate forms (the full partition of a replicate).
  ExtremeEstimate EstimateMax(const ReplicateSample& rep) const;
  ExtremeEstimate EstimateMin(const ReplicateSample& rep) const;

  /// The sample's observed MAX (`want_max`) or MIN in one pass over its
  /// points: no index rebuild, no split scan. Bit-identical to
  /// EstimateMax/EstimateMin(...).observed_extreme, whose value is the end
  /// point of the canonical (value, multiplicity) index — the fold takes
  /// the same extreme under SortedEntityIndex::PointLess, and an empty
  /// sample gives 0.0. Where the fold cannot prove it picks the index's
  /// point — a NaN value, an extreme equal to zero (-0.0 and +0.0 tie), or
  /// a multiplicity <= 0 (the view-gathered index drops such points) — it
  /// returns the partition's value instead.
  double ObservedExtreme(const ReplicateSample& rep, bool want_max) const;
  double ObservedExtreme(const IntegratedSample& sample, bool want_max) const;

 private:
  ExtremeEstimate Estimate(const IntegratedSample& sample, bool want_max) const;
  ExtremeEstimate FromBuckets(const std::vector<ValueBucket>& buckets,
                              bool want_max) const;

  std::shared_ptr<const BucketSumEstimator> bucket_;
  double claim_threshold_;
};

}  // namespace uuq

#endif  // UUQ_CORE_MINMAX_H_
