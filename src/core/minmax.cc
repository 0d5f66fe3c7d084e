#include "core/minmax.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace uuq {

namespace {

/// The extreme point of `points` under SortedEntityIndex::PointLess, or
/// false when the fold cannot prove it equals the canonical index's end
/// point (see MinMaxEstimator::ObservedExtreme).
template <typename Point>
bool FoldExtreme(const std::vector<Point>& points, bool want_max,
                 double* extreme) {
  if (points.empty()) {
    *extreme = 0.0;
    return true;
  }
  EntityPoint best{points.front().value, points.front().multiplicity};
  for (const Point& p : points) {
    const EntityPoint point{p.value, p.multiplicity};
    if (std::isnan(point.value) || point.multiplicity <= 0) return false;
    if (want_max ? SortedEntityIndex::PointLess(best, point)
                 : SortedEntityIndex::PointLess(point, best)) {
      best = point;
    }
  }
  if (best.value == 0.0) return false;
  *extreme = best.value;
  return true;
}

}  // namespace

ExtremeEstimate MinMaxEstimator::Estimate(const IntegratedSample& sample,
                                          bool want_max) const {
  return FromBuckets(bucket_->ComputeBuckets(sample), want_max);
}

ExtremeEstimate MinMaxEstimator::FromBuckets(
    const std::vector<ValueBucket>& buckets, bool want_max) const {
  ExtremeEstimate out;
  if (buckets.empty()) return out;
  out.has_data = true;

  // Buckets come back in ascending value order.
  const ValueBucket& extreme = want_max ? buckets.back() : buckets.front();
  out.observed_extreme = want_max ? extreme.hi : extreme.lo;
  out.bucket_lo = extreme.lo;
  out.bucket_hi = extreme.hi;

  const double missing = extreme.estimate.missing_count;
  out.extreme_bucket_missing = std::isfinite(missing)
                                   ? std::max(missing, 0.0)
                                   : std::numeric_limits<double>::infinity();
  out.claim_true_extreme = out.extreme_bucket_missing < claim_threshold_;
  return out;
}

ExtremeEstimate MinMaxEstimator::EstimateMax(
    const IntegratedSample& sample) const {
  return Estimate(sample, /*want_max=*/true);
}

ExtremeEstimate MinMaxEstimator::EstimateMin(
    const IntegratedSample& sample) const {
  return Estimate(sample, /*want_max=*/false);
}

ExtremeEstimate MinMaxEstimator::EstimateMax(const ReplicateSample& rep) const {
  return FromBuckets(bucket_->ComputeBuckets(rep), /*want_max=*/true);
}

ExtremeEstimate MinMaxEstimator::EstimateMin(const ReplicateSample& rep) const {
  return FromBuckets(bucket_->ComputeBuckets(rep), /*want_max=*/false);
}

double MinMaxEstimator::ObservedExtreme(const ReplicateSample& rep,
                                        bool want_max) const {
  double extreme = 0.0;
  if (FoldExtreme(rep.entities, want_max, &extreme)) return extreme;
  return (want_max ? EstimateMax(rep) : EstimateMin(rep)).observed_extreme;
}

double MinMaxEstimator::ObservedExtreme(const IntegratedSample& sample,
                                        bool want_max) const {
  double extreme = 0.0;
  if (FoldExtreme(sample.entities(), want_max, &extreme)) return extreme;
  return (want_max ? EstimateMax(sample) : EstimateMin(sample))
      .observed_extreme;
}

}  // namespace uuq
