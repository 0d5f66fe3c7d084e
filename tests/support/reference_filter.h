// An independent reference for IntegratedSample::Filter (predicate
// push-down, paper §2.1): the original replay. It judges every raw
// observation by its entity's final fused state and Add()s each kept one,
// by source id and entity key, into a fresh sample in arrival order.
//
// Filter must produce a sample that is bit-identical to this one through
// every public accessor, for every fusion policy and predicate. Used by
// tests/filter_test.cc; it lives here, outside src/, because production
// code never needs it.
#ifndef UUQ_TESTS_SUPPORT_REFERENCE_FILTER_H_
#define UUQ_TESTS_SUPPORT_REFERENCE_FILTER_H_

#include <functional>

#include "integration/sample.h"

namespace uuq {

inline IntegratedSample ReferenceFilter(
    const IntegratedSample& sample,
    const std::function<bool(const EntityStat&)>& keep) {
  IntegratedSample out(sample.policy());
  for (const RawObservation& entry : sample.raw_log()) {
    const EntityStat& entity = sample.entities()[entry.entity_index];
    if (!keep(entity)) continue;
    out.Add(sample.source_names()[entry.source_index], entity.key,
            entry.value, entity.category);
  }
  return out;
}

}  // namespace uuq

#endif  // UUQ_TESTS_SUPPORT_REFERENCE_FILTER_H_
