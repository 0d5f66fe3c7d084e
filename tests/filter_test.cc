// IntegratedSample::Filter (index-form predicate push-down) against the
// original replay through Add (tests/support/reference_filter.h): every
// public accessor must agree bit for bit, for every fusion policy, on a
// serve-scale heavy-tail crowd and on the paper scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "integration/sample.h"
#include "simulation/crowd.h"
#include "simulation/population.h"
#include "simulation/scenarios.h"
#include "support/reference_filter.h"

namespace uuq {
namespace {

using Keep = std::function<bool(const EntityStat&)>;

constexpr FusionPolicy kPolicies[] = {FusionPolicy::kAverage,
                                      FusionPolicy::kFirst,
                                      FusionPolicy::kLast,
                                      FusionPolicy::kMajority};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectIdentical(const IntegratedSample& got,
                     const IntegratedSample& want) {
  ASSERT_EQ(got.policy(), want.policy());
  ASSERT_EQ(got.n(), want.n());
  ASSERT_EQ(got.c(), want.c());
  EXPECT_EQ(Bits(got.ObservedSum()), Bits(want.ObservedSum()));
  EXPECT_EQ(Bits(got.SingletonValueSum()), Bits(want.SingletonValueSum()));
  for (size_t e = 0; e < want.entities().size(); ++e) {
    const EntityStat& g = got.entities()[e];
    const EntityStat& w = want.entities()[e];
    ASSERT_EQ(g.key, w.key) << "entity " << e;
    ASSERT_EQ(Bits(g.value), Bits(w.value)) << "entity " << e;
    ASSERT_EQ(g.multiplicity, w.multiplicity) << "entity " << e;
    ASSERT_EQ(g.category, w.category) << "entity " << e;
  }
  ASSERT_EQ(got.raw_log().size(), want.raw_log().size());
  for (size_t i = 0; i < want.raw_log().size(); ++i) {
    const RawObservation& g = got.raw_log()[i];
    const RawObservation& w = want.raw_log()[i];
    ASSERT_EQ(g.source_index, w.source_index) << "log entry " << i;
    ASSERT_EQ(g.entity_index, w.entity_index) << "log entry " << i;
    ASSERT_EQ(Bits(g.value), Bits(w.value)) << "log entry " << i;
  }
  EXPECT_EQ(got.source_names(), want.source_names());
  EXPECT_EQ(got.source_sizes(), want.source_sizes());
  EXPECT_EQ(got.Fstats().histogram(), want.Fstats().histogram());
  EXPECT_EQ(got.Categories(), want.Categories());
}

/// Adds crowd disagreement the exact simulators lack, so every fusion
/// policy fuses differently: each report is scaled by one of a few levels
/// (repeats give kMajority real modes and ties), and carries a category
/// drawn independently of its entity, often empty, so an entity's category
/// is its first non-empty report.
IntegratedSample Ingest(const std::vector<Observation>& stream,
                        FusionPolicy policy, uint64_t seed) {
  static const double kScale[] = {1.0, 1.0, 1.25, 0.75};
  static const char* const kCategory[] = {"", "", "alpha", "beta", "gamma"};
  Rng rng(seed);
  IntegratedSample sample(policy);
  for (const Observation& obs : stream) {
    sample.Add(obs.source_id, obs.entity_key,
               obs.value * kScale[rng.NextBounded(4)],
               kCategory[rng.NextBounded(5)]);
  }
  return sample;
}

/// The serve-distinct sample shape: a heavy-tail population answered by
/// 200 crowd workers, 100 answers each (20k observations).
std::vector<Observation> ServeScaleCrowd() {
  HeavyTailPopulationConfig pc;
  pc.num_items = 20000;
  pc.seed = 21;
  const Population population = MakeHeavyTailPopulation(pc);
  CrowdConfig cc;
  cc.num_workers = 200;
  cc.answers_per_worker = 100;
  cc.seed = 22;
  return CrowdSimulator(&population, cc).GenerateStream();
}

/// keep-all, keep-none, categorical, and `value > t` thresholds at several
/// quantiles of the fused values.
std::vector<std::pair<std::string, Keep>> Predicates(
    const IntegratedSample& sample) {
  std::vector<std::pair<std::string, Keep>> out;
  out.push_back({"all", [](const EntityStat&) { return true; }});
  out.push_back({"none", [](const EntityStat&) { return false; }});
  out.push_back({"category=beta", [](const EntityStat& e) {
                   return e.category == "beta";
                 }});
  out.push_back({"no category", [](const EntityStat& e) {
                   return e.category.empty();
                 }});
  out.push_back({"repeated", [](const EntityStat& e) {
                   return e.multiplicity > 1;
                 }});
  std::vector<double> values = sample.Values();
  std::sort(values.begin(), values.end());
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double t = values[static_cast<size_t>(q * (values.size() - 1))];
    out.push_back({"value > q" + std::to_string(q),
                   [t](const EntityStat& e) { return e.value > t; }});
  }
  return out;
}

void CheckAgainstOracle(const std::vector<Observation>& stream,
                        const std::string& name) {
  for (FusionPolicy policy : kPolicies) {
    const IntegratedSample sample =
        Ingest(stream, policy, 0xF11 + static_cast<uint64_t>(policy));
    ASSERT_GT(sample.c(), 0);
    for (const auto& predicate : Predicates(sample)) {
      SCOPED_TRACE(name + " policy " +
                   std::to_string(static_cast<int>(policy)) + " " +
                   predicate.first);
      const Keep& keep = predicate.second;
      int64_t calls = 0;
      IntegratedSample filtered = sample.Filter([&](const EntityStat& e) {
        ++calls;
        return keep(e);
      });
      EXPECT_EQ(calls, sample.c());
      IntegratedSample reference = ReferenceFilter(sample, keep);
      ExpectIdentical(filtered, reference);

      // A filtered sample is a full sample: filtering it again and Add-ing
      // to it (an existing entity from an existing source, an existing
      // entity from a new source, a new entity) keep matching the oracle.
      const Keep every_other = [](const EntityStat& e) {
        return e.key.size() % 2 == 0;
      };
      ExpectIdentical(filtered.Filter(every_other),
                      ReferenceFilter(reference, every_other));
      if (filtered.c() > 0) {
        const std::string source = filtered.source_names().front();
        const std::string key = filtered.entities().front().key;
        for (IntegratedSample* s : {&filtered, &reference}) {
          s->Add(source, key, 7.5, "delta");
          s->Add("late-source", key, 7.5);
          s->Add("late-source", "late entity", 3.0, "delta");
          s->Add(source, "late entity", 4.0);
        }
        ExpectIdentical(filtered, reference);
      }
    }
  }
}

TEST(FilterOracle, ServeScaleHeavyTailCrowd) {
  const std::vector<Observation> stream = ServeScaleCrowd();
  ASSERT_EQ(stream.size(), 20000u);
  CheckAgainstOracle(stream, "heavy-tail");
}

TEST(FilterOracle, PaperScenarios) {
  for (const Scenario& scenario :
       {scenarios::UsTechEmployment(), scenarios::UsTechRevenue(),
        scenarios::UsGdp(), scenarios::ProtonBeam()}) {
    CheckAgainstOracle(scenario.stream, scenario.name);
  }
}

TEST(FilterOracle, EmptySample) {
  const IntegratedSample empty(FusionPolicy::kMajority);
  int64_t calls = 0;
  const IntegratedSample filtered = empty.Filter([&](const EntityStat&) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0);
  ExpectIdentical(filtered, ReferenceFilter(empty, [](const EntityStat&) {
                    return true;
                  }));
}

}  // namespace
}  // namespace uuq
