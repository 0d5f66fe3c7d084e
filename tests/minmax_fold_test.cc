// MinMaxEstimator::ObservedExtreme (the one-pass fold behind MIN/MAX
// bootstrap intervals) against the partition it replaces: the fold must
// return EstimateMax/EstimateMin(...).observed_extreme bit for bit — the
// extreme bucket's bound, i.e. the end point of the canonical (value,
// multiplicity) index — for every fusion policy, for view-gathered,
// view-free and materialized replicates, and for the edge cases where the
// fold falls back to the partition. At query level, CorrectSql's MIN/MAX
// bootstrap must equal a BootstrapAggregate driven by the partition closure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bootstrap.h"
#include "core/minmax.h"
#include "core/query_correction.h"
#include "integration/sample.h"
#include "integration/sample_view.h"
#include "simulation/crowd.h"
#include "simulation/population.h"
#include "simulation/scenarios.h"

namespace uuq {
namespace {

constexpr FusionPolicy kPolicies[] = {FusionPolicy::kAverage,
                                      FusionPolicy::kFirst,
                                      FusionPolicy::kLast,
                                      FusionPolicy::kMajority};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// The replicate statistic the MIN/MAX interval used before the fold.
double PartitionExtreme(const MinMaxEstimator& minmax,
                        const ReplicateSample& rep, bool want_max) {
  return (want_max ? minmax.EstimateMax(rep) : minmax.EstimateMin(rep))
      .observed_extreme;
}

double PartitionExtreme(const MinMaxEstimator& minmax,
                        const IntegratedSample& sample, bool want_max) {
  return (want_max ? minmax.EstimateMax(sample) : minmax.EstimateMin(sample))
      .observed_extreme;
}

void ExpectFoldMatches(const MinMaxEstimator& minmax,
                       const ReplicateSample& rep) {
  for (bool want_max : {true, false}) {
    SCOPED_TRACE(want_max ? "max" : "min");
    EXPECT_EQ(Bits(minmax.ObservedExtreme(rep, want_max)),
              Bits(PartitionExtreme(minmax, rep, want_max)));
  }
}

void ExpectFoldMatches(const MinMaxEstimator& minmax,
                       const IntegratedSample& sample) {
  for (bool want_max : {true, false}) {
    SCOPED_TRACE(want_max ? "max" : "min");
    EXPECT_EQ(Bits(minmax.ObservedExtreme(sample, want_max)),
              Bits(PartitionExtreme(minmax, sample, want_max)));
  }
}

/// Crowd disagreement the exact simulators lack (each report scaled by one
/// of a few levels), so every fusion policy fuses differently. `sign`
/// negates and `shift` offsets every report.
IntegratedSample Ingest(const std::vector<Observation>& stream,
                        FusionPolicy policy, uint64_t seed, double sign = 1.0,
                        double shift = 0.0) {
  static const double kScale[] = {1.0, 1.0, 1.25, 0.75};
  Rng rng(seed);
  IntegratedSample sample(policy);
  for (const Observation& obs : stream) {
    sample.Add(obs.source_id, obs.entity_key,
               sign * obs.value * kScale[rng.NextBounded(4)] + shift);
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

/// Bootstrap and leave-one-out replicates of `sample`: view-gathered,
/// view-free (the full-sort index path) and materialized.
void CheckReplicates(const IntegratedSample& sample, uint64_t seed,
                     int bootstrap_draws, int materialized_draws) {
  const MinMaxEstimator minmax;
  ExpectFoldMatches(minmax, sample);
  const SampleView view(sample);
  Rng rng(seed);
  ReplicateScratch scratch;
  ReplicateSample rep;
  std::vector<int32_t> draws;
  for (int b = 0; b < bootstrap_draws; ++b) {
    SCOPED_TRACE("replicate " + std::to_string(b));
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &scratch, &rep);
    ASSERT_EQ(rep.view, &view);
    ExpectFoldMatches(minmax, rep);
    ReplicateSample detached = rep;
    detached.view = nullptr;
    ExpectFoldMatches(minmax, detached);
    if (b < materialized_draws) {
      ExpectFoldMatches(minmax, view.MaterializeReplicate(draws));
    }
  }
  for (int32_t s = 0; s < std::min<int64_t>(3, view.num_sources()); ++s) {
    SCOPED_TRACE("leave out " + std::to_string(s));
    view.BuildLeaveOneOut(s, &scratch, &rep);
    ExpectFoldMatches(minmax, rep);
  }
}

TEST(ExtremeFold, ServeScaleHeavyTailCrowd) {
  const std::vector<Observation> stream = ServeScaleCrowd();
  ASSERT_EQ(stream.size(), 20000u);
  for (FusionPolicy policy : kPolicies) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    const IntegratedSample sample =
        Ingest(stream, policy, 0xE1 + static_cast<uint64_t>(policy));
    CheckReplicates(sample, 0xF0 + static_cast<uint64_t>(policy),
                    /*bootstrap_draws=*/12, /*materialized_draws=*/2);
    // The filtered samples serve-distinct's predicates produce.
    std::vector<double> values = sample.Values();
    std::sort(values.begin(), values.end());
    const double t = values[values.size() / 3];
    CheckReplicates(
        sample.Filter([t](const EntityStat& e) { return e.value > t; }),
        0xF8 + static_cast<uint64_t>(policy), 6, 1);
  }
}

TEST(ExtremeFold, PaperScenarios) {
  for (const Scenario& scenario :
       {scenarios::UsTechEmployment(), scenarios::UsTechRevenue(),
        scenarios::UsGdp(), scenarios::ProtonBeam()}) {
    for (FusionPolicy policy : kPolicies) {
      SCOPED_TRACE(scenario.name + " policy " +
                   std::to_string(static_cast<int>(policy)));
      CheckReplicates(Ingest(scenario.stream, policy, 0xA5), 0x5A, 16, 4);
    }
  }
}

TEST(ExtremeFold, NegativeAndMixedSignValues) {
  const Scenario scenario = scenarios::UsTechEmployment();
  for (FusionPolicy policy : kPolicies) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    // All negative, then straddling zero.
    CheckReplicates(Ingest(scenario.stream, policy, 0xB6, -1.0), 0x6B, 12, 2);
    CheckReplicates(Ingest(scenario.stream, policy, 0xB7, 1.0, -500.0), 0x7B,
                    12, 2);
  }
}

/// A hand-assembled replicate with no view: the index path copies and fully
/// sorts every point, multiplicity-0 ones included.
ReplicateSample HandReplicate(std::vector<EntityPoint> points) {
  ReplicateSample rep;
  rep.entities = std::move(points);
  return rep;
}

TEST(ExtremeFold, HandAssembledEdgeCases) {
  const MinMaxEstimator minmax;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::string name;
    std::vector<EntityPoint> points;
  };
  const std::vector<Case> cases = {
      {"empty", {}},
      {"single", {{4.5, 2}}},
      {"negative", {{-5.0, 2}, {-1.0, 1}, {-3.0, 4}}},
      {"value ties", {{7.0, 1}, {7.0, 3}, {2.0, 1}, {2.0, 2}}},
      {"+0 max over -0", {{-2.0, 1}, {-0.0, 1}, {0.0, 2}}},
      {"-0 max over +0", {{-2.0, 1}, {-0.0, 2}, {0.0, 1}}},
      {"zero tie", {{0.0, 1}, {-0.0, 1}, {3.0, 1}, {-0.0, 1}, {0.0, 1}}},
      {"zero both ends", {{0.0, 1}, {-0.0, 1}}},
      {"nan", {{1.0, 1}, {nan, 1}, {3.0, 2}}},
      {"nan sorted last", {{3.0, 1}, {nan, 1}, {1.0, 1}}},
      {"nan only", {{nan, 2}}},
      {"infinities", {{inf, 1}, {-inf, 2}, {1.0, 1}}},
      {"multiplicity 0 extreme", {{1.0, 1}, {9.0, 0}, {-4.0, 0}, {3.0, 2}}},
      {"negative multiplicity", {{1.0, 1}, {5.0, -1}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ReplicateSample rep = HandReplicate(c.points);
    ASSERT_EQ(rep.view, nullptr);
    ExpectFoldMatches(minmax, rep);
  }
  EXPECT_EQ(Bits(minmax.ObservedExtreme(HandReplicate({}), true)),
            Bits(0.0));
  const ReplicateSample negative = HandReplicate({{-5.0, 2}, {-1.0, 1}});
  EXPECT_EQ(minmax.ObservedExtreme(negative, true), -1.0);
  EXPECT_EQ(minmax.ObservedExtreme(negative, false), -5.0);
}

TEST(ExtremeFold, MultiplicityZeroPointOfAViewReplicate) {
  // The view-gathered index drops multiplicity-0 points, so a zeroed
  // entity that would be the extreme is not the partition's extreme.
  const Scenario scenario = scenarios::UsTechRevenue();
  const IntegratedSample sample =
      Ingest(scenario.stream, FusionPolicy::kAverage, 0xC3);
  const SampleView view(sample);
  const MinMaxEstimator minmax;
  Rng rng(0x3C);
  ReplicateScratch scratch;
  ReplicateSample rep;
  std::vector<int32_t> draws;
  view.DrawBootstrapSources(&rng, &draws);
  view.BuildReplicate(draws, &scratch, &rep);
  ASSERT_GE(rep.entities.size(), 2u);
  const double top = minmax.ObservedExtreme(rep, true);
  const double bottom = minmax.ObservedExtreme(rep, false);
  rep.entities[0].multiplicity = 0;
  rep.entities[0].value = top + 1.0;
  rep.entities[1].multiplicity = 0;
  rep.entities[1].value = bottom - 1.0;
  ExpectFoldMatches(minmax, rep);
  ReplicateSample detached = rep;
  detached.view = nullptr;
  ExpectFoldMatches(minmax, detached);
}

TEST(ExtremeFold, IntegratedSampleEdgeCases) {
  const MinMaxEstimator minmax;
  ExpectFoldMatches(minmax, IntegratedSample());
  IntegratedSample zeros;
  zeros.Add("s1", "a", -0.0);
  zeros.Add("s2", "b", 0.0);
  zeros.Add("s1", "c", -3.0);
  ExpectFoldMatches(minmax, zeros);
  IntegratedSample with_nan;
  with_nan.Add("s1", "a", 2.0);
  with_nan.Add("s2", "b", std::numeric_limits<double>::quiet_NaN());
  ExpectFoldMatches(minmax, with_nan);
}

void ExpectSameInterval(const BootstrapInterval& got,
                        const BootstrapInterval& want) {
  EXPECT_EQ(Bits(got.point), Bits(want.point));
  EXPECT_EQ(Bits(got.lo), Bits(want.lo));
  EXPECT_EQ(Bits(got.hi), Bits(want.hi));
  EXPECT_EQ(Bits(got.median), Bits(want.median));
  EXPECT_EQ(got.finite_replicates, want.finite_replicates);
  ASSERT_EQ(got.replicates.size(), want.replicates.size());
  for (size_t i = 0; i < want.replicates.size(); ++i) {
    ASSERT_EQ(Bits(got.replicates[i]), Bits(want.replicates[i]))
        << "replicate " << i;
  }
  EXPECT_FALSE(got.aborted);
}

void CheckQueries(const IntegratedSample& sample, double threshold) {
  for (ReplicateEvaluation evaluation :
       {ReplicateEvaluation::kAuto, ReplicateEvaluation::kMaterialized}) {
    QueryCorrector::Options options;
    options.attach_bootstrap = true;
    options.bootstrap.replicates = 24;
    options.bootstrap.evaluation = evaluation;
    const QueryCorrector corrector(options);
    const MinMaxEstimator minmax;
    for (bool want_max : {true, false}) {
      for (bool filtered : {false, true}) {
        const std::string sql =
            std::string("SELECT ") + (want_max ? "MAX" : "MIN") +
            "(value) FROM integrated" +
            (filtered ? " WHERE value > " + std::to_string(threshold) : "");
        SCOPED_TRACE(sql + (evaluation == ReplicateEvaluation::kAuto
                                ? " [auto]"
                                : " [materialized]"));
        auto answer = corrector.CorrectSql(sample, sql);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        ASSERT_TRUE(answer.value().bootstrap_valid);

        const IntegratedSample base =
            filtered ? sample.Filter([threshold](const EntityStat& e) {
              return e.value > threshold;
            })
                     : sample;
        ASSERT_GT(base.c(), 0);
        EXPECT_EQ(Bits(answer.value().observed),
                  Bits(PartitionExtreme(minmax, base, want_max)));
        const BootstrapInterval reference = BootstrapAggregate(
            base, answer.value().corrected,
            [&](const ReplicateSample& rep) {
              return PartitionExtreme(minmax, rep, want_max);
            },
            [&](const IntegratedSample& resampled) {
              return PartitionExtreme(minmax, resampled, want_max);
            },
            options.bootstrap);
        ExpectSameInterval(answer.value().bootstrap, reference);
      }
    }
  }
}

TEST(ExtremeFoldQuery, CorrectSqlMatchesPartitionClosure) {
  const IntegratedSample crowd =
      Ingest(ServeScaleCrowd(), FusionPolicy::kAverage, 0xD1);
  CheckQueries(crowd, 100.0);
  const Scenario scenario = scenarios::UsTechEmployment();
  CheckQueries(Ingest(scenario.stream, FusionPolicy::kMajority, 0xD2), 50.0);
}

}  // namespace
}  // namespace uuq
