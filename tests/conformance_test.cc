// Estimator conformance suite for the columnar bootstrap engine.
//
// Two layers of guarantees:
//  1. OLD vs NEW: for every estimator with a columnar replicate path, the
//     columnar bootstrap/jackknife must agree with the materializing
//     reference path (ReplicateEvaluation::kMaterialized — the exact
//     pre-columnar semantics, replicate for replicate) within 1e-9 relative
//     tolerance. In practice the paths are bit-identical for the
//     kAverage/kFirst/kLast fusion policies; the tolerance documents the
//     contract, not the observed slack.
//  2. GOLDEN: fixed-seed end-to-end estimates on the paper's calibrated
//     scenarios, pinned with a loose relative tolerance so a platform's FP
//     contraction choices can't flake the suite while genuine estimator
//     regressions still trip it.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/frequency.h"
#include "core/monte_carlo.h"
#include "core/naive.h"
#include "core/query_correction.h"
#include "simulation/crowd.h"
#include "simulation/population.h"
#include "simulation/scenarios.h"

namespace uuq {
namespace {

constexpr double kOldNewRelTol = 1e-9;

void ExpectRelNear(double actual, double expected, double rel_tol,
                   const std::string& what) {
  const double scale = std::max({std::fabs(actual), std::fabs(expected), 1.0});
  EXPECT_NEAR(actual, expected, rel_tol * scale) << what;
}

void ExpectIntervalsAgree(const BootstrapInterval& a,
                          const BootstrapInterval& b, double rel_tol,
                          const std::string& what) {
  ExpectRelNear(a.point, b.point, rel_tol, what + ".point");
  ExpectRelNear(a.lo, b.lo, rel_tol, what + ".lo");
  ExpectRelNear(a.hi, b.hi, rel_tol, what + ".hi");
  ExpectRelNear(a.median, b.median, rel_tol, what + ".median");
  EXPECT_EQ(a.finite_replicates, b.finite_replicates) << what;
  ASSERT_EQ(a.replicates.size(), b.replicates.size()) << what;
  for (size_t i = 0; i < a.replicates.size(); ++i) {
    ExpectRelNear(a.replicates[i], b.replicates[i], rel_tol,
                  what + ".replicates[" + std::to_string(i) + "]");
  }
}

IntegratedSample SyntheticSample(uint64_t seed = 3,
                                 FusionPolicy policy = FusionPolicy::kAverage) {
  SyntheticPopulationConfig pop;
  pop.num_items = 100;
  pop.lambda = 1.0;
  pop.rho = 1.0;
  pop.seed = seed;
  const Population population = MakeSyntheticPopulation(pop);
  CrowdConfig crowd;
  crowd.num_workers = 20;
  crowd.answers_per_worker = 20;
  crowd.seed = seed + 1;
  IntegratedSample sample(policy);
  for (const Observation& obs :
       CrowdSimulator(&population, crowd).GenerateStream()) {
    sample.Add(obs);
  }
  return sample;
}

IntegratedSample StreakerSample() {
  IntegratedSample sample = SyntheticSample(5);
  for (int i = 0; i < 500; ++i) {
    sample.Add("streaker", "extra-" + std::to_string(i % 150), 50.0 + i % 150);
  }
  return sample;
}

IntegratedSample PaperSample(int64_t n = 400) {
  const Scenario scenario = scenarios::UsTechEmployment();
  IntegratedSample sample;
  for (int64_t i = 0;
       i < n && i < static_cast<int64_t>(scenario.stream.size()); ++i) {
    sample.Add(scenario.stream[i]);
  }
  return sample;
}

BootstrapInterval RunBootstrap(const IntegratedSample& sample,
                               const SumEstimator& estimator,
                               ReplicateEvaluation evaluation,
                               int replicates = 32) {
  BootstrapOptions options;
  options.replicates = replicates;
  options.evaluation = evaluation;
  return BootstrapCorrectedSum(sample, estimator, options);
}

void ExpectOldNewBootstrapAgree(const IntegratedSample& sample,
                                const SumEstimator& estimator,
                                const std::string& what, int replicates = 32) {
  ASSERT_TRUE(estimator.SupportsReplicates()) << what;
  const BootstrapInterval columnar =
      RunBootstrap(sample, estimator, ReplicateEvaluation::kColumnar,
                   replicates);
  const BootstrapInterval materialized =
      RunBootstrap(sample, estimator, ReplicateEvaluation::kMaterialized,
                   replicates);
  ExpectIntervalsAgree(columnar, materialized, kOldNewRelTol, what);
}

// ---------------------------------------------------------------------------
// Old vs new, per estimator.
// ---------------------------------------------------------------------------

TEST(BootstrapConformance, BucketColumnarMatchesMaterialized) {
  ExpectOldNewBootstrapAgree(SyntheticSample(), BucketSumEstimator(),
                             "bucket/synthetic");
  ExpectOldNewBootstrapAgree(PaperSample(), BucketSumEstimator(),
                             "bucket/us-tech");
}

TEST(BootstrapConformance, NaiveAndFrequencyColumnarMatchesMaterialized) {
  ExpectOldNewBootstrapAgree(SyntheticSample(), NaiveEstimator(),
                             "naive/synthetic");
  ExpectOldNewBootstrapAgree(SyntheticSample(7), FrequencyEstimator(),
                             "frequency/synthetic");
}

TEST(BootstrapConformance, MonteCarloColumnarMatchesMaterialized) {
  MonteCarloOptions options;
  options.runs_per_point = 2;
  options.n_grid_steps = 4;
  ExpectOldNewBootstrapAgree(SyntheticSample(11), MonteCarloEstimator(options),
                             "monte-carlo/synthetic", /*replicates=*/8);
}

TEST(BootstrapConformance, MonteCarloColumnarMatchesMaterializedUnderStreaker) {
  // The §6.5 advisor sends a streaker sample to Monte Carlo; its columnar
  // replicates must match the materialized ones there too.
  MonteCarloOptions options;
  options.runs_per_point = 2;
  options.n_grid_steps = 4;
  ExpectOldNewBootstrapAgree(StreakerSample(), MonteCarloEstimator(options),
                             "monte-carlo/streaker", /*replicates=*/8);
}

TEST(BootstrapConformance, FusionPoliciesColumnarMatchesMaterialized) {
  ExpectOldNewBootstrapAgree(SyntheticSample(9, FusionPolicy::kFirst),
                             BucketSumEstimator(), "bucket/first");
  ExpectOldNewBootstrapAgree(SyntheticSample(9, FusionPolicy::kLast),
                             BucketSumEstimator(), "bucket/last");
  ExpectOldNewBootstrapAgree(SyntheticSample(9, FusionPolicy::kMajority),
                             BucketSumEstimator(), "bucket/majority");
}

TEST(BootstrapConformance, MajorityPolicyRunsColumnarUnderAuto) {
  // kMajority now folds columnar (report-slot histogram), so kAuto must take
  // the columnar path and still agree with the materializing reference.
  const IntegratedSample sample = SyntheticSample(9, FusionPolicy::kMajority);
  const BucketSumEstimator bucket;
  const BootstrapInterval auto_path =
      RunBootstrap(sample, bucket, ReplicateEvaluation::kAuto);
  const BootstrapInterval columnar =
      RunBootstrap(sample, bucket, ReplicateEvaluation::kColumnar);
  const BootstrapInterval materialized =
      RunBootstrap(sample, bucket, ReplicateEvaluation::kMaterialized);
  ExpectIntervalsAgree(auto_path, columnar, 0.0, "bucket/majority-auto");
  ExpectIntervalsAgree(auto_path, materialized, kOldNewRelTol,
                       "bucket/majority-materialized");
}

TEST(JackknifeConformance, ColumnarMatchesMaterialized) {
  const IntegratedSample sample = SyntheticSample();
  const BucketSumEstimator bucket;
  const NaiveEstimator naive;
  for (const SumEstimator* estimator :
       {static_cast<const SumEstimator*>(&bucket),
        static_cast<const SumEstimator*>(&naive)}) {
    const JackknifeInterval a = JackknifeCorrectedSum(
        sample, *estimator, 1.96, nullptr, ReplicateEvaluation::kColumnar);
    const JackknifeInterval b = JackknifeCorrectedSum(
        sample, *estimator, 1.96, nullptr, ReplicateEvaluation::kMaterialized);
    ExpectRelNear(a.point, b.point, kOldNewRelTol, "jk.point");
    ExpectRelNear(a.standard_error, b.standard_error, kOldNewRelTol, "jk.se");
    ExpectRelNear(a.lo, b.lo, kOldNewRelTol, "jk.lo");
    ExpectRelNear(a.hi, b.hi, kOldNewRelTol, "jk.hi");
    EXPECT_EQ(a.finite_replicates, b.finite_replicates);
  }
}

TEST(ResampleSourcesConformance, AdapterMatchesViewMaterialization) {
  // The thin adapter must reproduce SampleView's draw + materialize for the
  // same Rng state — entity for entity.
  const IntegratedSample sample = SyntheticSample();
  Rng a(123), b(123);
  const IntegratedSample via_adapter = ResampleSources(sample, &a);
  const SampleView view(sample);
  std::vector<int32_t> draws;
  view.DrawBootstrapSources(&b, &draws);
  const IntegratedSample via_view = view.MaterializeReplicate(draws);
  ASSERT_EQ(via_adapter.n(), via_view.n());
  ASSERT_EQ(via_adapter.c(), via_view.c());
  for (int64_t i = 0; i < via_adapter.c(); ++i) {
    EXPECT_EQ(via_adapter.entities()[i].key, via_view.entities()[i].key);
    EXPECT_DOUBLE_EQ(via_adapter.entities()[i].value,
                     via_view.entities()[i].value);
  }
  EXPECT_EQ(via_adapter.SourceSizeVector(), via_view.SourceSizeVector());
}

// ---------------------------------------------------------------------------
// Golden fixed-seed scenario estimates (loose tolerance: FP contraction may
// differ across compilers; estimator regressions are orders louder).
// ---------------------------------------------------------------------------

constexpr double kGoldenRelTol = 1e-6;

TEST(GoldenConformance, UsTechEmploymentBucketBootstrap) {
  const IntegratedSample sample = PaperSample(400);
  const BucketSumEstimator bucket;
  BootstrapOptions options;
  options.replicates = 48;
  const BootstrapInterval interval =
      BootstrapCorrectedSum(sample, bucket, options);
  ExpectRelNear(interval.point, 3652759.39, kGoldenRelTol, "point");
  ExpectRelNear(interval.lo, 2074518.184, kGoldenRelTol, "lo");
  ExpectRelNear(interval.hi, 2758483.274, kGoldenRelTol, "hi");
  ExpectRelNear(interval.median, 2378656.099, kGoldenRelTol, "median");
  EXPECT_EQ(interval.finite_replicates, 48);
}

TEST(GoldenConformance, UsTechEmploymentBucketJackknife) {
  const IntegratedSample sample = PaperSample(400);
  const JackknifeInterval jk =
      JackknifeCorrectedSum(sample, BucketSumEstimator());
  ExpectRelNear(jk.point, 3652759.39, kGoldenRelTol, "point");
  ExpectRelNear(jk.standard_error, 469481.4536, kGoldenRelTol, "se");
  ExpectRelNear(jk.lo, 2732575.741, kGoldenRelTol, "lo");
  ExpectRelNear(jk.hi, 4572943.039, kGoldenRelTol, "hi");
}

TEST(GoldenConformance, UsTechEmploymentNaiveBootstrap) {
  const IntegratedSample sample = PaperSample(400);
  BootstrapOptions options;
  options.replicates = 48;
  const BootstrapInterval interval =
      BootstrapCorrectedSum(sample, NaiveEstimator(), options);
  ExpectRelNear(interval.point, 8322380.614, kGoldenRelTol, "point");
  ExpectRelNear(interval.lo, 2674519.507, kGoldenRelTol, "lo");
  ExpectRelNear(interval.hi, 4945342.271, kGoldenRelTol, "hi");
}

// ---------------------------------------------------------------------------
// Query-level intervals ride the same engine.
// ---------------------------------------------------------------------------

TEST(QueryBootstrapConformance, AttachedIntervalsMatchAcrossPaths) {
  const IntegratedSample sample = SyntheticSample();
  for (const char* sql :
       {"SELECT SUM(value) FROM integrated", "SELECT COUNT(value) FROM integrated",
        "SELECT AVG(value) FROM integrated", "SELECT MAX(value) FROM integrated"}) {
    QueryCorrector::Options options;
    options.attach_bootstrap = true;
    options.bootstrap.replicates = 24;
    options.bootstrap.evaluation = ReplicateEvaluation::kAuto;
    const auto columnar = QueryCorrector(options).CorrectSql(sample, sql);
    ASSERT_TRUE(columnar.ok()) << sql;
    ASSERT_TRUE(columnar.value().bootstrap_valid) << sql;
    EXPECT_GT(columnar.value().bootstrap.finite_replicates, 0) << sql;
    EXPECT_LE(columnar.value().bootstrap.lo, columnar.value().bootstrap.hi)
        << sql;

    options.bootstrap.evaluation = ReplicateEvaluation::kMaterialized;
    const auto materialized = QueryCorrector(options).CorrectSql(sample, sql);
    ASSERT_TRUE(materialized.ok()) << sql;
    ExpectIntervalsAgree(columnar.value().bootstrap,
                         materialized.value().bootstrap, kOldNewRelTol, sql);
  }
}

}  // namespace
}  // namespace uuq
