// Fuzz suite for the memoized + pruned dynamic split scan.
//
// The reference (tests/support/reference_partitioner.h) is a straight port
// of the original exhaustive scan: every bucket re-walks its cut list and
// evaluates BOTH |Δ| halves of every candidate, no memo arena, no pruning.
// The production DynamicPartitioner must produce bit-identical bucket
// boundaries — and, through the bootstrap, bit-identical interval
// endpoints — on every input we can throw at it: tie-heavy, constant-value,
// single-entity, all-singleton (infinite deltas), negative values, random
// bootstrap replicates through the scratch path, and a benchmark-scale
// heavy-tail crowd.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/frequency.h"
#include "core/naive.h"
#include "integration/sample.h"
#include "integration/sample_view.h"
#include "simulation/crowd.h"
#include "simulation/population.h"
#include "support/reference_partitioner.h"

namespace uuq {
namespace {

std::vector<size_t> ReferenceDynamicPartition(const SortedEntityIndex& index,
                                              const StatsSumEstimator& inner) {
  return ReferenceDynamicPartitioner().Partition(index, inner);
}

void ExpectSamePartition(const SortedEntityIndex& index,
                         const StatsSumEstimator& inner,
                         const std::string& what) {
  ASSERT_EQ(DynamicPartitioner().Partition(index, inner),
            ReferenceDynamicPartition(index, inner))
      << what;
}

SortedEntityIndex IndexOf(const std::vector<EntityPoint>& points) {
  return SortedEntityIndex(std::vector<EntityPoint>(points));
}

TEST(PartitionMemoFuzz, RandomSamplesMatchUnmemoizedScan) {
  Rng rng(0xF42);
  const NaiveEstimator naive;
  const FrequencyEstimator freq;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(400));
    std::vector<EntityPoint> points;
    points.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      points.push_back({rng.NextUniform(-100.0, 1000.0),
                        1 + static_cast<int64_t>(rng.NextBounded(5))});
    }
    const SortedEntityIndex index = IndexOf(points);
    ExpectSamePartition(index, naive, "random/naive trial " +
                                          std::to_string(trial));
    ExpectSamePartition(index, freq,
                        "random/freq trial " + std::to_string(trial));
  }
}

TEST(PartitionMemoFuzz, TieHeavySamplesMatchUnmemoizedScan) {
  // Few distinct values, many multiplicity ties: stresses the equal-value
  // run boundaries the child cut lists inherit and the first-minimum
  // tie-break among equal candidate totals.
  Rng rng(0xF43);
  const NaiveEstimator naive;
  for (int trial = 0; trial < 40; ++trial) {
    const int distinct = 2 + static_cast<int>(rng.NextBounded(6));
    const int n = 20 + static_cast<int>(rng.NextBounded(300));
    std::vector<EntityPoint> points;
    for (int i = 0; i < n; ++i) {
      points.push_back(
          {static_cast<double>(rng.NextBounded(distinct)) * 10.0,
           1 + static_cast<int64_t>(rng.NextBounded(3))});
    }
    ExpectSamePartition(IndexOf(points), naive,
                        "tie-heavy trial " + std::to_string(trial));
  }
}

TEST(PartitionMemoFuzz, ConstantValueSampleIsOneBucket) {
  const NaiveEstimator naive;
  std::vector<EntityPoint> points(50, EntityPoint{7.5, 2});
  points[10].multiplicity = 1;
  const SortedEntityIndex index = IndexOf(points);
  ExpectSamePartition(index, naive, "constant-value");
  // No legal cut exists inside a single equal-value run.
  const std::vector<size_t> bounds =
      DynamicPartitioner().Partition(index, naive);
  EXPECT_EQ(bounds, (std::vector<size_t>{0, 50}));
}

TEST(PartitionMemoFuzz, SingleEntityAndEmptySamples) {
  const NaiveEstimator naive;
  ExpectSamePartition(IndexOf({{3.0, 4}}), naive, "single entity");
  ExpectSamePartition(IndexOf({{3.0, 1}}), naive, "single singleton");
  ExpectSamePartition(SortedEntityIndex(std::vector<EntityPoint>{}), naive,
                      "empty");
}

TEST(PartitionMemoFuzz, AllSingletonSamplesExerciseInfiniteDeltas) {
  // Every slice is all-singletons, so every |Δ| is +inf: the scan must take
  // the infinity-aware delta_rest recomputation on every bucket and still
  // match the reference (including through the memoized child deltas).
  Rng rng(0xF44);
  const NaiveEstimator naive;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(60));
    std::vector<EntityPoint> points;
    for (int i = 0; i < n; ++i) {
      points.push_back({rng.NextUniform(0.0, 50.0), 1});
    }
    ExpectSamePartition(IndexOf(points), naive,
                        "all-singleton trial " + std::to_string(trial));
  }
}

TEST(PartitionMemoFuzz, BootstrapReplicatesThroughScratchMatchReference) {
  // The replicate path: indexes rebuilt through IndexScratch (incremental
  // re-sort) and partitioned through the scratch-owned memo arena, many
  // replicates through ONE scratch — each must match the reference scan on
  // its own index.
  Rng rng(0xF45);
  IntegratedSample sample;
  for (int i = 0; i < 400; ++i) {
    sample.Add("s" + std::to_string(rng.NextBounded(12)),
               "e" + std::to_string(rng.NextBounded(150)),
               rng.NextUniform(-50.0, 500.0));
  }
  const SampleView view(sample);
  const NaiveEstimator naive;
  const DynamicPartitioner dynamic;
  ReplicateScratch rscratch;
  ReplicateSample rep;
  IndexScratch iscratch;
  // ONE partition scratch shared across every round: its cross-call
  // root_cut_hint goes warm after round 0, so this also pins that the
  // probe-seeded pruning never changes boundaries.
  PartitionScratch pscratch;
  std::vector<size_t> bounds;
  for (int round = 0; round < 25; ++round) {
    std::vector<int32_t> draws;
    view.DrawBootstrapSources(&rng, &draws);
    view.BuildReplicate(draws, &rscratch, &rep);
    const SortedEntityIndex& index = iscratch.RebuildIndex(rep);
    dynamic.PartitionInto(index, naive, &pscratch, &bounds);
    EXPECT_EQ(bounds, ReferenceDynamicPartition(index, naive))
        << "replicate round " << round;
    EXPECT_EQ(dynamic.Partition(index, naive), bounds)
        << "warm-hint scratch vs fresh scratch, round " << round;
  }
}

TEST(PartitionMemoFuzz, IntervalEndpointsBitIdenticalAcrossPathsAndThreads) {
  // End to end: the memoized scan feeds both evaluation modes, so columnar,
  // materialized, 1-thread, and 8-thread bootstrap intervals must all agree
  // bit for bit.
  Rng rng(0xF46);
  IntegratedSample sample;
  for (int i = 0; i < 500; ++i) {
    sample.Add("s" + std::to_string(rng.NextBounded(15)),
               "e" + std::to_string(rng.NextBounded(200)),
               rng.NextUniform(0.0, 300.0));
  }
  const BucketSumEstimator bucket;
  ThreadPool serial(1);
  ThreadPool wide(8);
  BootstrapOptions options;
  options.replicates = 32;

  options.pool = &serial;
  options.evaluation = ReplicateEvaluation::kColumnar;
  const BootstrapInterval col1 = BootstrapCorrectedSum(sample, bucket, options);
  options.pool = &wide;
  const BootstrapInterval col8 = BootstrapCorrectedSum(sample, bucket, options);
  options.evaluation = ReplicateEvaluation::kMaterialized;
  const BootstrapInterval mat8 = BootstrapCorrectedSum(sample, bucket, options);

  EXPECT_EQ(col1.lo, col8.lo);
  EXPECT_EQ(col1.hi, col8.hi);
  EXPECT_EQ(col1.median, col8.median);
  EXPECT_EQ(col1.lo, mat8.lo);
  EXPECT_EQ(col1.hi, mat8.hi);
  EXPECT_EQ(col1.median, mat8.median);
  ASSERT_EQ(col1.replicates.size(), mat8.replicates.size());
  for (size_t i = 0; i < col1.replicates.size(); ++i) {
    EXPECT_EQ(col1.replicates[i], mat8.replicates[i]) << i;
  }
}

TEST(PartitionMemoFuzz, HeavyTailCrowdAtBenchmarkScaleMatchesReference) {
  // The serve-distinct sample shape: a 20k-item heavy-tail population seen
  // by 200 crowd sources x 100 answers (~8.7k distinct entities, so the
  // root scan runs thousands of candidates through the batched kernel).
  // The partition and a B=48 interval must
  // match the reference partitioner bit for bit.
  HeavyTailPopulationConfig population_config;
  population_config.num_items = 20000;
  population_config.seed = 0x5E12;
  const Population population = MakeHeavyTailPopulation(population_config);
  CrowdConfig crowd;
  crowd.num_workers = 200;
  crowd.answers_per_worker = 100;
  crowd.seed = 0x5E13;
  IntegratedSample sample;
  for (const Observation& obs :
       CrowdSimulator(&population, crowd).GenerateStream()) {
    sample.Add(obs);
  }
  ASSERT_GT(sample.c(), 5000);

  const NaiveEstimator naive;
  const SortedEntityIndex index(sample.entities());
  const std::vector<size_t> bounds =
      DynamicPartitioner().Partition(index, naive);
  EXPECT_GT(bounds.size(), 2u) << "the scan should split this sample";
  EXPECT_EQ(bounds, ReferenceDynamicPartition(index, naive));

  const BucketSumEstimator production;
  const BucketSumEstimator reference(
      std::make_shared<ReferenceDynamicPartitioner>(),
      std::make_shared<NaiveEstimator>());
  ThreadPool serial(1);
  BootstrapOptions options;
  options.replicates = 48;
  options.pool = &serial;
  const BootstrapInterval got =
      BootstrapCorrectedSum(sample, production, options);
  const BootstrapInterval want =
      BootstrapCorrectedSum(sample, reference, options);
  EXPECT_EQ(got.point, want.point);
  EXPECT_EQ(got.lo, want.lo);
  EXPECT_EQ(got.hi, want.hi);
  EXPECT_EQ(got.median, want.median);
  EXPECT_EQ(got.replicates, want.replicates);
}

}  // namespace
}  // namespace uuq
