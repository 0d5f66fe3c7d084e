// The traced run's decomposition (decompose.h). Each stage is the public
// call the corrector itself makes, built the way QueryCorrector builds it
// (core/query_correction.cc), so the staged point estimate and interval are
// checked bit for bit against CorrectSql on the same request.
#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "core/advisor.h"
#include "core/avg.h"
#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/count.h"
#include "core/minmax.h"
#include "core/monte_carlo.h"
#include "core/naive.h"
#include "db/schema.h"
#include "db/sql_parser.h"
#include "db/table.h"
#include "decompose.h"
#include "integration/sample_view.h"

namespace perfbench {
namespace {

using uuq::AggregateKind;
using uuq::IntegratedSample;

constexpr int kReplicateProbes = 4;
constexpr int kSpeedupEvery = 4;

/// The integrated view's columns as CorrectSql evaluates predicates on them.
const uuq::Schema& ViewSchema() {
  static const uuq::Schema schema({{"entity", uuq::ValueType::kString},
                                   {"value", uuq::ValueType::kDouble},
                                   {"observations", uuq::ValueType::kInt64},
                                   {"category", uuq::ValueType::kString}});
  return schema;
}

uuq::Row ViewRow(const uuq::EntityStat& e) {
  return uuq::Row{uuq::Value(e.key), uuq::Value(e.value),
                  uuq::Value(e.multiplicity),
                  e.category.empty() ? uuq::Value::Null()
                                     : uuq::Value(e.category)};
}

/// The estimator a query's aggregate and advice select, constructed exactly
/// as the corrector constructs it, with its point and replicate forms.
struct Stage {
  std::string point_span;      ///< "<layer>.point"
  std::string replicate_span;  ///< replicate-estimate span name
  std::unique_ptr<uuq::SumEstimator> sum;
  std::shared_ptr<uuq::BucketSumEstimator> bucket;  ///< partition probe
  std::unique_ptr<uuq::CountEstimator> count;
  std::unique_ptr<uuq::AvgEstimator> avg;
  std::unique_ptr<uuq::MinMaxEstimator> minmax;
  std::function<double(const uuq::ReplicateSample&)> columnar;
  std::function<double(const IntegratedSample&)> materialized;
  std::function<void(const uuq::ReplicateSample* const*, size_t, double*)>
      batch;
};

Stage MakeStage(AggregateKind kind, uuq::EstimatorChoice choice,
                const uuq::QueryCorrector::Options& options,
                uuq::ThreadPool* pool) {
  Stage st;
  uuq::MonteCarloOptions mc = options.advisor.mc_options;
  if (mc.pool == nullptr) mc.pool = pool;
  const auto bucket = [pool] {
    return std::make_shared<uuq::BucketSumEstimator>(
        std::make_shared<uuq::DynamicPartitioner>(pool),
        std::make_shared<uuq::NaiveEstimator>());
  };
  switch (kind) {
    case AggregateKind::kSum: {
      if (choice == uuq::EstimatorChoice::kMonteCarlo) {
        st.sum = std::make_unique<uuq::MonteCarloEstimator>(mc);
        st.point_span = "monte_carlo.point";
        st.replicate_span = "bootstrap.replicate_estimate.monte_carlo";
      } else {
        st.bucket = bucket();
        st.sum = std::make_unique<uuq::BucketSumEstimator>(
            std::make_shared<uuq::DynamicPartitioner>(
                pool, uuq::SplitScanMode::kBatched, uuq::CancelToken{}),
            std::make_shared<uuq::NaiveEstimator>());
        st.point_span = "bucket.point";
        st.replicate_span = "bootstrap.replicate_estimate.bucket";
      }
      const uuq::SumEstimator* est = st.sum.get();
      st.columnar = [est](const uuq::ReplicateSample& rep) {
        return est->EstimateReplicate(rep).corrected_sum;
      };
      st.materialized = [est](const IntegratedSample& s) {
        return est->EstimateImpact(s).corrected_sum;
      };
      if (est->SupportsReplicateBatch()) {
        st.batch = [est](const uuq::ReplicateSample* const* reps, size_t n,
                         double* out) {
          est->EstimateReplicateBatch(reps, n, out);
        };
      }
      break;
    }
    case AggregateKind::kCount: {
      const bool use_mc = choice == uuq::EstimatorChoice::kMonteCarlo;
      st.count = std::make_unique<uuq::CountEstimator>(
          use_mc ? uuq::CountMethod::kMonteCarlo : uuq::CountMethod::kChao92,
          mc);
      st.point_span = "count.point";
      st.replicate_span = use_mc ? "bootstrap.replicate_estimate.monte_carlo"
                                 : "bootstrap.replicate_estimate.count";
      const uuq::CountEstimator* est = st.count.get();
      st.columnar = [est](const uuq::ReplicateSample& rep) {
        return est->EstimateCount(rep).corrected_sum;
      };
      st.materialized = [est](const IntegratedSample& s) {
        return est->EstimateCount(s).corrected_sum;
      };
      break;
    }
    case AggregateKind::kAvg: {
      st.bucket = bucket();
      st.avg = std::make_unique<uuq::AvgEstimator>(bucket());
      st.point_span = "avg.point";
      st.replicate_span = "bootstrap.replicate_estimate.avg";
      const uuq::AvgEstimator* est = st.avg.get();
      st.columnar = [est](const uuq::ReplicateSample& rep) {
        return est->EstimateAvg(rep).corrected_sum;
      };
      st.materialized = [est](const IntegratedSample& s) {
        return est->EstimateAvg(s).corrected_sum;
      };
      break;
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      const bool want_max = kind == AggregateKind::kMax;
      st.bucket = bucket();
      st.minmax = std::make_unique<uuq::MinMaxEstimator>(
          bucket(), options.minmax_claim_threshold);
      st.point_span = "minmax.point";
      st.replicate_span = "bootstrap.replicate_estimate.minmax";
      const uuq::MinMaxEstimator* est = st.minmax.get();
      st.columnar = [est, want_max](const uuq::ReplicateSample& rep) {
        return (want_max ? est->EstimateMax(rep) : est->EstimateMin(rep))
            .observed_extreme;
      };
      st.materialized = [est, want_max](const IntegratedSample& s) {
        return (want_max ? est->EstimateMax(s) : est->EstimateMin(s))
            .observed_extreme;
      };
      break;
    }
  }
  return st;
}

/// The point estimate (already clamped as the corrector clamps it).
double Point(const Stage& st, AggregateKind kind, const IntegratedSample& s,
             const uuq::SamplePrecomp* pre) {
  const uuq::SampleStats stats = pre != nullptr && pre->stats != nullptr
                                     ? *pre->stats
                                     : uuq::SampleStats::FromSample(s);
  double point = 0.0;
  double observed = 0.0;
  switch (kind) {
    case AggregateKind::kSum:
      point = st.sum->EstimateImpact(s, pre).corrected_sum;
      observed = stats.value_sum;
      break;
    case AggregateKind::kCount:
      point = st.count->EstimateCount(s).corrected_sum;
      observed = static_cast<double>(stats.c);
      break;
    case AggregateKind::kAvg:
      point = st.avg->EstimateAvg(s).corrected_sum;
      observed = stats.ValueMean();
      break;
    case AggregateKind::kMin:
      return st.minmax->EstimateMin(s).observed_extreme;
    case AggregateKind::kMax:
      return st.minmax->EstimateMax(s).observed_extreme;
  }
  return std::isfinite(point) ? point : observed;
}

const char* ChoiceKey(uuq::EstimatorChoice choice) {
  switch (choice) {
    case uuq::EstimatorChoice::kBucket:
      return "bucket";
    case uuq::EstimatorChoice::kMonteCarlo:
      return "monte_carlo";
    case uuq::EstimatorChoice::kCollectMoreData:
      return "collect_more_data";
  }
  return "unknown";
}

}  // namespace

void Decompose(const std::vector<DecomposeTarget>& targets,
               uuq::ThreadPool* pool, double budget_s, uint64_t seed,
               Trace* trace, Decomposition* out) {
  uuq::ThreadPool serial(1);
  const auto start = Clock::now();
  int64_t request = 1000000;  // distinct from the serving phases' ids
  for (const DecomposeTarget& target : targets) {
    if (out->requests > 0 && Ms(start, Clock::now()) > budget_s * 1e3) break;
    ++request;
    ++out->requests;
    const Request& req = target.request;
    // A precision-targeted request runs the service's adaptive budget.
    uuq::QueryCorrector::Options options = ServedCorrection(48, req.epsilon);
    options.pool = pool;
    const bool cached = !req.has_predicate() && target.artifacts != nullptr;
    Trace& t = *trace;
    std::vector<Span> mine;  // this request's pipeline spans
    const auto span = [&t, &mine, request](const char* name, int64_t parent,
                                           double from) {
      const double to = t.NowUs();
      const int64_t id = t.Add(name, parent, request, from, to);
      if (parent >= 0) mine.push_back(Span{id, parent, request, name, from, to});
      return id;
    };

    // ---- the pipeline, in order ------------------------------------
    const int64_t root = t.Open();
    const double root_start = t.NowUs();
    double t0 = t.NowUs();
    auto parsed = uuq::ParseQuery(req.sql);
    const int64_t parse_span = span("db.parse", root, t0);
    if (!parsed.ok()) {
      ++out->mismatches;
      continue;
    }
    const IntegratedSample* sample = target.sample.get();
    IntegratedSample filtered;
    int64_t filter_span = -1;
    if (req.has_predicate()) {
      const uuq::AggregateQuery& query = parsed.value();
      t0 = t.NowUs();
      filtered = sample->Filter([&query](const uuq::EntityStat& e) {
        auto match = query.predicate->Eval(ViewRow(e), ViewSchema());
        return match.ok() && match.value();
      });
      filter_span = span("db.filter", root, t0);
      out->selectivity.push_back(
          sample->c() > 0 ? static_cast<double>(filtered.c()) /
                                static_cast<double>(sample->c())
                          : 0.0);
      sample = &filtered;
    }
    std::optional<uuq::SampleView> own_view;
    const uuq::SampleView* view = nullptr;
    int64_t view_span = -1;
    int64_t advise_span = -1;
    uuq::Advice advice;
    uuq::SamplePrecomp pre;
    if (cached) {
      pre = target.artifacts->precomp();
      view = pre.view;
      advice = *pre.advice;
    } else {
      t0 = t.NowUs();
      own_view.emplace(*sample);
      view = &*own_view;
      view_span = span("integration.view", root, t0);
      t0 = t.NowUs();
      advice = uuq::EstimatorAdvisor(options.advisor).Advise(*sample);
      advise_span = span("advisor.advise", root, t0);
    }
    ++out->choices[ChoiceKey(advice.choice)];
    const Stage st = MakeStage(req.kind, advice.choice, options, pool);
    t0 = t.NowUs();
    const double point = Point(st, req.kind, *sample, cached ? &pre : nullptr);
    const int64_t point_span = span(st.point_span.c_str(), root, t0);
    uuq::BootstrapOptions bootstrap = options.bootstrap;
    bootstrap.pool = pool;
    bootstrap.columnar_batch = st.batch;
    t0 = t.NowUs();
    const uuq::BootstrapInterval interval = uuq::BootstrapAggregate(
        *sample, view, point, st.columnar, st.materialized, bootstrap);
    const double interval_us = t.NowUs() - t0;
    const int64_t interval_span = span("bootstrap.interval", root, t0);
    t.Close(root, "pipeline", -1, request, root_start, t.NowUs());
    mine.push_back(Span{root, -1, request, "pipeline", root_start, t.NowUs()});

    // ---- the same request through CorrectSql -------------------------
    const uuq::QueryCorrector corrector(options);
    t0 = t.NowUs();
    auto whole = corrector.CorrectSql(*target.sample, req.sql,
                                      cached ? &pre : nullptr);
    const double whole_us = t.NowUs() - t0;
    span("correct_sql", -1, t0);
    if (!whole.ok() || !SameBits(whole.value().corrected, point) ||
        !SameBits(whole.value().bootstrap.lo, interval.lo) ||
        !SameBits(whole.value().bootstrap.hi, interval.hi) ||
        whole.value().bootstrap.adaptive.replicates_used !=
            interval.adaptive.replicates_used) {
      ++out->mismatches;
    }

    // Attribution: the stages' self times against the whole call.
    const std::vector<double> self = SelfTimesUs(mine);
    double attributed = 0.0;
    for (size_t i = 0; i < mine.size(); ++i) {
      const int64_t id = mine[i].id;
      if (id == parse_span || id == filter_span || id == view_span ||
          id == advise_span || id == point_span || id == interval_span) {
        attributed += self[i];
      }
    }
    if (whole_us > 0.0) out->unattributed.push_back(1.0 - attributed / whole_us);

    // ---- probes: single calls below the stages -----------------------
    const int64_t probe = t.Open();
    const double probe_start = t.NowUs();
    if (cached) {
      t0 = t.NowUs();
      const uuq::SampleView probe_view(*sample);
      span("integration.view", probe, t0);
      t0 = t.NowUs();
      (void)uuq::EstimatorAdvisor(options.advisor).Advise(*sample);
      span("advisor.advise", probe, t0);
    }
    if (st.bucket != nullptr) {
      t0 = t.NowUs();
      (void)st.bucket->ComputeBuckets(*sample);
      span("bucket.partition", probe, t0);
    }
    if (view->num_sources() > 0) {
      uuq::Rng rng(Mix(seed, static_cast<uint64_t>(request)));
      uuq::ReplicateScratch scratch;
      std::vector<uuq::ReplicateSample> reps(kReplicateProbes);
      std::vector<const uuq::ReplicateSample*> ptrs;
      for (auto& rep : reps) {
        t0 = t.NowUs();
        view->DrawBootstrapSources(&rng, &scratch.draws());
        view->BuildReplicate(scratch.draws(), &scratch, &rep);
        span("bootstrap.replicate_build", probe, t0);
        t0 = t.NowUs();
        (void)st.columnar(rep);
        span(st.replicate_span.c_str(), probe, t0);
        ptrs.push_back(&rep);
      }
      if (st.batch != nullptr) {
        std::vector<double> sums(ptrs.size());
        t0 = t.NowUs();
        st.batch(ptrs.data(), ptrs.size(), sums.data());
        const double per = (t.NowUs() - t0) / static_cast<double>(ptrs.size());
        t.Add("bootstrap.batch_estimate_per_replicate", probe, request, t0,
              t0 + per);
      }
    }
    t0 = t.NowUs();
    pool->ParallelFor(0, bootstrap.replicates, [](int64_t) {});
    span("thread_pool.dispatch", probe, t0);
    if (out->requests % kSpeedupEvery == 1) {
      // The same interval with every engine on one thread.
      const Stage one_thread = MakeStage(req.kind, advice.choice, options,
                                         &serial);
      uuq::BootstrapOptions one = bootstrap;
      one.pool = &serial;
      one.columnar_batch = one_thread.batch;
      t0 = t.NowUs();
      (void)uuq::BootstrapAggregate(*sample, view, point, one_thread.columnar,
                                    one_thread.materialized, one);
      const double serial_us = t.NowUs() - t0;
      span("bootstrap.interval_1thread", probe, t0);
      if (interval_us > 0.0) out->speedup.push_back(serial_us / interval_us);
    }
    t.Close(probe, "probe", -1, request, probe_start, t.NowUs());
  }
}

}  // namespace perfbench
