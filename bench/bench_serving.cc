// Serving-layer throughput/latency harness: drives the QueryService with
// open-loop concurrent load (all queries submitted up front from competing
// submitter threads, no coordination with completions) and reports
// corrected-queries/s plus p50/p99 end-to-end latency — cached vs uncached
// sample artifacts, with and without injected faults. Rows land in
// bench_out.json for the cross-PR perf trajectory:
//   estimator="serving",
//   config="pr=7,workers=W,cache=on,faults=off,metric=throughput",
//   ns_per_op=<wall-clock ns per completed query> — plus metric=p50/p99
//   rows where ns_per_op is the latency percentile. The cache=on throughput
//   row's `speedup` field is (uncached ns/op) / (cached ns/op).
//
// Correctness before speed: a pre-timing verify pass, run every time,
// executes the same query sequentially on a cache-enabled and a cache-disabled service and
// requires every answer field to be bit-identical, and pins the adaptive
// replicate budget against fixed budgets at both ends of its range
// (pilot early-stop == fixed-pilot service, cap escalation == fixed-cap
// service, bit for bit). A wrong-answer speedup exits 1, it does not ship.
//
// The pr=10 adaptive comparison: the same open-loop load runs once with the
// fixed B=48 interval budget and once with a precision target epsilon equal
// to the fixed run's achieved interval width — equal delivered precision,
// strictly fewer replicates (the pilot meets the target). Expected shape:
// >=1.3x corrected-queries/s for the adaptive run (a printed warning when
// missed: a loaded box can legitimately land near the line).
//
// Expected shape: p50 close to a single query's corrector latency while
// the queue stays shallow; p99 dominated by queueing; the cached run
// strictly faster (it skips the per-query flatten/sort/stats/advise); the
// faulted run (slow replicates + queue stalls) degrades latency but never
// correctness — every result is either OK or a typed failure status, and
// the run aborts if anything else surfaces.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serving/fault_injector.h"
#include "serving/query_service.h"
#include "simulation/scenarios.h"
#include "stats/descriptive.h"

namespace uuq {
namespace {

constexpr char kSql[] = "SELECT SUM(value) FROM integrated";

struct LoadResult {
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int completed = 0;
  int failed = 0;

  double ns_per_query() const {
    return completed > 0 ? wall_s * 1e9 / completed : 0.0;
  }
};

ServingOptions BenchOptions(int workers, int queries, bool cache,
                            FaultInjector* faults,
                            int full_replicates = 24) {
  ServingOptions options;
  options.workers = workers;
  options.cache_artifacts = cache;
  options.max_queue = queries + 1;  // admission never sheds in this bench
  options.default_deadline = std::chrono::seconds(60);
  options.full_interval_budget = std::chrono::milliseconds(1);
  options.full_replicates = full_replicates;
  options.faults = faults;
  return options;
}

LoadResult RunLoad(const std::shared_ptr<const IntegratedSample>& sample,
                   int workers, int queries, bool cache,
                   FaultInjector* faults, int full_replicates = 24,
                   double epsilon = 0.0) {
  QueryService service(
      BenchOptions(workers, queries, cache, faults, full_replicates));
  service.RegisterSample("bench", sample);

  const auto start = std::chrono::steady_clock::now();
  // Open loop: 4 submitter threads race the full query count in, then
  // every ticket is awaited. Submission never waits on completions.
  constexpr int kSubmitters = 4;
  std::vector<std::vector<QueryService::Ticket>> tickets(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      const int share = queries / kSubmitters + (s == 0 ? queries % kSubmitters : 0);
      tickets[s].reserve(static_cast<size_t>(share));
      for (int q = 0; q < share; ++q) {
        auto ticket =
            service.Submit("bench", kSql, std::chrono::nanoseconds(0),
                           /*want_interval=*/true, epsilon);
        if (ticket.ok()) tickets[s].push_back(ticket.value());
      }
    });
  }
  for (auto& t : submitters) t.join();

  LoadResult out;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<size_t>(queries));
  for (auto& shard : tickets) {
    for (auto& ticket : shard) {
      ServedResult result = ticket.Wait();
      if (result.status.ok()) {
        ++out.completed;
        latencies_ms.push_back(result.queue_ms + result.run_ms);
      } else {
        ++out.failed;
        // The robustness contract: failures are typed, never anything else.
        switch (result.status.code()) {
          case StatusCode::kUnavailable:
          case StatusCode::kResourceExhausted:
          case StatusCode::kDeadlineExceeded:
          case StatusCode::kCancelled:
            break;
          default:
            std::fprintf(stderr, "FATAL: untyped serving failure: %s\n",
                         result.status.ToString().c_str());
            std::exit(1);
        }
      }
    }
  }
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  // stats/descriptive.h nearest-rank percentile over the sorted latencies.
  out.p50_ms = latencies_ms.empty() ? 0.0 : SortedPercentile(latencies_ms, 0.50);
  out.p99_ms = latencies_ms.empty() ? 0.0 : SortedPercentile(latencies_ms, 0.99);
  return out;
}

void CheckBitIdentical(double cached, double uncached, const char* label) {
  if (cached != uncached &&
      !(std::isnan(cached) && std::isnan(uncached))) {
    std::fprintf(stderr,
                 "FATAL: verify cached-vs-uncached: %s differs "
                 "(cached %.17g vs uncached %.17g)\n",
                 label, cached, uncached);
    std::exit(1);
  }
}

/// The pre-timing correctness pass (header comment): the same queries run
/// sequentially on a cache-enabled and a cache-disabled service must yield
/// bit-identical answers — point, bound, and bootstrap interval alike.
void VerifyCachedAgainstUncached(
    const std::shared_ptr<const IntegratedSample>& sample) {
  const char* queries[] = {
      "SELECT SUM(value) FROM integrated",
      "SELECT COUNT(*) FROM integrated",
      "SELECT AVG(value) FROM integrated",
      "SELECT MAX(value) FROM integrated",
  };
  QueryService cached(BenchOptions(/*workers=*/1, /*queries=*/8,
                                   /*cache=*/true, nullptr));
  QueryService uncached(BenchOptions(/*workers=*/1, /*queries=*/8,
                                     /*cache=*/false, nullptr));
  if (!cached.cache_enabled()) {
    std::printf("verify pass SKIPPED (cache disabled via UUQ_SERVE_CACHE)\n");
    return;
  }
  cached.RegisterSample("bench", sample);
  uncached.RegisterSample("bench", sample);
  for (const char* sql : queries) {
    const ServedResult a = cached.Execute("bench", sql);
    const ServedResult b = uncached.Execute("bench", sql);
    if (!a.status.ok() || !b.status.ok() ||
        a.degraded != DegradeLevel::kNone ||
        b.degraded != DegradeLevel::kNone) {
      std::fprintf(stderr,
                   "FATAL: verify pass could not get two level-0 answers "
                   "for %s (%s vs %s)\n",
                   sql, a.status.ToString().c_str(),
                   b.status.ToString().c_str());
      std::exit(1);
    }
    CheckBitIdentical(a.answer.observed, b.answer.observed, sql);
    CheckBitIdentical(a.answer.corrected, b.answer.corrected, sql);
    CheckBitIdentical(a.answer.estimate.delta, b.answer.estimate.delta, sql);
    CheckBitIdentical(a.answer.estimate.n_hat, b.answer.estimate.n_hat, sql);
    if (a.answer.bound_valid != b.answer.bound_valid) {
      std::fprintf(stderr, "FATAL: verify: bound_valid differs for %s\n", sql);
      std::exit(1);
    }
    if (a.answer.bootstrap_valid != b.answer.bootstrap_valid ||
        a.replicates_used != b.replicates_used) {
      std::fprintf(stderr, "FATAL: verify: interval shape differs for %s\n",
                   sql);
      std::exit(1);
    }
    if (a.answer.bootstrap_valid) {
      CheckBitIdentical(a.answer.bootstrap.point, b.answer.bootstrap.point,
                        sql);
      CheckBitIdentical(a.answer.bootstrap.lo, b.answer.bootstrap.lo, sql);
      CheckBitIdentical(a.answer.bootstrap.hi, b.answer.bootstrap.hi, sql);
      CheckBitIdentical(a.answer.bootstrap.median, b.answer.bootstrap.median,
                        sql);
    }
  }
  std::printf(
      "verify pass OK: cached == uncached answers, bit-identical across "
      "SUM/COUNT/AVG/MAX (points, bounds, intervals)\n");
}

void CheckSameServedInterval(const ServedResult& adaptive,
                             const ServedResult& fixed, const char* label) {
  if (!adaptive.status.ok() || !fixed.status.ok() ||
      !adaptive.answer.bootstrap_valid || !fixed.answer.bootstrap_valid ||
      adaptive.replicates_used != fixed.replicates_used) {
    std::fprintf(stderr,
                 "FATAL: verify adaptive-vs-fixed: %s shape differs "
                 "(%d vs %d replicates)\n",
                 label, adaptive.replicates_used, fixed.replicates_used);
    std::exit(1);
  }
  CheckBitIdentical(adaptive.answer.bootstrap.point,
                    fixed.answer.bootstrap.point, label);
  CheckBitIdentical(adaptive.answer.bootstrap.lo, fixed.answer.bootstrap.lo,
                    label);
  CheckBitIdentical(adaptive.answer.bootstrap.hi, fixed.answer.bootstrap.hi,
                    label);
  CheckBitIdentical(adaptive.answer.bootstrap.median,
                    fixed.answer.bootstrap.median, label);
}

/// Adaptive-vs-fixed leg of the verify pass, end to end through the
/// service: a trivially-met epsilon must stop at the pilot and serve the
/// exact answer of a fixed-pilot-budget service; an unreachable epsilon
/// must escalate to the cap, come back precision_degraded, and serve the
/// exact answer of a fixed-cap-budget service.
void VerifyAdaptiveAgainstFixed(
    const std::shared_ptr<const IntegratedSample>& sample) {
  ServingOptions base =
      BenchOptions(/*workers=*/1, /*queries=*/8, /*cache=*/false, nullptr);
  QueryService adaptive_service(base);
  adaptive_service.RegisterSample("bench", sample);

  QueryService pilot_service(BenchOptions(
      1, 8, false, nullptr, /*full_replicates=*/base.adaptive_pilot_replicates));
  pilot_service.RegisterSample("bench", sample);
  const ServedResult at_pilot = adaptive_service.Execute(
      "bench", kSql, std::chrono::nanoseconds(0), /*want_interval=*/true,
      /*epsilon=*/std::numeric_limits<double>::max());
  if (at_pilot.precision_degraded ||
      at_pilot.replicates_used != base.adaptive_pilot_replicates) {
    std::fprintf(stderr,
                 "FATAL: verify adaptive pilot: expected early stop at %d "
                 "replicates, used %d\n",
                 base.adaptive_pilot_replicates, at_pilot.replicates_used);
    std::exit(1);
  }
  CheckSameServedInterval(at_pilot, pilot_service.Execute("bench", kSql),
                          "adaptive(pilot)-vs-fixed-pilot");

  QueryService cap_service(BenchOptions(
      1, 8, false, nullptr, /*full_replicates=*/base.adaptive_max_replicates));
  cap_service.RegisterSample("bench", sample);
  const ServedResult at_cap = adaptive_service.Execute(
      "bench", kSql, std::chrono::nanoseconds(0), /*want_interval=*/true,
      /*epsilon=*/1e-12);
  if (!at_cap.precision_degraded ||
      at_cap.replicates_used != base.adaptive_max_replicates) {
    std::fprintf(stderr,
                 "FATAL: verify adaptive cap: expected precision_degraded at "
                 "%d replicates, used %d\n",
                 base.adaptive_max_replicates, at_cap.replicates_used);
    std::exit(1);
  }
  CheckSameServedInterval(at_cap, cap_service.Execute("bench", kSql),
                          "adaptive(cap)-vs-fixed-cap");
  std::printf(
      "verify pass OK: adaptive budget == fixed budget end to end (pilot "
      "early-stop and escalation cap, bit-identical served intervals)\n");
}

}  // namespace
}  // namespace uuq

int main() {
  using namespace uuq;
  using bench::BenchRow;

  bench::PrintHeader(
      "Serving throughput/latency under open-loop concurrent load, cached "
      "vs uncached sample artifacts",
      "cached run faster at identical answers (verify pass pins "
      "bit-identity); p50 near single-query latency, p99 queue-dominated; "
      "faulted run slower but every failure typed");

  const Scenario scenario = scenarios::UsTechEmployment();
  auto sample = std::make_shared<IntegratedSample>();
  for (const Observation& obs : scenario.stream) sample->Add(obs);

  VerifyCachedAgainstUncached(sample);
  VerifyAdaptiveAgainstFixed(sample);

  const int queries = bench::RepsFromEnv(1) * 64;
  // The acceptance scenario is a small serving box: two workers splitting
  // the engine budget. More workers only dilute the per-query slice.
  const int workers = 2;

  std::vector<BenchRow> rows;
  const auto report = [&](const char* cache_tag, const char* faults_tag,
                          const LoadResult& r, double speedup) {
    const double qps = r.completed / std::max(1e-9, r.wall_s);
    std::printf(
        "workers=%d queries=%d cache=%s faults=%s: %.1f corrected-queries/s, "
        "p50 %.2f ms, p99 %.2f ms (%d ok, %d typed failures)\n",
        workers, queries, cache_tag, faults_tag, qps, r.p50_ms, r.p99_ms,
        r.completed, r.failed);
    const std::string base = "pr=7,workers=" + std::to_string(workers) +
                             ",queries=" + std::to_string(queries) +
                             ",cache=" + cache_tag + ",faults=" + faults_tag;
    rows.push_back({"serving", base + ",metric=throughput", r.ns_per_query(),
                    speedup});
    rows.push_back({"serving", base + ",metric=p50", r.p50_ms * 1e6, 1.0});
    rows.push_back({"serving", base + ",metric=p99", r.p99_ms * 1e6, 1.0});
  };

  const LoadResult uncached =
      RunLoad(sample, workers, queries, /*cache=*/false, nullptr);
  report("off", "off", uncached, 1.0);

  const LoadResult cached =
      RunLoad(sample, workers, queries, /*cache=*/true, nullptr);
  const double cache_speedup =
      cached.ns_per_query() > 0.0 && uncached.ns_per_query() > 0.0
          ? uncached.ns_per_query() / cached.ns_per_query()
          : 1.0;
  report("on", "off", cached, cache_speedup);
  std::printf("artifact-cache speedup at %d workers: %.2fx\n", workers,
              cache_speedup);

  // ---- adaptive replicate budget at equal precision (pr=10) --------------
  // Derive the precision target from what the fixed B=48 budget actually
  // delivers on this sample, then serve the identical load both ways: the
  // adaptive run meets the same Monte Carlo precision target using only
  // the pilot block, so equal precision costs strictly fewer replicates. Artifact
  // caching is off for both runs so the only difference is replicate work
  // (the answer memo would otherwise short-circuit the fixed run's repeats).
  double easy_epsilon = 0.0;
  int adaptive_replicates = 0;
  {
    QueryService probe(
        BenchOptions(1, 8, /*cache=*/false, nullptr, /*full_replicates=*/48));
    probe.RegisterSample("bench", sample);
    const ServedResult fixed48 = probe.Execute("bench", kSql);
    if (!fixed48.status.ok() || !fixed48.answer.bootstrap_valid) {
      std::fprintf(stderr, "FATAL: could not probe the fixed-48 interval\n");
      return 1;
    }
    easy_epsilon = fixed48.answer.bootstrap.hi - fixed48.answer.bootstrap.lo;
    const ServedResult probe_adaptive =
        probe.Execute("bench", kSql, std::chrono::nanoseconds(0),
                      /*want_interval=*/true, easy_epsilon);
    adaptive_replicates = probe_adaptive.replicates_used;
    if (probe_adaptive.precision_degraded || adaptive_replicates >= 48) {
      std::fprintf(stderr,
                   "FATAL: adaptive budget did not beat the fixed B=48 spend "
                   "at equal precision (used %d replicates)\n",
                   adaptive_replicates);
      return 1;
    }
  }
  const LoadResult fixed48_load = RunLoad(sample, workers, queries,
                                          /*cache=*/false, nullptr,
                                          /*full_replicates=*/48);
  const LoadResult adaptive_load =
      RunLoad(sample, workers, queries, /*cache=*/false, nullptr,
              /*full_replicates=*/48, easy_epsilon);
  const double adaptive_speedup =
      adaptive_load.ns_per_query() > 0.0 && fixed48_load.ns_per_query() > 0.0
          ? fixed48_load.ns_per_query() / adaptive_load.ns_per_query()
          : 1.0;
  const std::string adaptive_base =
      "pr=10,workers=" + std::to_string(workers) +
      ",queries=" + std::to_string(queries) + ",cache=off,faults=off";
  rows.push_back({"serving", adaptive_base + ",mode=fixed,B=48,"
                                             "metric=throughput",
                  fixed48_load.ns_per_query(), 1.0});
  rows.push_back({"serving", adaptive_base + ",mode=adaptive,eps=width48,"
                                             "metric=throughput",
                  adaptive_load.ns_per_query(), adaptive_speedup});
  rows.push_back({"serving", adaptive_base + ",mode=adaptive,eps=width48,"
                                             "metric=replicates",
                  static_cast<double>(adaptive_replicates),
                  48.0 / static_cast<double>(adaptive_replicates)});
  std::printf(
      "adaptive-vs-fixed at equal precision (eps=%.1f): %.1f vs %.1f "
      "corrected-queries/s (%.2fx, %d vs 48 replicates)\n",
      easy_epsilon,
      adaptive_load.completed / std::max(1e-9, adaptive_load.wall_s),
      fixed48_load.completed / std::max(1e-9, fixed48_load.wall_s),
      adaptive_speedup, adaptive_replicates);
  if (adaptive_speedup < 1.3) {
    std::printf("WARNING: adaptive equal-precision speedup below the 1.3x "
                "acceptance target (%.2fx)\n",
                adaptive_speedup);
  }

  auto faults = FaultInjector::Parse(
      0xC4A05, "slow_replicate=0.05:2ms,queue_stall=0.1:1ms,source_load=0.02");
  if (!faults.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", faults.status().ToString().c_str());
    return 1;
  }
  report("on", "on",
         RunLoad(sample, workers, queries, /*cache=*/true, &faults.value()),
         1.0);

  if (!bench::AppendBenchJson(bench::BenchJsonPath(), rows)) return 1;
  std::printf("\nwrote %zu rows to %s\n", rows.size(),
              bench::BenchJsonPath().c_str());
  return 0;
}
