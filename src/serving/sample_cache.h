// Cross-query cache of per-registered-sample artifacts (the tentpole of
// ROADMAP item 1's performance half).
//
// Every correction over a sample starts by recomputing things that depend
// only on the sample, never on the query: the flattened columnar SampleView
// (three construction sites in core/bootstrap.cc before this cache), the
// value-sorted SortedEntityIndex behind the bucket estimator's point
// estimate, the whole-sample SampleStats fold, and the advisor's estimator
// verdict. In a serving deployment the same registered sample answers
// thousands of queries, so that work is pure waste after the first one —
// "millions of users" hit the replicate loop, not the flatten.
//
// SampleArtifacts bundles those four artifacts plus a shared_ptr that pins
// the sample itself — and, because every engine is deterministic under the
// shared corrector options, a capacity-capped memo of completed per-query
// answers (see "answer memo" below): the second identical query on a
// snapshot skips replicate evaluation entirely. SampleCache maps
// registered-sample names to immutable shared snapshots. The concurrency contract mirrors "Aggregate Estimation
// Over Dynamic Hidden Web Databases" (PAPERS.md): registered samples get
// REPLACED over time, so replacement must atomically evict the cached entry
// for new admissions while in-flight queries keep the snapshot they pinned
// at admission — shared_ptr's refcount is the whole mechanism. The
// artifacts themselves are never mutated after construction (the answer
// memo is the one internally-locked exception), so no locks are held while
// a query uses its snapshot, and a replaced snapshot dies exactly when its
// last in-flight query finishes (ASan-pinned by tests/serving_test.cc's
// replacement tests).
//
// BIT-IDENTITY CONTRACT. Every artifact is a pure deterministic function of
// the sample (and, for the advice, of the advisor options the cache was
// built with), so cached answers are byte-for-byte the answers the uncached
// path computes. Tests pin this, and bench_serving's verify pass
// re-checks it end-to-end before timing — a wrong-answer cache speedup
// fails the build, it does not ship. `UUQ_SERVE_CACHE=0` is the runtime
// escape hatch (query_service.h).
#ifndef UUQ_SERVING_SAMPLE_CACHE_H_
#define UUQ_SERVING_SAMPLE_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/advisor.h"
#include "core/bucket.h"
#include "core/estimate.h"
#include "core/query_correction.h"
#include "integration/sample.h"
#include "integration/sample_view.h"

namespace uuq {

/// Immutable bundle of the query-independent artifacts of one sample.
/// Construction does all the work once; afterwards the bundle is read-only
/// and safe to share across any number of concurrent queries.
struct SampleArtifacts {
  /// Builds every artifact from `sample` (which must be non-null). `advisor`
  /// must be the advisor configuration queries will run with — the cached
  /// advice is only valid under the same options (SamplePrecomp's contract).
  SampleArtifacts(std::shared_ptr<const IntegratedSample> sample,
                  const EstimatorAdvisor::Options& advisor);

  // Declaration order is construction order: the view/index/stats/advice
  // all borrow from *sample, which the bundle pins for its whole lifetime.
  std::shared_ptr<const IntegratedSample> sample;
  SampleView view;          ///< flattened columns of *sample
  SortedEntityIndex index;  ///< over sample->entities()
  SampleStats stats;        ///< SampleStats::FromSample(*sample)
  Advice advice;            ///< advisor verdict under the ctor's options

  /// The non-owning pointer bundle the core layer consumes. Valid only
  /// while this SampleArtifacts is alive — callers keep their shared_ptr
  /// snapshot pinned for at least as long as any SamplePrecomp use.
  SamplePrecomp precomp() const {
    SamplePrecomp pre;
    pre.view = &view;
    pre.index = &index;
    pre.stats = &stats;
    pre.advice = &advice;
    return pre;
  }

  // ---- answer memo (the cross-query half of the cache) -------------------
  //
  // Every engine under the corrector is deterministic: the replicate seeds
  // live in the shared corrector options, so two queries with the same text,
  // replicate count, and interval flag compute THE SAME CorrectedAnswer on
  // this snapshot, bit for bit. The serving layer memoizes each COMPLETED
  // answer here, so a repeat query — the "millions of users ask the same
  // aggregate" serving axis — returns the byte-identical answer without
  // re-running replicate evaluation at all. Replacement hygiene is free:
  // the memo lives on the snapshot, so RegisterSample's new snapshot starts
  // empty and the old memo dies with the old snapshot's last pin.
  //
  // The memo is capacity-capped (kAnswerMemoCapacity distinct keys); once
  // full, new keys are computed fresh every time rather than evicting —
  // serving workloads repeat a small query set, and a bounded memo can
  // never become a memory leak shaped like a query log.

  /// Canonical memo key. `replicates` is ignored (normalized to 0) when
  /// `attach_interval` is false — a point-only answer does not depend on it.
  static std::string AnswerKey(const std::string& sql, int replicates,
                               bool attach_interval);

  /// Copies the memoized answer for `key` into `*out`; false on miss.
  bool LookupAnswer(const std::string& key, CorrectedAnswer* out) const
      UUQ_EXCLUDES(memo_mu_);

  /// Memoizes `answer` under `key` (first writer wins; silently dropped at
  /// capacity). Callers must only pass answers from COMPLETE computations —
  /// never one whose interval was abandoned mid-loop (bootstrap_aborted).
  void MemoizeAnswer(const std::string& key,
                     const CorrectedAnswer& answer) const
      UUQ_EXCLUDES(memo_mu_);

 private:
  static constexpr size_t kAnswerMemoCapacity = 64;
  mutable Mutex memo_mu_;
  mutable std::map<std::string, CorrectedAnswer> memo_
      UUQ_GUARDED_BY(memo_mu_);
};

/// Name → artifact-snapshot registry. Thread-safe; the lock covers only the
/// map, never artifact construction or use.
class SampleCache {
 public:
  explicit SampleCache(EstimatorAdvisor::Options advisor_options)
      : advisor_options_(std::move(advisor_options)) {}

  SampleCache(const SampleCache&) = delete;
  SampleCache& operator=(const SampleCache&) = delete;

  /// Builds artifacts for `sample` (outside the lock — registration of a
  /// large sample never blocks concurrent lookups) and installs them under
  /// `name`, atomically replacing any previous entry. The previous snapshot
  /// is not invalidated — queries that pinned it keep computing on it.
  /// Returns the new snapshot.
  std::shared_ptr<const SampleArtifacts> Put(
      const std::string& name,
      std::shared_ptr<const IntegratedSample> sample) UUQ_EXCLUDES(mu_);

  /// Installs an already-built snapshot under `name` (same replacement
  /// semantics as Put). Lets a caller build artifacts outside its own lock
  /// and then publish them together with other state under that lock —
  /// QueryService::RegisterSample uses this so the sample map and the cache
  /// entry always change atomically with respect to Submit.
  void Install(const std::string& name,
               std::shared_ptr<const SampleArtifacts> artifacts)
      UUQ_EXCLUDES(mu_);

  /// The current snapshot for `name`, or nullptr when absent.
  std::shared_ptr<const SampleArtifacts> Get(const std::string& name) const
      UUQ_EXCLUDES(mu_);

  /// Drops the entry (pinned snapshots stay alive until released).
  void Erase(const std::string& name) UUQ_EXCLUDES(mu_);

  /// Registered entries — observability for tests and Stats.
  size_t size() const UUQ_EXCLUDES(mu_);

 private:
  const EstimatorAdvisor::Options advisor_options_;
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<const SampleArtifacts>> entries_
      UUQ_GUARDED_BY(mu_);
};

}  // namespace uuq

#endif  // UUQ_SERVING_SAMPLE_CACHE_H_
