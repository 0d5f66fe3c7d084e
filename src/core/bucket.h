// The bucket estimator (paper §3.3, Appendix B).
//
// Publicity-value correlation biases whole-sample value estimates, so the
// value range is divided into buckets and the impact is estimated per bucket
// with an inner estimator (naive or frequency), then aggregated (Eq. 11).
//
// Three partitioning strategies:
//  * equi-width  — fixed number of equal value-range buckets (§3.3.1)
//  * equi-height — fixed number of equal-cardinality buckets (App. B)
//  * dynamic     — Algorithm 1: recursively split only while the total
//                  |Δ| estimate DECREASES (the conservative rule §3.3.2)
//
// Slices are evaluated in O(1) via prefix sums over the value-sorted entity
// array; the dynamic algorithm therefore costs O(u) per candidate-split scan
// instead of O(u·size).
//
// REPLICATE HOT PATH. Bootstrap/jackknife replicates re-run the whole
// estimator B times; IndexScratch makes those runs allocation-free: the
// sorted index, prefix array, partition worklists, and bucket vector are
// all reused, and when the replicate carries its SampleView the re-sort is
// INCREMENTAL — points are gathered in the view's precomputed rank order
// (a replicate perturbs multiplicities, not the entity ordering, so the
// gather is already nearly sorted) and fixed up with an adaptive insertion
// pass. The index orders points canonically by (value, multiplicity), which
// makes the sorted array — and every prefix sum — independent of the input
// permutation, so the scratch path is bit-identical to a fresh index.
#ifndef UUQ_CORE_BUCKET_H_
#define UUQ_CORE_BUCKET_H_

#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/macros.h"
#include "core/estimate.h"

namespace uuq {

class ThreadPool;
class IndexScratch;

/// A value-range bucket with its slice statistics and inner estimate.
struct ValueBucket {
  double lo = 0.0;  ///< smallest fused value in the bucket
  double hi = 0.0;  ///< largest fused value in the bucket
  SampleStats stats;
  Estimate estimate;
};

/// Prefix-sum index over a value-sorted entity array; Slice(i, j) returns the
/// sufficient statistics of entities [i, j) in O(1).
///
/// Stores only the (value, multiplicity) points the bucket math reads — no
/// keys, no categories — so it is equally at home indexing a full sample's
/// entities or a columnar bootstrap replicate. A default-constructed index
/// is an empty reusable shell: Clear()/Append()/Finalize() rebuild it in
/// place without allocating once its buffers are warm.
class SortedEntityIndex {
 public:
  SortedEntityIndex() = default;
  explicit SortedEntityIndex(const std::vector<EntityStat>& entities);
  explicit SortedEntityIndex(std::vector<EntityPoint> points);

  /// Canonical point order: ascending (value, multiplicity). Total up to
  /// indistinguishable points, so any input permutation of the same point
  /// multiset sorts to the same array content — the bit-identity guarantee
  /// behind the scratch-reuse and incremental-re-sort paths.
  static bool PointLess(const EntityPoint& a, const EntityPoint& b) {
    return a.value < b.value ||
           (a.value == b.value && a.multiplicity < b.multiplicity);
  }

  /// In-place rebuild, step 1: drop all points (capacity retained).
  void Clear() { points_.clear(); }
  /// In-place rebuild, step 2: append one point (any order).
  void Append(const EntityPoint& point) { points_.push_back(point); }
  /// In-place rebuild, step 3: sort + rebuild the prefix array, reusing the
  /// internal buffers. `nearly_sorted` selects an adaptive insertion sort
  /// (O(points + inversions), falling back to std::sort past a shift
  /// budget); the final content is canonical either way.
  void Finalize(bool nearly_sorted);

  size_t size() const { return points_.size(); }
  const std::vector<EntityPoint>& entities() const { return points_; }

  /// Stats of the half-open slice [begin, end).
  SampleStats Slice(size_t begin, size_t end) const;

  /// The batched split scan's gather primitive: writes slice [begin, end)'s
  /// stats into lane `lane` of the given SoA columns as doubles (the
  /// StatsBatchView cast convention) and returns the slice's n. Identical
  /// values to Slice(), minus the struct round-trip and the value_sum_sq
  /// column no Δ expression reads.
  int64_t SliceColumnsInto(size_t begin, size_t end, size_t lane,
                           double* UUQ_RESTRICT n_col,
                           double* UUQ_RESTRICT c_col,
                           double* UUQ_RESTRICT f1_col,
                           double* UUQ_RESTRICT mm1_col,
                           double* UUQ_RESTRICT value_sum_col,
                           double* UUQ_RESTRICT singleton_sum_col) const {
    const SampleStats& hi = prefix_[end];
    const SampleStats& lo = prefix_[begin];
    const int64_t n = hi.n - lo.n;
    n_col[lane] = static_cast<double>(n);
    c_col[lane] = static_cast<double>(hi.c - lo.c);
    f1_col[lane] = static_cast<double>(hi.f1 - lo.f1);
    mm1_col[lane] = static_cast<double>(hi.sum_mm1 - lo.sum_mm1);
    value_sum_col[lane] = hi.value_sum - lo.value_sum;
    singleton_sum_col[lane] = hi.singleton_sum - lo.singleton_sum;
    return n;
  }

  /// Index one past the last entity sharing entities()[i].value (the
  /// smallest legal split point strictly after position i).
  size_t UpperBoundOfValueAt(size_t i) const;

  /// Releases ALL internal capacity: the index returns to a freshly
  /// constructed empty shell (the scratch trim hook, scratch_metrics.h).
  void Release();
  /// Approximate resident capacity of the internal arrays, in bytes.
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(points_.capacity() * sizeof(EntityPoint) +
                                prefix_.capacity() * sizeof(SampleStats));
  }

 private:
  std::vector<EntityPoint> points_;  // sorted ascending by (value, mult)
  // prefix_[k] = stats over points_[0..k)
  std::vector<SampleStats> prefix_;
};

/// Reusable buffers for BucketPartitioner::PartitionInto: the worklists,
/// the candidate-split scan columns, and the dynamic partitioner's
/// split-memo arena. One per thread; contents are transient per call.
///
/// MEMOIZATION. When the dynamic scan splits a bucket, both child slices
/// were already fully evaluated as candidates of the parent scan: the
/// winning cut's |Δ(left)| / |Δ(right)| become the children's own bucket
/// deltas, and every other candidate's half on the child's side of the cut
/// is that child's scan half too (a split never changes the equal-value run
/// boundaries, so the child's candidate cut list is a sub-range of the
/// parent's). The arena carries those cuts and half-deltas from scan to
/// scan; NaN marks a half the parent never evaluated (pruned), which the
/// child recomputes fresh. Since a memoized value is the result of the
/// exact Slice + DeltaFromStats expression the child would run, the
/// memoized partition is bit-identical to the scan-everything one. The
/// arena is append-only per partition call and capped at O(index size):
/// past the cap (pathological peel-one-run-per-split shapes would grow it
/// quadratically) children are pushed without a memo slice and evaluate
/// fresh — same results, bounded scratch.
struct PartitionScratch {
  /// One dynamic worklist entry: a bucket plus what the parent scan already
  /// learned about it.
  struct Bucket {
    size_t begin = 0;
    size_t end = 0;
    /// Memoized |Δ(begin, end)| (the parent candidate's winning half; the
    /// root computes it directly).
    double delta = 0.0;
    /// Arena slice [memo_begin, memo_end): candidate cuts inherited from
    /// the parent scan and, aligned with them, the known half-deltas.
    size_t memo_begin = 0;
    size_t memo_end = 0;
    /// True when the inherited halves are the LEFT halves |Δ(begin, cut)|
    /// (this bucket was a left child); false for |Δ(cut, end)|.
    bool memo_is_left = false;
    bool has_memo = false;
  };

  std::vector<size_t> cuts;        ///< current scan's candidate cut positions
  std::vector<double> left_half;   ///< |Δ(begin,cut)| per candidate; NaN unknown
  std::vector<double> right_half;  ///< |Δ(cut,end)| per candidate; NaN unknown
  std::vector<Bucket> todo;        ///< FIFO worklist (head index)
  std::vector<std::pair<size_t, size_t>> done;  ///< finalized buckets
  // Split-memo arena (append-only per partition call), addressed by
  // Bucket::memo_begin/memo_end.
  std::vector<size_t> memo_cuts;
  std::vector<double> memo_delta;
  // Batched-scan gather columns: the fresh halves of one candidate block,
  // packed from lane 0 (lane_map maps a lane back to its candidate). The
  // stats columns form the StatsBatchView handed to DeltaFromStatsBatch
  // (all doubles, holding static_cast<double> of the integer fields — the
  // view's cast convention) and lane_delta receives the kernel output
  // (normalized |Δ|). The columns only grow to their high-water size, so
  // the gather is pure indexed stores on the replicate hot path.
  std::vector<double> lane_n;
  std::vector<double> lane_c;
  std::vector<double> lane_f1;
  std::vector<double> lane_mm1;
  std::vector<double> lane_value_sum;
  std::vector<double> lane_singleton_sum;
  std::vector<double> lane_delta;
  std::vector<uint32_t> lane_map;  ///< compact lane → candidate index
  /// Cross-call probe hint: the previous partition's winning root cut
  /// (0 = none). Bootstrap replicates are near-identical workloads, so the
  /// candidate nearest the last winner is an excellent probe — its total
  /// seeds the strict pruning reference before the root scan's first block.
  /// PURELY an evaluation-count optimization: any candidate's total is a
  /// valid upper bound on the scan minimum whatever heuristic picked it, so
  /// partitions are bit-identical with or without the hint (and therefore
  /// independent of what this scratch evaluated before — the one
  /// deliberately persistent field in an otherwise transient scratch).
  size_t root_cut_hint = 0;
};

/// Partitioning strategy interface: returns bucket boundaries as half-open
/// index ranges over the sorted entities.
class BucketPartitioner {
 public:
  virtual ~BucketPartitioner() = default;
  virtual std::string name() const = 0;
  /// Writes slice boundaries b_0=0 < b_1 < ... < b_k=size into *bounds,
  /// reusing `scratch` — allocation-free once warm (the replicate hot path).
  virtual void PartitionInto(const SortedEntityIndex& index,
                             const StatsSumEstimator& inner,
                             PartitionScratch* scratch,
                             std::vector<size_t>* bounds) const = 0;
  /// Allocating convenience wrapper around PartitionInto.
  std::vector<size_t> Partition(const SortedEntityIndex& index,
                                const StatsSumEstimator& inner) const;
};

/// §3.3.1: `num_buckets` equal-width value ranges over [min, max].
class EquiWidthPartitioner final : public BucketPartitioner {
 public:
  explicit EquiWidthPartitioner(int num_buckets);
  std::string name() const override;
  void PartitionInto(const SortedEntityIndex& index,
                     const StatsSumEstimator& inner, PartitionScratch* scratch,
                     std::vector<size_t>* bounds) const override;

 private:
  int num_buckets_;
};

/// Appendix B: `num_buckets` buckets with (near-)equal entity counts.
class EquiHeightPartitioner final : public BucketPartitioner {
 public:
  explicit EquiHeightPartitioner(int num_buckets);
  std::string name() const override;
  void PartitionInto(const SortedEntityIndex& index,
                     const StatsSumEstimator& inner, PartitionScratch* scratch,
                     std::vector<size_t>* bounds) const override;

 private:
  int num_buckets_;
};

/// §3.3.2 Algorithm 1: recursively split a bucket at the unique value that
/// minimizes the global Σ|Δ|; stop when no split lowers it.
///
/// ONE SERIAL SCAN. Each bucket's candidate-split scan (one |Δ(left)| +
/// |Δ(right)| evaluation per distinct value) runs on the calling thread;
/// parallelism lives a level up, across bootstrap replicates and serving
/// workers. The scan is allocation-free once its PartitionScratch is warm.
///
/// MEMOIZED + PRUNED (see PartitionScratch). Child scans inherit their cut
/// lists and one half of every candidate's |Δ| from the parent scan, so
/// only the other half is computed; and because AbsDelta is nonnegative,
/// `delta_rest + (known halves)` lower-bounds every candidate total — a
/// candidate whose bound cannot go strictly below δmin can neither win the
/// argmin nor move δmin, so its remaining half is skipped outright (a whole
/// scan is skipped when even delta_rest ≥ δmin, e.g. a singleton-free
/// bucket with Δ == 0). Pruning and memoization change which expressions
/// are (re)computed, never their values: the partition — and every
/// downstream interval — is bit-identical to the exhaustive scan.
///
/// BATCHED. A scan walks its candidates in blocks of 32: the block's fresh
/// left halves are gathered into PartitionScratch's SoA columns and
/// evaluated in ONE DeltaFromStatsBatch pass (fused coverage/γ² chain, no
/// per-candidate virtual dispatch, auto-vectorizable), then the right
/// halves of the candidates that can still win, then an in-order argmin
/// that refreshes δmin for the next block. The root scan is probe-seeded
/// (one candidate evaluated up front as a pruning reference). Scans with
/// fewer than 8 candidates skip the kernel and evaluate candidate by candidate.
/// tests/support/reference_partitioner.h holds an independent exhaustive
/// scan; partition_memo_test and bench_bootstrap's verify pass check this
/// one against it bit for bit.
enum class SplitScanMode {
  kBatched,  ///< the only scan; kept for callers that still spell it
};

class DynamicPartitioner final : public BucketPartitioner {
 public:
  /// A non-inert `cancel` token is polled once per worklist bucket: when it
  /// fires, the buckets still pending are finalized UNSPLIT and the scan
  /// returns immediately — the bounds are a valid (coarser) partition, but
  /// not Algorithm 1's converged one, so callers must discard the result
  /// via the token's status. The inert default leaves partitions
  /// bit-identical.
  explicit DynamicPartitioner(CancelToken cancel = {})
      : cancel_(std::move(cancel)) {}
  /// Kept only for perfbench/, which still passes a pool; the pool and
  /// mode are ignored.
  explicit DynamicPartitioner(ThreadPool* pool,
                              SplitScanMode mode = SplitScanMode::kBatched,
                              CancelToken cancel = {})
      : cancel_(std::move(cancel)) {
    UUQ_UNUSED(pool);
    UUQ_UNUSED(mode);
  }

  std::string name() const override { return "dynamic"; }
  void PartitionInto(const SortedEntityIndex& index,
                     const StatsSumEstimator& inner, PartitionScratch* scratch,
                     std::vector<size_t>* bounds) const override;

 private:
  CancelToken cancel_;
};

/// Reusable per-thread state for allocation-free replicate bucket
/// evaluation: the scatter columns of the incremental re-sort (resting
/// invariant: multiplicity column all-zero), the sorted index + prefix
/// buffers, and the partition/bucket vectors. One scratch serves replicates
/// of any size from any SampleView, interleaved in any order — every
/// rebuild starts from the resting state, so results never depend on what
/// the scratch evaluated before.
/// Instances register with the process-wide resident-scratch gauge and honor
/// the cooperative trim epoch (common/scratch_metrics.h): RebuildIndex — the
/// sole entry point of the replicate hot path — checks the epoch once per
/// call (one relaxed load) and, when a trim was requested since this scratch
/// last looked, releases every pooled buffer before rebuilding. A trimmed
/// scratch is indistinguishable from a fresh one, so results are unaffected;
/// only the warm-up allocations recur.
class IndexScratch {
 public:
  IndexScratch() = default;
  ~IndexScratch();
  IndexScratch(const IndexScratch&) = delete;
  IndexScratch& operator=(const IndexScratch&) = delete;

  /// Rebuilds the scratch-owned SortedEntityIndex from `rep` and returns
  /// it. With rep.view attached the points are gathered in the view's
  /// entity rank order (incremental re-sort); otherwise copied and fully
  /// sorted. Both paths produce the identical canonical index.
  const SortedEntityIndex& RebuildIndex(const ReplicateSample& rep);

  /// Approximate resident capacity across every pooled buffer, in bytes.
  int64_t ApproxBytes() const;
  /// Releases every pooled buffer (back to a freshly-constructed scratch).
  void Trim();

 private:
  friend class BucketSumEstimator;

  /// Reconciles the resident-bytes gauge with the current capacity.
  void SyncResidentBytes();

  SortedEntityIndex index_;
  std::vector<int64_t> scatter_mult_;  // per original entity; all-zero at rest
  std::vector<double> scatter_value_;
  PartitionScratch partition_;
  std::vector<size_t> bounds_;
  std::vector<ValueBucket> buckets_;
  uint64_t trim_epoch_seen_ = 0;  // last scratch::TrimEpoch() observed
  int64_t reported_bytes_ = 0;    // our contribution to the global gauge
};

/// The composed bucket estimator (Eq. 11): Δ = Σ_b Δ(b).
class BucketSumEstimator final : public SumEstimator {
 public:
  /// Defaults to the paper's best configuration: dynamic partitioning with
  /// the naive inner estimator.
  BucketSumEstimator();
  BucketSumEstimator(std::shared_ptr<const BucketPartitioner> partitioner,
                     std::shared_ptr<const StatsSumEstimator> inner);

  std::string name() const override;
  Estimate EstimateImpact(const IntegratedSample& sample) const override;
  /// Same, reusing a prebuilt sorted index and/or whole-sample stats from a
  /// SamplePrecomp (bit-identical: both are pure functions of the sample).
  Estimate EstimateImpact(const IntegratedSample& sample,
                          const SamplePrecomp* pre) const override;

  /// Columnar replicate path (bit-identical to EstimateImpact on the
  /// materialized replicate — the whole-sample stats fold runs in
  /// first-touch order and the canonical index sort sees the same point
  /// multiset). Runs through a thread-local IndexScratch: zero heap
  /// allocations per replicate once warm.
  bool SupportsReplicates() const override { return true; }
  Estimate EstimateReplicate(const ReplicateSample& rep) const override;
  /// Same, through a caller-owned scratch (engines and tests that manage
  /// reuse explicitly).
  Estimate EstimateReplicate(const ReplicateSample& rep,
                             IndexScratch* scratch) const;

  /// The full per-bucket breakdown (used by AVG and MIN/MAX, §5, and by the
  /// static-bucket ablation benches).
  std::vector<ValueBucket> ComputeBuckets(const IntegratedSample& sample) const;
  /// Same, over a columnar replicate (the AVG bootstrap), through the
  /// thread-local IndexScratch that EstimateReplicate(rep) uses: zero heap
  /// allocations once warm. The result lives in that scratch and is valid
  /// until this thread's next replicate call.
  const std::vector<ValueBucket>& ComputeBuckets(
      const ReplicateSample& rep) const;
  /// Shared core: buckets of an already-built index.
  std::vector<ValueBucket> ComputeBuckets(const SortedEntityIndex& index) const;

  const BucketPartitioner& partitioner() const { return *partitioner_; }
  const StatsSumEstimator& inner() const { return *inner_; }

 private:
  /// Partition + per-bucket evaluation into scratch-owned vectors.
  void ComputeBucketsInto(const SortedEntityIndex& index,
                          PartitionScratch* partition_scratch,
                          std::vector<size_t>* bounds,
                          std::vector<ValueBucket>* out) const;

  std::shared_ptr<const BucketPartitioner> partitioner_;
  std::shared_ptr<const StatsSumEstimator> inner_;
  std::string name_;  // cached: replicate paths stamp it per Estimate
};

}  // namespace uuq

#endif  // UUQ_CORE_BUCKET_H_
