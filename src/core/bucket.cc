#include "core/bucket.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/scratch_metrics.h"
#include "core/naive.h"
#include "integration/sample_view.h"

namespace uuq {

SortedEntityIndex::SortedEntityIndex(const std::vector<EntityStat>& entities) {
  points_.reserve(entities.size());
  for (const EntityStat& e : entities) {
    points_.push_back({e.value, e.multiplicity});
  }
  Finalize(/*nearly_sorted=*/false);
}

SortedEntityIndex::SortedEntityIndex(std::vector<EntityPoint> points)
    : points_(std::move(points)) {
  Finalize(/*nearly_sorted=*/false);
}

void SortedEntityIndex::Finalize(bool nearly_sorted) {
  if (!nearly_sorted) {
    std::sort(points_.begin(), points_.end(), PointLess);
  } else {
    // Adaptive insertion sort: a rank-order gather leaves only local
    // inversions (entities whose replicate value moved, multiplicity ties
    // within an equal-value run), so this is O(points + inversions). A
    // pathological replicate burns through the shift budget and falls back
    // to std::sort — same canonical content, bounded worst case.
    size_t budget = 8 * points_.size() + 16;
    bool fell_back = false;
    for (size_t i = 1; !fell_back && i < points_.size(); ++i) {
      if (!PointLess(points_[i], points_[i - 1])) continue;
      const EntityPoint point = points_[i];
      size_t j = i;
      while (j > 0 && PointLess(point, points_[j - 1])) {
        points_[j] = points_[j - 1];
        --j;
        if (--budget == 0) {
          fell_back = true;
          break;
        }
      }
      points_[j] = point;  // restore before any fallback: same multiset
      if (fell_back) std::sort(points_.begin(), points_.end(), PointLess);
    }
  }

  // Running accumulator instead of copy-then-Add: the same fold in the same
  // order (bit-identical prefixes), without re-loading the previous row.
  prefix_.resize(points_.size() + 1);
  SampleStats acc;
  prefix_[0] = acc;
  for (size_t i = 0; i < points_.size(); ++i) {
    acc.Add(points_[i]);
    prefix_[i + 1] = acc;
  }
}

SampleStats SortedEntityIndex::Slice(size_t begin, size_t end) const {
  UUQ_DCHECK(begin <= end && end <= points_.size());
  SampleStats out = prefix_[end];
  const SampleStats& lo = prefix_[begin];
  out.n -= lo.n;
  out.c -= lo.c;
  out.f1 -= lo.f1;
  out.sum_mm1 -= lo.sum_mm1;
  out.value_sum -= lo.value_sum;
  out.value_sum_sq -= lo.value_sum_sq;
  out.singleton_sum -= lo.singleton_sum;
  return out;
}

size_t SortedEntityIndex::UpperBoundOfValueAt(size_t i) const {
  UUQ_DCHECK(i < points_.size());
  const double v = points_[i].value;
  size_t j = i + 1;
  while (j < points_.size() && points_[j].value == v) ++j;
  return j;
}

void SortedEntityIndex::Release() {
  std::vector<EntityPoint>().swap(points_);
  std::vector<SampleStats>().swap(prefix_);
}

namespace {

template <typename T>
int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

template <typename T>
void ReleaseVector(std::vector<T>* v) {
  std::vector<T>().swap(*v);
}

}  // namespace

IndexScratch::~IndexScratch() {
  if (reported_bytes_ != 0) scratch::AddResidentBytes(-reported_bytes_);
}

int64_t IndexScratch::ApproxBytes() const {
  int64_t bytes = index_.ApproxBytes();
  bytes += VectorBytes(scatter_mult_) + VectorBytes(scatter_value_);
  bytes += VectorBytes(partition_.cuts) + VectorBytes(partition_.left_half) +
           VectorBytes(partition_.right_half) + VectorBytes(partition_.todo) +
           VectorBytes(partition_.done) + VectorBytes(partition_.memo_cuts) +
           VectorBytes(partition_.memo_delta) + VectorBytes(partition_.lane_n) +
           VectorBytes(partition_.lane_c) + VectorBytes(partition_.lane_f1) +
           VectorBytes(partition_.lane_mm1) +
           VectorBytes(partition_.lane_value_sum) +
           VectorBytes(partition_.lane_singleton_sum) +
           VectorBytes(partition_.lane_delta) +
           VectorBytes(partition_.lane_map);
  bytes += VectorBytes(bounds_) + VectorBytes(buckets_);
  return bytes;
}

void IndexScratch::Trim() {
  index_.Release();
  ReleaseVector(&scatter_mult_);
  ReleaseVector(&scatter_value_);
  ReleaseVector(&partition_.cuts);
  ReleaseVector(&partition_.left_half);
  ReleaseVector(&partition_.right_half);
  ReleaseVector(&partition_.todo);
  ReleaseVector(&partition_.done);
  ReleaseVector(&partition_.memo_cuts);
  ReleaseVector(&partition_.memo_delta);
  ReleaseVector(&partition_.lane_n);
  ReleaseVector(&partition_.lane_c);
  ReleaseVector(&partition_.lane_f1);
  ReleaseVector(&partition_.lane_mm1);
  ReleaseVector(&partition_.lane_value_sum);
  ReleaseVector(&partition_.lane_singleton_sum);
  ReleaseVector(&partition_.lane_delta);
  ReleaseVector(&partition_.lane_map);
  partition_.root_cut_hint = 0;
  ReleaseVector(&bounds_);
  ReleaseVector(&buckets_);
  SyncResidentBytes();
}

void IndexScratch::SyncResidentBytes() {
  const int64_t now = ApproxBytes();
  if (now != reported_bytes_) {
    scratch::AddResidentBytes(now - reported_bytes_);
    reported_bytes_ = now;
  }
}

const SortedEntityIndex& IndexScratch::RebuildIndex(
    const ReplicateSample& rep) {
  // Cooperative trim (scratch_metrics.h): one relaxed load per replicate;
  // the release only runs on the owning thread, right before a rebuild —
  // the one moment dropping the buffers cannot change any result.
  const uint64_t epoch = scratch::TrimEpoch();
  if (epoch != trim_epoch_seen_) {
    trim_epoch_seen_ = epoch;
    Trim();
  }
  index_.Clear();
  const SampleView* view = rep.view;
  const bool incremental =
      view != nullptr && rep.entity_indices.size() == rep.entities.size() &&
      static_cast<size_t>(view->num_entities()) >= rep.entities.size();
  if (!incremental) {
    for (const EntityPoint& point : rep.entities) index_.Append(point);
    index_.Finalize(/*nearly_sorted=*/false);
    SyncResidentBytes();
    return index_;
  }

  // Scatter the replicate into dense per-original-entity columns, then
  // gather in the view's rank order: the result is nearly sorted by
  // replicate value (a replicate perturbs multiplicities, not the entity
  // ordering), so Finalize only fixes up the few points that moved.
  const size_t num_entities = static_cast<size_t>(view->num_entities());
  if (scatter_mult_.size() < num_entities) {
    scatter_mult_.resize(num_entities, 0);
    scatter_value_.resize(num_entities, 0.0);
  }
  int64_t* UUQ_RESTRICT mult = scatter_mult_.data();
  double* UUQ_RESTRICT value = scatter_value_.data();
  for (size_t i = 0; i < rep.entities.size(); ++i) {
    const size_t e = static_cast<size_t>(rep.entity_indices[i]);
    // Build* keeps entity_indices inside the view's entity space; a
    // hand-assembled replicate that sets `view` owns this invariant.
    UUQ_DCHECK(e < num_entities);
    mult[e] = rep.entities[i].multiplicity;
    value[e] = rep.entities[i].value;
  }
  for (int32_t e : view->entity_rank_order()) {
    const size_t idx = static_cast<size_t>(e);
    if (mult[idx] == 0) continue;
    index_.Append({value[idx], mult[idx]});
    mult[idx] = 0;  // restore the resting invariant as we go
  }
  index_.Finalize(/*nearly_sorted=*/true);
  SyncResidentBytes();
  return index_;
}

namespace {

/// |Δ| of a slice, treating non-finite estimates as +infinity so that
/// singleton-only buckets are never attractive to the split search. Uses
/// the delta-only path: no Estimate (and no string) per candidate slice.
/// Shares NormalizedAbsDelta (estimate.h) with the batched kernel contract
/// so the scalar and SoA paths normalize identically by construction.
double AbsDelta(const StatsSumEstimator& inner, const SampleStats& stats) {
  if (stats.empty()) return 0.0;
  return NormalizedAbsDelta(inner.DeltaFromStats(stats));
}

void SingleBucket(size_t size, std::vector<size_t>* bounds) {
  bounds->clear();
  bounds->push_back(0);
  bounds->push_back(size);
}

// Below this many candidates the per-scan fixed costs of the SoA path
// (column growth checks, kernel prologue, vector epilogues) outweigh the
// kernel win; tiny scans evaluate candidate by candidate instead. Both
// paths produce identical results, so the crossover is pure tuning.
constexpr size_t kMinBatchCuts = 8;

}  // namespace

std::vector<size_t> BucketPartitioner::Partition(
    const SortedEntityIndex& index, const StatsSumEstimator& inner) const {
  PartitionScratch scratch;
  std::vector<size_t> bounds;
  PartitionInto(index, inner, &scratch, &bounds);
  return bounds;
}

EquiWidthPartitioner::EquiWidthPartitioner(int num_buckets)
    : num_buckets_(num_buckets) {
  UUQ_CHECK_MSG(num_buckets >= 1, "need at least one bucket");
}

std::string EquiWidthPartitioner::name() const {
  return "eq-width-" + std::to_string(num_buckets_);
}

void EquiWidthPartitioner::PartitionInto(const SortedEntityIndex& index,
                                         const StatsSumEstimator& inner,
                                         PartitionScratch* scratch,
                                         std::vector<size_t>* bounds) const {
  UUQ_UNUSED(inner);
  UUQ_UNUSED(scratch);
  const auto& entities = index.entities();
  if (entities.empty()) return SingleBucket(0, bounds);
  const double lo = entities.front().value;
  const double hi = entities.back().value;
  if (num_buckets_ == 1 || hi == lo) {
    return SingleBucket(entities.size(), bounds);
  }

  const double width = (hi - lo) / num_buckets_;
  bounds->clear();
  bounds->push_back(0);
  size_t pos = 0;
  for (int b = 1; b < num_buckets_; ++b) {
    const double boundary = lo + width * b;
    while (pos < entities.size() && entities[pos].value <= boundary) ++pos;
    // Empty buckets collapse (duplicate boundaries are dropped).
    if (pos > bounds->back()) bounds->push_back(pos);
  }
  if (entities.size() > bounds->back()) bounds->push_back(entities.size());
}

EquiHeightPartitioner::EquiHeightPartitioner(int num_buckets)
    : num_buckets_(num_buckets) {
  UUQ_CHECK_MSG(num_buckets >= 1, "need at least one bucket");
}

std::string EquiHeightPartitioner::name() const {
  return "eq-height-" + std::to_string(num_buckets_);
}

void EquiHeightPartitioner::PartitionInto(const SortedEntityIndex& index,
                                          const StatsSumEstimator& inner,
                                          PartitionScratch* scratch,
                                          std::vector<size_t>* bounds) const {
  UUQ_UNUSED(inner);
  UUQ_UNUSED(scratch);
  const size_t size = index.size();
  if (size == 0) return SingleBucket(0, bounds);
  const int k = std::min<int>(num_buckets_, static_cast<int>(size));
  bounds->clear();
  bounds->push_back(0);
  for (int b = 1; b < k; ++b) {
    size_t pos = size * static_cast<size_t>(b) / static_cast<size_t>(k);
    // Entities with equal values must not straddle a boundary (a bucket is a
    // value range); advance to the end of the tied run.
    if (pos > 0 && pos < size &&
        index.entities()[pos].value == index.entities()[pos - 1].value) {
      pos = index.UpperBoundOfValueAt(pos - 1);
    }
    if (pos > bounds->back() && pos < size) bounds->push_back(pos);
  }
  bounds->push_back(size);
}

void DynamicPartitioner::PartitionInto(const SortedEntityIndex& index,
                                       const StatsSumEstimator& inner,
                                       PartitionScratch* scratch,
                                       std::vector<size_t>* bounds) const {
  UUQ_CHECK(scratch != nullptr && bounds != nullptr);
  const size_t size = index.size();
  if (size == 0) return SingleBucket(0, bounds);

  constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();
  auto& todo = scratch->todo;
  auto& done = scratch->done;
  auto& cuts = scratch->cuts;
  auto& left_half = scratch->left_half;
  auto& right_half = scratch->right_half;
  auto& memo_cuts = scratch->memo_cuts;
  auto& memo_delta = scratch->memo_delta;
  todo.clear();
  done.clear();
  memo_cuts.clear();
  memo_delta.clear();

  // delta_min tracks the global objective Σ|Δ(b)| over all current buckets
  // (todo + finalized), exactly as Algorithm 1's δmin. done_delta_sum is
  // the Σ|Δ| of the finalized buckets, accumulated in done-push order —
  // the same left-fold a recomputation loop over `done` would run.
  double delta_min = AbsDelta(inner, index.Slice(0, size));
  double done_delta_sum = 0.0;
  todo.push_back({0, size, delta_min, 0, 0, false, false});

  // FIFO worklist on a flat vector: `head` plays the deque's pop_front, so
  // the split order — and with it every tie-break — matches the historical
  // deque-based traversal while staying allocation-free on reuse.
  for (size_t head = 0; head < todo.size(); ++head) {
    // Bucket-granularity cancellation: a fired token finalizes every
    // pending bucket unsplit, so the bounds below are still a valid
    // partition (just coarser than Algorithm 1's fixpoint) and no scan
    // starts after the token fires.
    if (cancel_.Fired()) {
      for (size_t i = head; i < todo.size(); ++i) {
        done.push_back({todo[i].begin, todo[i].end});
      }
      break;
    }
    const PartitionScratch::Bucket work = todo[head];  // copy: todo may grow
    const size_t b_begin = work.begin;
    const size_t b_end = work.end;
    // |Δ| of this bucket was evaluated when it was a candidate slice of the
    // parent's scan (same Slice, same DeltaFromStats — bit-identical to
    // recomputing it); the root computed it above.
    const double b_delta = work.delta;
    // Objective contribution of everything except bucket b. Infinity-aware:
    // if b_delta is infinite, the remainder is what other buckets
    // contribute — rebuilt from the memoized per-bucket deltas (bit-
    // identical to re-evaluating every stored range, per the memo
    // invariant) rather than subtracting inf; O(#pending) additions, no
    // slice re-evaluation even on all-infinite inputs.
    double delta_rest;
    if (std::isinf(b_delta) || std::isinf(delta_min)) {
      delta_rest = done_delta_sum;
      for (size_t i = head + 1; i < todo.size(); ++i) {
        delta_rest += todo[i].delta;
      }
      delta_min = delta_rest + b_delta;
    } else {
      delta_rest = delta_min - b_delta;
    }

    // Candidate split points: after each run of equal values. A split never
    // changes run boundaries, so a child inherits its cut list (and the
    // known half-deltas) from the parent scan; only the root walks the
    // index. The arena is append-only and only grows in the split phase
    // below, so these pointers stay valid for the whole scan.
    if (!work.has_memo) {
      cuts.clear();
      size_t cut = b_begin < size ? index.UpperBoundOfValueAt(b_begin) : b_end;
      while (cut < b_end) {
        cuts.push_back(cut);
        cut = index.UpperBoundOfValueAt(cut);
      }
    }
    const size_t num_cuts =
        work.has_memo ? work.memo_end - work.memo_begin : cuts.size();
    // No UUQ_RESTRICT here: cut_at aliases memo_cuts' storage in the memo
    // case, and the split phase below mutates memo_cuts (every read after
    // an append re-resolves by index instead of going through cut_at).
    const size_t* cut_at =
        work.has_memo ? memo_cuts.data() + work.memo_begin : cuts.data();
    const double* known =
        work.has_memo ? memo_delta.data() + work.memo_begin : nullptr;
    const bool known_is_left = work.memo_is_left;

    left_half.resize(num_cuts);
    right_half.resize(num_cuts);
    double* UUQ_RESTRICT lhalf = left_half.data();
    double* UUQ_RESTRICT rhalf = right_half.data();

    bool found = false;
    size_t best_index = 0;
    // PRUNING. Every candidate total is (delta_rest + |Δ(left)|) +
    // |Δ(right)| with both halves nonnegative, so delta_rest plus any
    // already-known half is a lower bound (in FP too: fl is monotone and
    // adding a nonnegative term never shrinks the sum). A candidate whose
    // bound cannot go strictly below δmin can neither win the argmin nor
    // move δmin, so its missing half is never computed (its slot stays NaN,
    // which the argmin skips); when even delta_rest ≥ δmin — e.g. a
    // singleton-free bucket with Δ == 0 — the whole scan is skipped. Tiny
    // scans (< kMinBatchCuts, file scope) evaluate candidate by candidate
    // instead of through the SoA kernel.
    if (delta_rest < delta_min && num_cuts >= kMinBatchCuts) {
      // BATCHED SoA EVALUATION, one block of kScanBlock candidates at a
      // time, the pruning δmin refreshed between blocks: pruning against
      // the δmin current at a block's start is valid for the same reason
      // running-min pruning is (δmin only decreases, so total ≥ block-start
      // δmin implies total ≥ every later δmin — the candidate can neither
      // win the argmin nor move δmin), and every evaluation still runs
      // through the vectorized kernel.
      //
      // PROBE SEEDING. A fresh two-sided scan (the root) starts with
      // δmin = |Δ(whole bucket)|, which is far above the eventual minimum,
      // so the first blocks would evaluate nearly everything. Evaluating
      // ONE central candidate up front gives an upper bound on the scan
      // minimum to prune against from lane one. The probe total is only a
      // PRUNING reference, never folded early: found/best_index/delta_min
      // still come from the in-order fold, so the outcome is unchanged —
      // pruning against any value ≥ the global minimum, STRICTLY, preserves
      // (min, first attainer) exactly.
      constexpr size_t kScanBlock = 32;
      double prune_seed = delta_min;
      if (known == nullptr && num_cuts >= 2 * kScanBlock) {
        // Probe the candidate nearest the previous partition's winning
        // root cut (replicates are near-identical workloads), falling back
        // to the middle candidate on the first call.
        size_t probe_index = num_cuts / 2;
        if (scratch->root_cut_hint != 0) {
          const size_t* pos = std::lower_bound(cut_at, cut_at + num_cuts,
                                               scratch->root_cut_hint);
          probe_index =
              std::min(static_cast<size_t>(pos - cut_at), num_cuts - 1);
        }
        const size_t probe_cut = cut_at[probe_index];
        const double probe_total =
            delta_rest + AbsDelta(inner, index.Slice(b_begin, probe_cut)) +
            AbsDelta(inner, index.Slice(probe_cut, b_end));
        if (probe_total < prune_seed) prune_seed = probe_total;
      }

      // A phase packs at most one block of lanes, from lane 0.
      const size_t max_lanes = std::min(num_cuts, kScanBlock);
      const auto grown = [max_lanes](std::vector<double>& column) {
        if (column.size() < max_lanes) column.resize(max_lanes);
        return column.data();
      };
      double* UUQ_RESTRICT ln = grown(scratch->lane_n);
      double* UUQ_RESTRICT lc = grown(scratch->lane_c);
      double* UUQ_RESTRICT lf1 = grown(scratch->lane_f1);
      double* UUQ_RESTRICT lmm1 = grown(scratch->lane_mm1);
      double* UUQ_RESTRICT lvs = grown(scratch->lane_value_sum);
      double* UUQ_RESTRICT lss = grown(scratch->lane_singleton_sum);
      double* lout = grown(scratch->lane_delta);
      auto& lane_map = scratch->lane_map;

      // Gathers slice [slice_begin, slice_end) into the next free lane for
      // candidate `i`. A degenerate n == 0 slice (only zero-multiplicity
      // points) records the AbsDelta convention (0.0) directly instead.
      const auto gather = [&](size_t i, size_t slice_begin, size_t slice_end,
                              double* half_slot) {
        const int64_t n = index.SliceColumnsInto(
            slice_begin, slice_end, lane_map.size(), ln, lc, lf1, lmm1, lvs,
            lss);
        if (n == 0) {
          *half_slot = 0.0;
        } else {
          lane_map.push_back(static_cast<uint32_t>(i));
        }
      };
      // One kernel pass over the gathered lanes, scattered into `half`.
      const auto run_kernel = [&](double* half) {
        if (lane_map.empty()) return;
        StatsBatchView view;
        view.size = lane_map.size();
        view.n = ln;
        view.c = lc;
        view.f1 = lf1;
        view.sum_mm1 = lmm1;
        view.value_sum = lvs;
        view.singleton_sum = lss;
        inner.DeltaFromStatsBatch(view, lout);
        for (size_t k = 0; k < lane_map.size(); ++k) {
          half[lane_map[k]] = lout[k];
        }
      };

      for (size_t cand = 0; cand < num_cuts; cand += kScanBlock) {
        const size_t cand_end = std::min(num_cuts, cand + kScanBlock);
        const double prune = std::min(prune_seed, delta_min);
        // Phase 1: left lanes (and known-half bookkeeping). Prunable on
        // known halves alone only when STRICTLY greater: `prune` may be
        // probe-seeded (a candidate total, not a folded running min), and a
        // candidate tying the eventual global minimum must stay.
        lane_map.clear();
        for (size_t i = cand; i < cand_end; ++i) {
          double left = kUnknown;
          double right = kUnknown;
          if (known != nullptr) (known_is_left ? left : right) = known[i];
          lhalf[i] = left;
          rhalf[i] = right;
          const bool left_known = !std::isnan(left);
          const bool right_known = !std::isnan(right);
          const double bound = delta_rest + (left_known ? left : 0.0) +
                               (right_known ? right : 0.0);
          if (bound > prune || left_known) continue;
          gather(i, b_begin, cut_at[i], &lhalf[i]);
        }
        run_kernel(lhalf);
        // Phase 2: right lanes, gated on the now-known left halves. A NaN
        // left marks a whole-pruned candidate; delta_rest + left above the
        // reference prunes the right half (the candidate total only adds a
        // nonnegative term, so it cannot come back below).
        lane_map.clear();
        for (size_t i = cand; i < cand_end; ++i) {
          if (!std::isnan(rhalf[i])) continue;  // inherited or recorded
          const double left = lhalf[i];
          if (std::isnan(left) || delta_rest + left > prune) continue;
          gather(i, cut_at[i], b_end, &rhalf[i]);
        }
        run_kernel(rhalf);
        // Fold: pure in-order argmin (halves already scattered).
        for (size_t i = cand; i < cand_end; ++i) {
          const double left = lhalf[i];
          const double right = rhalf[i];
          if (std::isnan(left) || std::isnan(right)) continue;  // pruned
          const double total = delta_rest + left + right;
          if (total < delta_min) {
            delta_min = total;
            best_index = i;
            found = true;
          }
        }
      }
      // Remember the root's winning cut as the next partition's probe.
      if (head == 0 && found) scratch->root_cut_hint = cut_at[best_index];
    } else if (delta_rest < delta_min && num_cuts > 0) {
      // Per-candidate evaluation against the running δmin. Both halves are
      // recorded (NaN where skipped) for the children.
      for (size_t i = 0; i < num_cuts; ++i) {
        double left = kUnknown;
        double right = kUnknown;
        if (known != nullptr) (known_is_left ? left : right) = known[i];
        const bool left_known = !std::isnan(left);
        const bool right_known = !std::isnan(right);
        const double bound = delta_rest + (left_known ? left : 0.0) +
                             (right_known ? right : 0.0);
        if (bound < delta_min) {
          if (!left_known) {
            left = AbsDelta(inner, index.Slice(b_begin, cut_at[i]));
          }
          if (!right_known && delta_rest + left < delta_min) {
            right = AbsDelta(inner, index.Slice(cut_at[i], b_end));
          }
        }
        lhalf[i] = left;
        rhalf[i] = right;
        if (std::isnan(left) || std::isnan(right)) continue;  // pruned
        const double total = delta_rest + left + right;
        if (total < delta_min) {
          delta_min = total;
          best_index = i;
          found = true;
        }
      }
    }

    if (found) {
      // The winner was fully evaluated, so both of its halves are the
      // children's bucket deltas; the other candidates hand their
      // child-side halves (NaN where pruned) down through the arena.
      // (Appends read only the scan-local half arrays plus `cut_at`
      // re-resolved by index, so arena reallocation is safe.)
      //
      // ARENA CAP. The arena is append-only and finished slices are never
      // reclaimed, so a pathological peel-one-run-per-split partition would
      // grow it to O(runs²). Past a generous O(size) budget, children are
      // pushed WITHOUT a memo slice instead — they re-walk their cuts and
      // evaluate both halves fresh, which is bit-identical (the memoized
      // values ARE those expressions' results), just slower — bounding the
      // thread_local scratch's high-water mark. The per-bucket delta is a
      // scalar and is always carried.
      const size_t best_cut = cut_at[best_index];
      const size_t cut_base = work.has_memo ? work.memo_begin : 0;
      const std::vector<size_t>& cut_source = work.has_memo ? memo_cuts : cuts;
      const bool memoize_children = memo_cuts.size() <= 32 * size + 1024;

      PartitionScratch::Bucket left_child;
      left_child.begin = b_begin;
      left_child.end = best_cut;
      left_child.delta = left_half[best_index];
      if (memoize_children) {
        left_child.memo_begin = memo_cuts.size();
        for (size_t i = 0; i < best_index; ++i) {
          const size_t cut = cut_source[cut_base + i];
          memo_cuts.push_back(cut);
          memo_delta.push_back(left_half[i]);
        }
        left_child.memo_end = memo_cuts.size();
        left_child.memo_is_left = true;
        left_child.has_memo = true;
      }

      PartitionScratch::Bucket right_child;
      right_child.begin = best_cut;
      right_child.end = b_end;
      right_child.delta = right_half[best_index];
      if (memoize_children) {
        right_child.memo_begin = memo_cuts.size();
        for (size_t i = best_index + 1; i < num_cuts; ++i) {
          const size_t cut = cut_source[cut_base + i];
          memo_cuts.push_back(cut);
          memo_delta.push_back(right_half[i]);
        }
        right_child.memo_end = memo_cuts.size();
        right_child.memo_is_left = false;
        right_child.has_memo = true;
      }

      todo.push_back(left_child);
      todo.push_back(right_child);
    } else {
      done_delta_sum += b_delta;
      done.push_back({b_begin, b_end});
    }
  }

  std::sort(done.begin(), done.end());
  bounds->clear();
  bounds->push_back(0);
  for (const auto& r : done) bounds->push_back(r.second);
}

BucketSumEstimator::BucketSumEstimator()
    : BucketSumEstimator(std::make_shared<DynamicPartitioner>(),
                         std::make_shared<NaiveEstimator>()) {}

BucketSumEstimator::BucketSumEstimator(
    std::shared_ptr<const BucketPartitioner> partitioner,
    std::shared_ptr<const StatsSumEstimator> inner)
    : partitioner_(std::move(partitioner)), inner_(std::move(inner)) {
  UUQ_CHECK(partitioner_ != nullptr && inner_ != nullptr);
  name_ = "bucket[" + partitioner_->name();
  if (inner_->name() != "naive") name_ += "," + inner_->name();
  name_ += "]";
}

std::string BucketSumEstimator::name() const { return name_; }

void BucketSumEstimator::ComputeBucketsInto(
    const SortedEntityIndex& index, PartitionScratch* partition_scratch,
    std::vector<size_t>* bounds, std::vector<ValueBucket>* out) const {
  partitioner_->PartitionInto(index, *inner_, partition_scratch, bounds);
  out->clear();
  for (size_t i = 0; i + 1 < bounds->size(); ++i) {
    const size_t begin = (*bounds)[i];
    const size_t end = (*bounds)[i + 1];
    if (begin == end) continue;
    out->emplace_back();
    ValueBucket& bucket = out->back();
    bucket.lo = index.entities()[begin].value;
    bucket.hi = index.entities()[end - 1].value;
    bucket.stats = index.Slice(begin, end);
    bucket.estimate = inner_->FromStats(bucket.stats);
  }
}

std::vector<ValueBucket> BucketSumEstimator::ComputeBuckets(
    const SortedEntityIndex& index) const {
  // Deliberately stack-local (unlike the replicate hot path's thread_local
  // IndexScratch): a one-shot point estimate on a huge index would
  // otherwise pin the memo arena's O(size) high-water allocation to the
  // thread for its lifetime.
  PartitionScratch partition_scratch;
  std::vector<size_t> bounds;
  std::vector<ValueBucket> buckets;
  ComputeBucketsInto(index, &partition_scratch, &bounds, &buckets);
  return buckets;
}

std::vector<ValueBucket> BucketSumEstimator::ComputeBuckets(
    const IntegratedSample& sample) const {
  return ComputeBuckets(SortedEntityIndex(sample.entities()));
}

namespace {

/// The default warm scratch for replicate callers that bring none.
IndexScratch& ThreadScratch() {
  // thread_local: one per worker thread keeps the replicate path
  // allocation-free without sharing mutable index state across threads.
  static thread_local IndexScratch scratch;
  return scratch;
}

}  // namespace

const std::vector<ValueBucket>& BucketSumEstimator::ComputeBuckets(
    const ReplicateSample& rep) const {
  IndexScratch& scratch = ThreadScratch();
  ComputeBucketsInto(scratch.RebuildIndex(rep), &scratch.partition_,
                     &scratch.bounds_, &scratch.buckets_);
  return scratch.buckets_;
}

namespace {

/// Eq. 11 aggregation shared by the sample and replicate paths. `whole`
/// must be the full-sample stats folded in entity order.
Estimate CombineBuckets(const std::string& estimator_name,
                        const std::vector<ValueBucket>& buckets,
                        const SampleStats& whole) {
  Estimate est;
  est.estimator = estimator_name;
  est.num_buckets = static_cast<int>(buckets.size());
  est.coverage_ok = whole.Coverage() >= 0.4;
  if (buckets.empty()) {
    est.coverage_ok = false;
    return est;
  }

  double delta = 0.0;
  double n_hat = 0.0;
  bool finite = true;
  for (const ValueBucket& b : buckets) {
    delta += b.estimate.delta;
    n_hat += b.estimate.n_hat;
    finite = finite && b.estimate.finite;
  }
  est.delta = delta;
  est.n_hat = n_hat;
  est.missing_count = n_hat - static_cast<double>(whole.c);
  est.missing_value =
      est.missing_count > 0.0 ? delta / est.missing_count : 0.0;
  est.finite = finite && std::isfinite(delta);
  est.corrected_sum = whole.value_sum + delta;
  return est;
}

}  // namespace

Estimate BucketSumEstimator::EstimateImpact(
    const IntegratedSample& sample) const {
  return CombineBuckets(name_, ComputeBuckets(sample),
                        SampleStats::FromSample(sample));
}

Estimate BucketSumEstimator::EstimateImpact(const IntegratedSample& sample,
                                            const SamplePrecomp* pre) const {
  if (pre == nullptr || pre->index == nullptr) return EstimateImpact(sample);
  // pre->index is SortedEntityIndex(sample.entities()) built ahead of time
  // and pre->stats the FromSample fold — the exact expressions the uncached
  // overload evaluates, so this path is bit-identical by construction.
  const SampleStats whole =
      pre->stats != nullptr ? *pre->stats : SampleStats::FromSample(sample);
  return CombineBuckets(name_, ComputeBuckets(*pre->index), whole);
}

Estimate BucketSumEstimator::EstimateReplicate(
    const ReplicateSample& rep) const {
  return EstimateReplicate(rep, &ThreadScratch());
}

Estimate BucketSumEstimator::EstimateReplicate(const ReplicateSample& rep,
                                               IndexScratch* scratch) const {
  UUQ_CHECK(scratch != nullptr);
  const SortedEntityIndex& index = scratch->RebuildIndex(rep);
  ComputeBucketsInto(index, &scratch->partition_, &scratch->bounds_,
                     &scratch->buckets_);
  return CombineBuckets(name_, scratch->buckets_,
                        SampleStats::FromReplicate(rep));
}

}  // namespace uuq
