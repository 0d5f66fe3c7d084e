#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

/// ceil(p/100 * n), immune to the product landing a rounding error above
/// an integer (99.99% of 100000 must be rank 99990, not 99991).
double NearestRank(double p, double n) {
  return std::ceil(p / 100.0 * n - 1e-9 * n);
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(NearestRank(p, n));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, 50.0);
}

Tail TailOf(std::vector<double> values, double ceiling) {
  static constexpr double kLadder[] = {99.99, 99.95, 99.9, 99.5,
                                       99.0,  95.0,  90.0, 50.0};
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.n = static_cast<int64_t>(values.size());
  if (values.empty()) return tail;
  for (double p : kLadder) {
    if (p > ceiling) continue;
    const int64_t rank =
        static_cast<int64_t>(NearestRank(p, static_cast<double>(tail.n)));
    if (tail.n - rank >= 10) {
      tail.value = PercentileSorted(values, p);
      tail.percentile = p;
      tail.beyond = tail.n - rank;
      return tail;
    }
  }
  tail.value = values.back();
  tail.percentile = 100.0;
  tail.beyond = 0;
  return tail;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> covered;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const double lo = std::max(spans[c].start_us, s.start_us);
        const double hi = std::min(spans[c].end_us, s.end_us);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) union_us += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) union_us += cur_hi - cur_lo;
    self[i] = (s.end_us - s.start_us) - union_us;
  }
  return self;
}

int64_t Trace::Add(const std::string& name, int64_t parent, int64_t request,
                   double start_us, double end_us) {
  const int64_t id = Open();
  Close(id, name, parent, request, start_us, end_us);
  return id;
}

int64_t Trace::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Trace::Close(int64_t id, const std::string& name, int64_t parent,
                  int64_t request, double start_us, double end_us) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, request, name, start_us, end_us});
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Trace::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfTimesUs(all);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"self_us\":%.3f}%s\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(),
                 s.start_us, s.end_us, self[i],
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    ticks.steal = v[7];
    for (unsigned long long x : v) ticks.total += x;
  }
  std::fclose(f);
  return ticks;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
