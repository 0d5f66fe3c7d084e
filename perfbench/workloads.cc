#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"
#include "decompose.h"
#include "measure.h"
#include "serving/query_service.h"
#include "serving/sample_cache.h"
#include "simulation/crowd.h"
#include "simulation/population.h"
#include "simulation/scenarios.h"

namespace perfbench {

using uuq::AggregateKind;
using uuq::CorrectedAnswer;
using uuq::IntegratedSample;
using uuq::QueryService;
using uuq::SampleArtifacts;
using uuq::ServedResult;
using uuq::StatusCode;

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeRepeat:
      return "serve-repeat";
    case Workload::kServeDistinct:
      return "serve-distinct";
    case Workload::kIngestRefresh:
      return "ingest-refresh";
    case Workload::kOfflineAnalyst:
      return "offline-analyst";
  }
  return "unknown";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kServeRepeat, Workload::kServeDistinct,
                     Workload::kIngestRefresh, Workload::kOfflineAnalyst}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SampleInput::TrueSum(double threshold) const {
  auto it = population.begin();
  if (threshold == threshold) {
    it = std::upper_bound(population.begin(), population.end(), threshold);
  }
  double sum = 0.0;
  for (; it != population.end(); ++it) sum += *it;
  return sum;
}

double SampleInput::ObservedAggregate(AggregateKind kind) const {
  if (observed.empty()) return 0.0;
  double sum = 0.0;
  for (double v : observed) sum += v;
  switch (kind) {
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kCount:
      return static_cast<double>(observed.size());
    case AggregateKind::kAvg:
      return sum / static_cast<double>(observed.size());
    case AggregateKind::kMin:
      return observed.front();
    case AggregateKind::kMax:
      return observed.back();
  }
  return sum;
}

std::string SqlFor(AggregateKind kind, double threshold) {
  std::string sql = "SELECT ";
  switch (kind) {
    case AggregateKind::kSum:
      sql += "SUM(value)";
      break;
    case AggregateKind::kCount:
      sql += "COUNT(*)";
      break;
    case AggregateKind::kAvg:
      sql += "AVG(value)";
      break;
    case AggregateKind::kMin:
      sql += "MIN(value)";
      break;
    case AggregateKind::kMax:
      sql += "MAX(value)";
      break;
  }
  sql += " FROM integrated";
  if (threshold == threshold) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " WHERE value > %.6f", threshold);
    sql += buf;
  }
  return sql;
}

namespace {

constexpr AggregateKind kDashboard[] = {AggregateKind::kSum,
                                        AggregateKind::kCount,
                                        AggregateKind::kAvg,
                                        AggregateKind::kMax};
constexpr size_t kStreamRequests = 20000;
constexpr int kFewSourceCrowds = 8;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The threshold exactly as the SQL text carries it.
double AsWritten(double threshold) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", threshold);
  return std::strtod(buf, nullptr);
}

/// Linear-interpolated quantile of ascending `sorted`.
double Quantile(const std::vector<double>& sorted, double u) {
  const double pos = u * static_cast<double>(sorted.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= sorted.size()) return sorted.back();
  return sorted[i] + (pos - static_cast<double>(i)) * (sorted[i + 1] - sorted[i]);
}

SampleInput MakeSample(std::string name, const uuq::Population& population,
                       std::vector<uuq::Observation> stream) {
  SampleInput s;
  s.name = std::move(name);
  s.stream = std::move(stream);
  for (const auto& item : population.items()) s.population.push_back(item.value);
  std::sort(s.population.begin(), s.population.end());
  std::unordered_map<std::string, std::pair<double, int>> fused;
  for (const auto& obs : s.stream) {
    auto& f = fused[obs.entity_key];
    f.first += obs.value;
    f.second += 1;
  }
  for (const auto& [key, f] : fused) s.observed.push_back(f.first / f.second);
  std::sort(s.observed.begin(), s.observed.end());
  return s;
}

SampleInput FromScenario(uuq::Scenario scenario) {
  return MakeSample(scenario.name, scenario.population,
                    std::move(scenario.stream));
}

/// A heavy-tailed population sampled by `workers` crowd sources.
SampleInput HeavyTailCrowd(const std::string& name, uint64_t seed, int items,
                           int workers, int answers) {
  uuq::HeavyTailPopulationConfig pc;
  pc.num_items = items;
  pc.key_prefix = "item";
  pc.seed = Mix(seed, 1);
  const uuq::Population population = uuq::MakeHeavyTailPopulation(pc);
  uuq::CrowdConfig cc;
  cc.num_workers = workers;
  cc.answers_per_worker = answers;
  cc.seed = Mix(seed, 2);
  const uuq::CrowdSimulator simulator(&population, cc);
  return MakeSample(name, population, simulator.GenerateStream());
}

Request MakeRequest(AggregateKind kind, int sample, double threshold,
                    double epsilon) {
  Request r;
  r.kind = kind;
  r.sample = sample;
  r.threshold = threshold;
  r.epsilon = epsilon;
  r.sql = SqlFor(kind, threshold);
  return r;
}

}  // namespace

Inputs MakeInputs(Workload workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  switch (workload) {
    case Workload::kServeRepeat: {
      in.samples.push_back(
          FromScenario(uuq::scenarios::UsTechEmployment(Mix(seed, 11))));
      // 12 predicates: none, then value > the 5%..55% observed quantiles.
      const std::vector<double>& observed = in.samples[0].observed;
      std::vector<double> thresholds = {kNaN};
      for (int i = 1; i <= 11; ++i) {
        double t = AsWritten(Quantile(observed, 0.05 * i));
        while (std::find(thresholds.begin(), thresholds.end(), t) !=
               thresholds.end()) {
          t = AsWritten(t + 0.5);
        }
        thresholds.push_back(t);
      }
      for (AggregateKind kind : kDashboard) {
        for (double t : thresholds) {
          in.requests.push_back(MakeRequest(kind, 0, t, 0.0));
        }
      }
      const int texts = static_cast<int>(in.requests.size());
      for (int i = 0; i < texts; ++i) in.rank_to_text.push_back(i);
      uuq::Rng rng(Mix(seed, 12));
      rng.Shuffle(&in.rank_to_text);
      double total = 0.0;
      for (int r = 1; r <= texts; ++r) total += 1.0 / std::pow(r, 1.1);
      double cumulative = 0.0;
      for (int r = 1; r <= texts; ++r) {
        cumulative += 1.0 / std::pow(r, 1.1) / total;
        in.zipf_cdf.push_back(cumulative);
      }
      in.zipf_cdf.back() = 1.0;
      break;
    }
    case Workload::kServeDistinct: {
      in.samples.push_back(
          HeavyTailCrowd("heavy-tail", Mix(seed, 21), 20000, 200, 100));
      const SampleInput& s = in.samples[0];
      uuq::Rng rng(Mix(seed, 22));
      std::set<std::string> seen;
      // Stratified, so every stretch of the stream carries the same mix:
      // request i asks for aggregate i % 4, and every fourth round of four
      // is predicate-free with a precision target.
      while (in.requests.size() < kStreamRequests) {
        const size_t i = in.requests.size();
        const AggregateKind kind = kDashboard[i % 4];
        if ((i / 4) % 4 == 3) {
          // Predicate-free with its own precision target, relative to the
          // observed aggregate so every aggregate gets a comparable mix of
          // pilot stops and escalations.
          const double rel =
              std::exp(rng.NextUniform(std::log(0.002), std::log(0.03)));
          in.requests.push_back(MakeRequest(
              kind, 0, kNaN, rel * std::fabs(s.ObservedAggregate(kind))));
        } else {
          const double t =
              AsWritten(Quantile(s.observed, rng.NextUniform(0.0, 0.7)));
          Request r = MakeRequest(kind, 0, t, 0.0);
          if (seen.insert(r.sql).second) in.requests.push_back(std::move(r));
        }
      }
      break;
    }
    case Workload::kIngestRefresh: {
      in.samples.push_back(
          HeavyTailCrowd("heavy-tail", Mix(seed, 31), 20000, 200, 100));
      for (AggregateKind kind : kDashboard) {
        in.requests.push_back(MakeRequest(kind, 0, kNaN, 0.0));
      }
      in.batch_size = 500;
      break;
    }
    case Workload::kOfflineAnalyst: {
      namespace sc = uuq::scenarios;
      in.samples.push_back(FromScenario(sc::UsTechEmployment(Mix(seed, 41))));
      in.samples.push_back(FromScenario(sc::UsTechRevenue(Mix(seed, 42))));
      in.samples.push_back(FromScenario(sc::UsGdp(Mix(seed, 43))));
      in.samples.push_back(FromScenario(sc::ProtonBeam(Mix(seed, 44))));
      // Eight few-source crowds, so one seed's Monte Carlo cost is an
      // average over several crowds rather than one crowd's luck.
      for (int i = 0; i < kFewSourceCrowds; ++i) {
        in.samples.push_back(HeavyTailCrowd("few-source-" + std::to_string(i),
                                            Mix(seed, 60 + i), 300,
                                            3 + i % 2, 60));
      }
      // Blocks of 40 in seeded order: each scenario x aggregate twice and
      // each few-source crowd once (SUM in even blocks, COUNT in odd), so
      // one request in five goes to a crowd and every stretch of the
      // stream carries the same mix.
      uuq::Rng rng(Mix(seed, 50));
      for (size_t block = 0; in.requests.size() < kStreamRequests; ++block) {
        std::vector<Request> requests;
        for (int twice = 0; twice < 2; ++twice) {
          for (int sample = 0; sample < 4; ++sample) {
            for (AggregateKind kind : kDashboard) {
              requests.push_back(MakeRequest(kind, sample, kNaN, 0.0));
            }
          }
        }
        const AggregateKind crowd_kind =
            block % 2 == 0 ? AggregateKind::kSum : AggregateKind::kCount;
        for (int c = 0; c < kFewSourceCrowds; ++c) {
          requests.push_back(MakeRequest(crowd_kind, 4 + c, kNaN, 0.0));
        }
        rng.Shuffle(&requests);
        for (Request& r : requests) in.requests.push_back(std::move(r));
      }
      break;
    }
  }
  return in;
}

ZipfStream::ZipfStream(const Inputs& inputs, int client)
    : inputs_(&inputs), rng_(Mix(inputs.seed, 100 + client)) {}

int ZipfStream::Next() {
  const double u = rng_.NextDouble();
  const auto it =
      std::upper_bound(inputs_->zipf_cdf.begin(), inputs_->zipf_cdf.end(), u);
  const size_t rank = std::min<size_t>(
      static_cast<size_t>(it - inputs_->zipf_cdf.begin()),
      inputs_->zipf_cdf.size() - 1);
  return inputs_->rank_to_text[rank];
}

namespace {

constexpr int kSetupReps = 21;
/// Serving workers; the waiters that stamp completions match them.
constexpr int kWorkers = 2;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kReservoirCapacity = size_t{1} << 17;
/// offline-analyst repeats its set-up this many times, evenly spaced,
/// through the measured time.
constexpr int kOfflineSetups = 20;
/// The end-to-end tails stop at p99. Above it, the millions of memo hits
/// in a serve-repeat run put p99.9 and p99.99 on host preemption: across
/// seeds their spreads were about 0.2 and 0.45 of the median.
constexpr double kTailCeiling = 99.0;
/// serve-repeat's latency tail stops at p90. Its answers are memo hits of
/// about 0.1 ms waited on in batches of 32 panels, so a host that takes a
/// vCPU away for a millisecond delays the rest of a batch, and at 10-18%
/// host steal the top 2-5% of its latencies are that stall. Over two
/// ten-seed sets its p99 spread 0.36 and 0.55 of the median, its p90 0.27
/// (four runs at 12-22% steal) and 0.10.
constexpr double kRepeatTailCeiling = 90.0;
constexpr char kLive[] = "live";

/// Fixed-memory uniform sample of a value stream (Algorithm R). Capacity is
/// allocated and touched up front, so the harness's own footprint does not
/// grow with the request rate and peak_rss_mb measures the program.
class Reservoir {
 public:
  explicit Reservoir(uint64_t seed, size_t capacity = kReservoirCapacity)
      : values_(capacity, 0.0f), rng_(seed) {}
  void Add(double v) {
    if (seen_ < static_cast<int64_t>(values_.size())) {
      values_[static_cast<size_t>(seen_)] = static_cast<float>(v);
    } else {
      const uint64_t j = rng_.NextBounded(static_cast<uint64_t>(seen_) + 1);
      if (j < values_.size()) values_[j] = static_cast<float>(v);
    }
    ++seen_;
  }
  void AppendTo(std::vector<double>* out) const {
    const size_t kept =
        std::min(values_.size(), static_cast<size_t>(seen_));
    out->insert(out->end(), values_.begin(),
                values_.begin() + static_cast<std::ptrdiff_t>(kept));
  }

 private:
  std::vector<float> values_;
  uuq::Rng rng_;
  int64_t seen_ = 0;
};

/// A request a client is waiting for: when it was due (open loop), called
/// and admitted, and, once stamped, its result and the client's clock when
/// its Wait returned.
struct Awaited {
  Awaited(size_t index_in, Clock::time_point due_in, Clock::time_point call_in,
          Clock::time_point sent_in, uuq::Result<QueryService::Ticket> t)
      : index(index_in), due(due_in), call(call_in), sent(sent_in),
        ticket(std::move(t)) {}
  uuq::Status admission() const {
    return ticket.ok() ? uuq::Status::OK() : ticket.status();
  }
  size_t index;
  Clock::time_point due, call, sent;
  uuq::Result<QueryService::Ticket> ticket;
  ServedResult result;
  Clock::time_point done;
  bool stamped = false;
};

/// Waits on tickets from its own threads, taking them in submission order,
/// and stamps each with the client's clock as soon as its Wait returns.
/// The service dequeues in FIFO order onto its workers, so when an answer
/// is ready at most kWorkers - 1 earlier requests are still running; with
/// kWorkers waiters one is free to take it, and no completion is charged
/// the wait for a slower predecessor, as it would be if one thread waited
/// on the tickets in order.
class Stamper {
 public:
  Stamper() {
    for (int i = 0; i < kWorkers; ++i) threads_.emplace_back([this] { Loop(); });
  }
  ~Stamper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_.notify_all();
    for (auto& t : threads_) t.join();
  }
  /// Queues `a` for a waiter; `a` must stay in place until Await returns.
  void Watch(Awaited* a) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(a);
    }
    work_.notify_one();
  }
  /// Blocks until `a` is stamped.
  void Await(Awaited* a) {
    std::unique_lock<std::mutex> lock(mu_);
    stamped_.wait(lock, [a] { return a->stamped; });
  }

 private:
  void Loop() {
    for (;;) {
      Awaited* a = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_.wait(lock, [this] { return !queue_.empty() || stopping_; });
        if (queue_.empty()) return;
        a = queue_.front();
        queue_.pop_front();
      }
      ServedResult result;
      if (a->ticket.ok()) result = a->ticket.value().Wait();
      const auto done = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        a->result = std::move(result);
        a->done = done;
        a->stamped = true;
      }
      stamped_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_, stamped_;
  std::deque<Awaited*> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

struct GateSample {
  std::shared_ptr<const IntegratedSample> sample;
  std::string sql;
  int replicates = 0;
  CorrectedAnswer answer;
};

/// Per-client accounting of one measured phase.
struct Recorder {
  explicit Recorder(uint64_t seed)
      : latency(Mix(seed, 1)),
        queue(Mix(seed, 1)),
        run(Mix(seed, 1)),
        submit(Mix(seed, 1)),
        lateness(Mix(seed, 1)) {}
  Reservoir latency, queue, run, submit, lateness;
  int64_t attempted = 0, ok = 0, shed = 0, non_ok = 0, untyped = 0;
  int64_t full_interval = 0, degraded = 0, memo_eligible = 0;
  int64_t targeted = 0, targeted_replicates = 0, precision_degraded = 0;
  std::vector<double> sum_rel_error;
  std::vector<GateSample> gate;
  std::vector<std::string> untyped_codes;
};

/// Non-OK codes the service documents (query_service.h) plus the parser's.
bool DocumentedCode(StatusCode code) {
  switch (code) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kUnavailable:
    case StatusCode::kNotFound:
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

bool SameAnswer(const CorrectedAnswer& a, const CorrectedAnswer& b) {
  return SameBits(a.observed, b.observed) &&
         SameBits(a.corrected, b.corrected) &&
         a.unconstrained == b.unconstrained &&
         a.bootstrap_valid == b.bootstrap_valid &&
         SameBits(a.bootstrap.point, b.bootstrap.point) &&
         SameBits(a.bootstrap.lo, b.bootstrap.lo) &&
         SameBits(a.bootstrap.hi, b.bootstrap.hi) &&
         SameBits(a.bootstrap.median, b.bootstrap.median) &&
         a.bootstrap.finite_replicates == b.bootstrap.finite_replicates;
}

struct Timing {
  double latency_ms = 0.0;
  double submit_us = 0.0;
  double lateness_ms = 0.0;
};

/// One measured phase: the per-client recorders plus phase-level facts.
struct Phase {
  std::vector<std::unique_ptr<Recorder>> clients;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t throughput_ok = 0;   ///< OK queries in the closed-loop phase
  double throughput_wall_s = 0.0;
  double peak_rss_mb = 0.0;  ///< when the latency phase ended
  std::vector<double> staleness_ms;
  std::vector<double> register_ms;
  std::vector<std::string> memo_keys;  ///< keys sent, per snapshot

  Recorder* AddClient(uint64_t seed) {
    clients.push_back(std::make_unique<Recorder>(seed));
    return clients.back().get();
  }
  int64_t Sum(int64_t Recorder::*field) const {
    int64_t total = 0;
    for (const auto& c : clients) total += (*c).*field;
    return total;
  }
  std::vector<double> Values(Reservoir Recorder::*field) const {
    std::vector<double> out;
    for (const auto& c : clients) ((*c).*field).AppendTo(&out);
    return out;
  }
};

class Runner {
 public:
  Runner(const Inputs& in, const RunOptions& opt) : in_(in), opt_(opt) {
    if (in.workload == Workload::kServeRepeat) {
      dashboard_ = in.requests;  // the whole catalogue
    } else {
      for (AggregateKind kind : kDashboard) {
        dashboard_.push_back(MakeRequest(kind, 0, kNaN, 0.0));
      }
    }
  }
  RunReport Run();

 private:
  bool serving() const { return in_.workload != Workload::kOfflineAnalyst; }
  std::shared_ptr<IntegratedSample> Ingest(const SampleInput& s) const;
  void Setup();
  void SetupReps(int reps);
  double Dashboard(const std::shared_ptr<const IntegratedSample>& snapshot,
                   Recorder* rec, Clock::time_point arrived);
  void Account(const Request& req, Recorder* rec, const uuq::Status& admission,
               const ServedResult& result, const Timing& timing, bool pick,
               const std::shared_ptr<const IntegratedSample>& snapshot);
  bool Pick(uint64_t stream, uint64_t k, uint64_t period) const {
    return Mix(opt_.seed, stream * 1000003ull + k) % period == 0;
  }
  void SpansFor(const Clock::time_point& call, const Clock::time_point& sent,
                double queue_ms, double run_ms, const Clock::time_point& done,
                int64_t request);

  Phase RepeatPhase(double seconds, bool traced);
  void DistinctOpenLoop(double seconds, bool traced, Phase* phase);
  void DistinctClosedLoop(double seconds, Phase* phase);
  Phase RefreshPhase(double seconds, bool traced);
  Phase OfflinePhase(double seconds, bool traced);
  Phase MainPhase(double seconds, bool traced);

  int64_t Verify(const Phase& phase, RunReport* report);
  void EndToEnd(const Phase& phase, RunReport* report);
  /// |corrected - true| / true of every SUM answer the phase produced.
  std::vector<double> SumRelErrors(const Phase& phase) const;
  void Layers(const Phase& reference, const Phase& traced, RunReport* report);

  const Inputs& in_;
  const RunOptions& opt_;
  /// What a fresh sample must answer before it counts as served: the
  /// catalogue (serve-repeat) or SUM/COUNT/AVG/MAX without a predicate.
  std::vector<Request> dashboard_;
  std::unique_ptr<QueryService> service_;
  Stamper stamper_;
  std::shared_ptr<const IntegratedSample> live_;
  std::vector<std::shared_ptr<const IntegratedSample>> offline_samples_;
  std::vector<std::shared_ptr<const SampleArtifacts>> offline_artifacts_;
  std::vector<std::atomic<bool>> completed_ =
      std::vector<std::atomic<bool>>(64);  // serve-repeat memo ceiling
  std::atomic<size_t> next_request_{0};     // serve-distinct / offline
  Trace* trace_ = nullptr;                  // set during traced phases
  Trace trace_store_;
  std::atomic<int64_t> next_trace_request_{0};

  // Setup measurements.
  std::vector<double> setup_s_, setup_staleness_ms_, register_ms_,
      ingest_us_per_obs_, build_ms_;
  std::vector<double> warm_sum_error_;
};

std::shared_ptr<IntegratedSample> Runner::Ingest(const SampleInput& s) const {
  auto sample = std::make_shared<IntegratedSample>();
  for (const auto& obs : s.stream) sample->Add(obs);
  return sample;
}

void Runner::Account(const Request& req, Recorder* rec,
                     const uuq::Status& admission, const ServedResult& result,
                     const Timing& timing, bool pick,
                     const std::shared_ptr<const IntegratedSample>& snapshot) {
  ++rec->attempted;
  const uuq::Status& status = admission.ok() ? result.status : admission;
  if (!status.ok()) {
    if (status.code() == StatusCode::kResourceExhausted && !admission.ok()) {
      ++rec->shed;
    } else {
      ++rec->non_ok;
    }
    if (!DocumentedCode(status.code())) {
      ++rec->untyped;
      rec->untyped_codes.push_back(status.ToString());
    }
    return;
  }
  ++rec->ok;
  rec->latency.Add(timing.latency_ms);
  rec->queue.Add(result.queue_ms);
  rec->run.Add(result.run_ms);
  rec->submit.Add(timing.submit_us);
  rec->lateness.Add(timing.lateness_ms);
  const bool level0 = result.degraded == uuq::DegradeLevel::kNone;
  if (!level0) ++rec->degraded;
  if (level0 && result.answer.bootstrap_valid && !result.precision_degraded) {
    ++rec->full_interval;
  }
  if (req.epsilon > 0.0) {
    ++rec->targeted;
    rec->targeted_replicates += result.replicates_used;
    if (result.precision_degraded) ++rec->precision_degraded;
  }
  if (req.kind == AggregateKind::kSum &&
      in_.workload != Workload::kServeRepeat) {
    const double truth = in_.samples[static_cast<size_t>(req.sample)].TrueSum(
        req.threshold);
    rec->sum_rel_error.push_back(std::fabs(result.answer.corrected - truth) /
                                 truth);
  }
  if (pick && level0 && result.answer.bootstrap_valid && rec->gate.size() < 4) {
    rec->gate.push_back(
        GateSample{snapshot, req.sql, result.replicates_used, result.answer});
  }
}

void Runner::SpansFor(const Clock::time_point& call,
                      const Clock::time_point& sent, double queue_ms,
                      double run_ms, const Clock::time_point& done,
                      int64_t request) {
  Trace& t = *trace_;
  const double sent_us = t.ToUs(sent);
  const double done_us = t.ToUs(done);
  const int64_t root = t.Open();
  t.Add("serving.submit", root, request, t.ToUs(call), sent_us);
  const int64_t wait = t.Add("serving.wait", root, request, sent_us, done_us);
  const double queue_end = std::min(done_us, sent_us + queue_ms * 1e3);
  t.Add("serving.queue", wait, request, sent_us, queue_end);
  t.Add("serving.run", wait, request, queue_end,
        std::min(done_us, queue_end + run_ms * 1e3));
  t.Close(root, "serve.request", -1, request, t.ToUs(call), done_us);
}

/// Submits the dashboard on the live snapshot, waits for every answer, and
/// returns the completion time of the last one in ms after `arrived`.
double Runner::Dashboard(const std::shared_ptr<const IntegratedSample>& snapshot,
                         Recorder* rec, Clock::time_point arrived) {
  std::deque<Awaited> sent;
  for (size_t i = 0; i < dashboard_.size(); ++i) {
    const auto call = Clock::now();
    auto ticket = service_->Submit(kLive, dashboard_[i].sql);
    sent.emplace_back(i, call, call, Clock::now(), std::move(ticket));
    stamper_.Watch(&sent.back());
  }
  double last_ms = 0.0;
  for (Awaited& a : sent) {
    stamper_.Await(&a);
    last_ms = std::max(last_ms, Ms(arrived, a.done));
    if (rec == nullptr) continue;
    Timing timing;
    timing.latency_ms = Ms(a.call, a.done);
    timing.submit_us = Ms(a.call, a.sent) * 1e3;
    const int64_t k = rec->attempted;
    Account(dashboard_[a.index], rec, a.admission(), a.result, timing,
            Pick(7, static_cast<uint64_t>(k), 8), snapshot);
    if (trace_ != nullptr && a.ticket.ok()) {
      SpansFor(a.call, a.sent, a.result.queue_ms, a.result.run_ms, a.done,
               next_trace_request_++);
    }
  }
  return last_ms;
}

void Runner::Setup() {
  uuq::ServingOptions options;
  options.workers = kWorkers;
  options.max_queue = 1 << 20;
  if (serving()) service_ = std::make_unique<QueryService>(options);
  const uuq::EstimatorAdvisor::Options advisor = options.correction.advisor;
  // Warm-up, not measured: a virtual machine whose cores sat idle wakes
  // them slowly, which would otherwise land on whichever run goes first.
  const auto warm_start = Clock::now();
  while (Ms(warm_start, Clock::now()) < kWarmupSeconds * 1e3) {
    const auto sample = Ingest(in_.samples[0]);
    if (serving()) {
      service_->RegisterSample(kLive, sample);
      Dashboard(sample, nullptr, Clock::now());
    } else {
      const SampleArtifacts artifacts(sample, advisor);
      const uuq::SamplePrecomp pre = artifacts.precomp();
      const uuq::QueryCorrector corrector(ServedCorrection(48));
      for (const Request& req : dashboard_) {
        (void)corrector.CorrectSql(*sample, req.sql, &pre);
      }
    }
  }
  SetupReps(kSetupReps / 2 + 1);
  if (in_.workload == Workload::kServeRepeat) {
    // Warm the answer memo with the whole catalogue (dashboard traffic
    // after warm-up); these answers also carry the SUM accuracy.
    for (size_t i = 0; i < in_.requests.size(); ++i) {
      const Request& req = in_.requests[i];
      const ServedResult result = service_->Execute(kLive, req.sql);
      if (!result.status.ok()) continue;
      completed_[i].store(true, std::memory_order_relaxed);
      if (req.kind == AggregateKind::kSum) {
        const double truth = in_.samples[0].TrueSum(req.threshold);
        warm_sum_error_.push_back(std::fabs(result.answer.corrected - truth) /
                                  truth);
      }
    }
  }
}

/// One set-up repetition per call: ingest, register (or build artifacts),
/// then the dashboard, recording set-up time and staleness.
void Runner::SetupReps(int reps) {
  const uuq::EstimatorAdvisor::Options advisor =
      uuq::ServingOptions{}.correction.advisor;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    if (serving()) {
      std::shared_ptr<IntegratedSample> sample;
      if (in_.workload == Workload::kIngestRefresh) {
        // The first snapshot: the first batch of the stream.
        sample = std::make_shared<IntegratedSample>();
        for (size_t i = 0; i < in_.batch_size; ++i) {
          sample->Add(in_.samples[0].stream[i]);
        }
      } else {
        sample = Ingest(in_.samples[0]);
      }
      const auto t1 = Clock::now();
      live_ = sample;
      service_->RegisterSample(kLive, sample);
      const auto t2 = Clock::now();
      setup_s_.push_back(Ms(t0, t2) / 1e3);
      register_ms_.push_back(Ms(t1, t2));
      ingest_us_per_obs_.push_back(Ms(t0, t1) * 1e3 /
                                   static_cast<double>(sample->n()));
      setup_staleness_ms_.push_back(Dashboard(live_, nullptr, t0));
      // The artifact build alone, on the same snapshot (not part of setup).
      const auto b0 = Clock::now();
      const SampleArtifacts artifacts(live_, advisor);
      build_ms_.push_back(Ms(b0, Clock::now()));
    } else {
      offline_samples_.clear();
      offline_artifacts_.clear();
      double ingest_ms = 0.0;
      int64_t observations = 0;
      for (const SampleInput& s : in_.samples) {
        const auto i0 = Clock::now();
        auto sample = Ingest(s);
        const auto i1 = Clock::now();
        auto artifacts = std::make_shared<const SampleArtifacts>(
            std::shared_ptr<const IntegratedSample>(sample), advisor);
        build_ms_.push_back(Ms(i1, Clock::now()));
        ingest_ms += Ms(i0, i1);
        observations += sample->n();
        offline_samples_.push_back(std::move(sample));
        offline_artifacts_.push_back(std::move(artifacts));
      }
      const auto t2 = Clock::now();
      setup_s_.push_back(Ms(t0, t2) / 1e3);
      ingest_us_per_obs_.push_back(ingest_ms * 1e3 /
                                   static_cast<double>(observations));
      // The analyst's first pass: the four aggregates on each scenario.
      const uuq::QueryCorrector corrector(ServedCorrection(48));
      for (size_t i = 0; i < 4; ++i) {
        const uuq::SamplePrecomp pre = offline_artifacts_[i]->precomp();
        for (const Request& req : dashboard_) {
          (void)corrector.CorrectSql(*offline_samples_[i], req.sql, &pre);
        }
      }
      setup_staleness_ms_.push_back(Ms(t0, Clock::now()));
    }
  }
}

Phase Runner::RepeatPhase(double seconds, bool traced) {
  Phase phase;
  // Two dashboard clients, each sending its panels together and waiting
  // for all of them before the next refresh. Deep enough that the workers
  // rarely find the queue empty: with a shallow one, every refresh pays
  // thread wake-ups, whose cost on a shared virtual machine swings by 3x
  // between runs and would decide the figure.
  constexpr int kClients = 2;
  constexpr int kPanels = 32;
  std::vector<Recorder*> recs;
  for (int c = 0; c < kClients; ++c) {
    recs.push_back(phase.AddClient(Mix(opt_.seed, 200 + c)));
  }
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, traced, deadline, rec = recs[c]] {
      struct Panel {
        size_t text;
        Clock::time_point call, sent;
        uuq::Result<QueryService::Ticket> ticket;
      };
      ZipfStream zipf(in_, c);
      std::vector<Panel> panels;
      for (uint64_t k = 0; Clock::now() < deadline;) {
        panels.clear();
        for (int p = 0; p < kPanels; ++p) {
          const size_t text = static_cast<size_t>(zipf.Next());
          if (completed_[text].load(std::memory_order_relaxed)) {
            ++rec->memo_eligible;
          }
          const auto call = Clock::now();
          auto ticket = service_->Submit(kLive, in_.requests[text].sql);
          panels.push_back(Panel{text, call, Clock::now(), std::move(ticket)});
        }
        for (Panel& p : panels) {
          ServedResult result;
          if (p.ticket.ok()) result = p.ticket.value().Wait();
          // The client's clock as Wait returns. Waiting on the panels in
          // order can charge a panel the wait for the one request still
          // running beside it on the other worker (FIFO dispatch), which on
          // memo hits is microseconds.
          const auto done = Clock::now();
          Timing timing;
          timing.latency_ms = Ms(p.call, done);
          timing.submit_us = Ms(p.call, p.sent) * 1e3;
          Account(in_.requests[p.text], rec,
                  p.ticket.ok() ? uuq::Status::OK() : p.ticket.status(),
                  result, timing,
                  Pick(300 + static_cast<uint64_t>(c), k, 4099), live_);
          if (result.status.ok() && p.ticket.ok()) {
            completed_[p.text].store(true, std::memory_order_relaxed);
          }
          // Spans for a seeded subset only: the span store must not grow
          // with the request rate.
          if (traced && p.ticket.ok() &&
              Pick(400 + static_cast<uint64_t>(c), k, 1024)) {
            SpansFor(p.call, p.sent, result.queue_ms, result.run_ms, done,
                     next_trace_request_++);
          }
          ++k;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  phase.wall_s = Ms(start, Clock::now()) / 1e3;
  phase.cpu_s = CpuSeconds() - cpu0;
  phase.throughput_ok = phase.Sum(&Recorder::ok);
  phase.throughput_wall_s = phase.wall_s;
  return phase;
}

void Runner::DistinctOpenLoop(double seconds, bool traced, Phase* phase) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Awaited> pending;  // in submission order
  size_t submitted = 0;
  bool sender_done = false;
  Recorder* rec = phase->AddClient(Mix(opt_.seed, 500 + (traced ? 1 : 0)));
  const double rate = opt_.distinct_rate_qps;
  const auto start = Clock::now();
  const int64_t total = static_cast<int64_t>(seconds * rate);
  std::thread sender([&] {
    for (int64_t k = 0; k < total; ++k) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(k / rate));
      std::this_thread::sleep_until(due);
      const size_t index = next_request_++ % in_.requests.size();
      const auto call = Clock::now();
      auto ticket = service_->Submit(kLive, in_.requests[index].sql,
                                     std::chrono::nanoseconds(0), true,
                                     in_.requests[index].epsilon);
      const auto sent = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      pending.emplace_back(index, due, call, sent, std::move(ticket));
      stamper_.Watch(&pending.back());
      ++submitted;
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
    cv.notify_one();
  });
  // Collector: accounts for the requests in submission order; the waiters
  // have stamped each completion with the client's clock when it happened.
  for (uint64_t k = 0;; ++k) {
    Awaited* p = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return k < submitted || sender_done; });
      if (k == submitted) break;
      p = &pending.front();
    }
    stamper_.Await(p);
    const Request& req = in_.requests[p->index];
    if (req.epsilon == 0.0) {
      phase->memo_keys.push_back(SampleArtifacts::AnswerKey(req.sql, 48, true));
    }
    Timing timing;
    timing.latency_ms =
        OpenLoopLatencyMs(Ms(start, p->due), Ms(start, p->done));
    timing.submit_us = Ms(p->call, p->sent) * 1e3;
    timing.lateness_ms = Ms(p->due, p->call);
    Account(req, rec, p->admission(), p->result, timing, Pick(600, k, 8),
            live_);
    if (trace_ != nullptr && p->ticket.ok()) {
      SpansFor(p->call, p->sent, p->result.queue_ms, p->result.run_ms, p->done,
               next_trace_request_++);
    }
    std::lock_guard<std::mutex> lock(mu);
    pending.pop_front();
  }
  sender.join();
}

void Runner::DistinctClosedLoop(double seconds, Phase* phase) {
  constexpr int kClients = 4;
  std::vector<Recorder*> recs;
  for (int c = 0; c < kClients; ++c) {
    recs.push_back(phase->AddClient(Mix(opt_.seed, 700 + c)));
  }
  std::mutex keys_mu;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c, rec = recs[c]] {
      for (uint64_t k = 0; Clock::now() < deadline; ++k) {
        const size_t index = next_request_++ % in_.requests.size();
        const Request& req = in_.requests[index];
        if (req.epsilon == 0.0) {
          std::lock_guard<std::mutex> lock(keys_mu);
          phase->memo_keys.push_back(
              SampleArtifacts::AnswerKey(req.sql, 48, true));
        }
        const auto call = Clock::now();
        auto ticket = service_->Submit(kLive, req.sql,
                                       std::chrono::nanoseconds(0), true,
                                       req.epsilon);
        const auto sent = Clock::now();
        ServedResult result;
        if (ticket.ok()) result = ticket.value().Wait();
        const auto done = Clock::now();
        Timing timing;
        timing.latency_ms = Ms(call, done);
        timing.submit_us = Ms(call, sent) * 1e3;
        Account(req, rec, ticket.ok() ? uuq::Status::OK() : ticket.status(),
                result, timing, Pick(800 + static_cast<uint64_t>(c), k, 8),
                live_);
      }
    });
  }
  for (auto& t : clients) t.join();
  int64_t ok = 0;
  for (Recorder* r : recs) ok += r->ok;
  phase->throughput_ok = ok;
  phase->throughput_wall_s = Ms(start, Clock::now()) / 1e3;
}

Phase Runner::RefreshPhase(double seconds, bool traced) {
  Phase phase;
  Recorder* rec = phase.AddClient(Mix(opt_.seed, 900 + (traced ? 1 : 0)));
  const SampleInput& input = in_.samples[0];
  const size_t batches = input.stream.size() / in_.batch_size;
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  // Whole sweeps only, so every run weighs small and large snapshots alike.
  while (Ms(start, Clock::now()) < seconds * 1e3) {
    std::shared_ptr<const IntegratedSample> previous;
    for (size_t b = 0; b < batches; ++b) {
      const auto arrived = Clock::now();
      auto next = previous != nullptr
                      ? std::make_shared<IntegratedSample>(*previous)
                      : std::make_shared<IntegratedSample>();
      for (size_t i = b * in_.batch_size; i < (b + 1) * in_.batch_size; ++i) {
        next->Add(input.stream[i]);
      }
      const auto ingested = Clock::now();
      service_->RegisterSample(kLive, next);
      const auto registered = Clock::now();
      live_ = next;
      phase.register_ms.push_back(Ms(ingested, registered));
      for (const Request& req : dashboard_) {
        phase.memo_keys.push_back(std::to_string(phase.staleness_ms.size()) +
                                  "#" +
                                  SampleArtifacts::AnswerKey(req.sql, 48, true));
      }
      const double last_ms = Dashboard(live_, rec, arrived);
      phase.staleness_ms.push_back(last_ms);
      if (traced) {
        const int64_t request = next_trace_request_++;
        const int64_t root = trace_->Open();
        trace_->Add("integration.add", root, request, trace_->ToUs(arrived),
                    trace_->ToUs(ingested));
        trace_->Add("serving.register", root, request, trace_->ToUs(ingested),
                    trace_->ToUs(registered));
        trace_->Close(root, "refresh.batch", -1, request,
                      trace_->ToUs(arrived),
                      trace_->ToUs(arrived) + last_ms * 1e3);
      }
      previous = std::move(next);
    }
  }
  phase.wall_s = Ms(start, Clock::now()) / 1e3;
  phase.cpu_s = CpuSeconds() - cpu0;
  phase.throughput_ok = rec->ok;
  phase.throughput_wall_s = phase.wall_s;
  return phase;
}

Phase Runner::OfflinePhase(double seconds, bool traced) {
  Phase phase;
  Recorder* rec = phase.AddClient(Mix(opt_.seed, 1000 + (traced ? 1 : 0)));
  const uuq::QueryCorrector corrector(ServedCorrection(48));
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  // The analyst's set-up (and its staleness) is repeated between queries
  // kOfflineSetups times through the measured time, so those small,
  // wake-up-bound figures sample the whole run and not only its two ends.
  // Their time is paused out of the phase.
  double paused_ms = 0.0, paused_cpu_s = 0.0;
  double next_setup_ms = 0.0;
  for (uint64_t k = 0; Ms(start, Clock::now()) - paused_ms < seconds * 1e3;
       ++k) {
    if (Ms(start, Clock::now()) - paused_ms >= next_setup_ms) {
      const auto p0 = Clock::now();
      const double c0 = CpuSeconds();
      SetupReps(1);
      paused_cpu_s += CpuSeconds() - c0;
      paused_ms += Ms(p0, Clock::now());
      next_setup_ms += seconds * 1e3 / kOfflineSetups;
    }
    const size_t index = next_request_++ % in_.requests.size();
    const Request& req = in_.requests[index];
    const size_t s = static_cast<size_t>(req.sample);
    const uuq::SamplePrecomp pre = offline_artifacts_[s]->precomp();
    const auto call = Clock::now();
    auto answer = corrector.CorrectSql(*offline_samples_[s], req.sql, &pre);
    const auto done = Clock::now();
    ServedResult result;
    if (answer.ok()) {
      result.answer = std::move(answer).value();
      result.replicates_used = 48;
    } else {
      result.status = answer.status();
    }
    Timing timing;
    timing.latency_ms = Ms(call, done);
    Account(req, rec, uuq::Status::OK(), result, timing, Pick(1100, k, 16),
            offline_samples_[s]);
    if (traced) {
      trace_->Add("offline.correct_sql", -1, next_trace_request_++,
                  trace_->ToUs(call), trace_->ToUs(done));
    }
  }
  phase.wall_s = (Ms(start, Clock::now()) - paused_ms) / 1e3;
  phase.cpu_s = CpuSeconds() - cpu0 - paused_cpu_s;
  phase.throughput_ok = rec->ok;
  phase.throughput_wall_s = phase.wall_s;
  return phase;
}

Phase Runner::MainPhase(double seconds, bool traced) {
  trace_ = traced ? &trace_store_ : nullptr;
  // Every phase replays the same seeded requests from the start; a fresh
  // registration gives serve-distinct an empty memo, so they stay unseen.
  next_request_ = 0;
  if (in_.workload == Workload::kServeDistinct) {
    service_->RegisterSample(kLive, live_);
  }
  Phase phase;
  switch (in_.workload) {
    case Workload::kServeRepeat:
      phase = RepeatPhase(seconds, traced);
      break;
    case Workload::kServeDistinct: {
      const double cpu0 = CpuSeconds();
      const auto start = Clock::now();
      // Open loop at the offered rate for the latency figures; the
      // end-to-end run then measures capacity with 4 closed-loop clients.
      DistinctOpenLoop(opt_.trace ? seconds : seconds / 2, traced, &phase);
      // Memory at the offered load: under the capacity phase's 4 clients
      // the allocator's per-thread arenas retain a bimodal amount.
      phase.peak_rss_mb = PeakRssMb();
      if (!opt_.trace) DistinctClosedLoop(seconds / 2, &phase);
      phase.wall_s = Ms(start, Clock::now()) / 1e3;
      phase.cpu_s = CpuSeconds() - cpu0;
      if (opt_.trace) {
        phase.throughput_ok = phase.Sum(&Recorder::ok);
        phase.throughput_wall_s = phase.wall_s;
      }
      break;
    }
    case Workload::kIngestRefresh:
      phase = RefreshPhase(seconds, traced);
      break;
    case Workload::kOfflineAnalyst:
      phase = OfflinePhase(seconds, traced);
      break;
  }
  trace_ = nullptr;
  if (phase.peak_rss_mb == 0.0) phase.peak_rss_mb = PeakRssMb();
  return phase;
}

/// The correctness gate: bit-identity of a seeded subset of answers against
/// an uncached offline QueryCorrector run at the served replicate count,
/// typed statuses only, and no repeated memo key where none may repeat.
/// Returns the number of failed checks.
int64_t Runner::Verify(const Phase& phase, RunReport* report) {
  int64_t failures = 0;
  int64_t checked = 0;
  std::vector<const GateSample*> samples;
  for (const auto& c : phase.clients) {
    for (const GateSample& g : c->gate) samples.push_back(&g);
  }
  for (const GateSample* g : samples) {
    const uuq::QueryCorrector corrector(ServedCorrection(g->replicates));
    auto offline = corrector.CorrectSql(*g->sample, g->sql, nullptr);
    ++checked;
    if (!offline.ok() || !SameAnswer(offline.value(), g->answer)) {
      ++failures;
      report->notes.emplace_back("gate.mismatch", g->sql + " replicates=" +
                                                      std::to_string(g->replicates));
    }
  }
  if (checked == 0) {
    ++failures;
    report->notes.emplace_back("gate.mismatch",
                               "no level-0 answer was sampled for the check");
  }
  const int64_t untyped = phase.Sum(&Recorder::untyped);
  for (const auto& c : phase.clients) {
    for (const std::string& code : c->untyped_codes) {
      report->notes.emplace_back("gate.untyped_status", code);
    }
  }
  failures += untyped;
  if (in_.workload == Workload::kServeDistinct ||
      in_.workload == Workload::kIngestRefresh) {
    std::set<std::string> keys;
    for (const std::string& key : phase.memo_keys) {
      if (!keys.insert(key).second) {
        ++failures;
        report->notes.emplace_back("gate.repeated_memo_key", key);
      }
    }
  }
  report->notes.emplace_back("gate.answers_checked", std::to_string(checked));
  report->notes.emplace_back("gate.failures", std::to_string(failures));
  return failures;
}

void AddMetric(RunReport* report, const std::string& name, double value,
               const std::string& unit) {
  report->metrics.push_back(Metric{name, value, unit});
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void NoteTail(RunReport* report, const std::string& name, const Tail& tail) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.6g at p%g of %lld samples (%lld beyond)",
                tail.value, tail.percentile, static_cast<long long>(tail.n),
                static_cast<long long>(tail.beyond));
  report->notes.emplace_back(name, buf);
}

void Runner::EndToEnd(const Phase& phase, RunReport* report) {
  const int64_t attempted = phase.Sum(&Recorder::attempted);
  const int64_t ok = phase.Sum(&Recorder::ok);
  const std::vector<double> latency = phase.Values(&Recorder::latency);
  const bool repeat = in_.workload == Workload::kServeRepeat;
  const Tail latency_tail =
      TailOf(latency, repeat ? kRepeatTailCeiling : kTailCeiling);
  const double throughput =
      static_cast<double>(phase.throughput_ok) / phase.throughput_wall_s;
  std::vector<double> staleness = phase.staleness_ms.empty()
                                      ? setup_staleness_ms_
                                      : phase.staleness_ms;
  const Tail staleness_tail = TailOf(staleness, kTailCeiling);
  const double denominator = static_cast<double>(std::max<int64_t>(1, attempted));
  AddMetric(report, "setup_s", Median(setup_s_), "s");
  AddMetric(report, "throughput_qps", throughput, "1/s");
  AddMetric(report, "latency_p50_ms", Median(latency), "ms");
  AddMetric(report, "latency_tail_ms", latency_tail.value, "ms");
  AddMetric(report, "full_interval_share",
            static_cast<double>(phase.Sum(&Recorder::full_interval)) /
                denominator,
            "ratio");
  AddMetric(report, "ok_share",
            static_cast<double>(attempted - report->failed) / denominator,
            "ratio");
  AddMetric(report, "staleness_p50_ms", Median(staleness), "ms");
  AddMetric(report, "cpu_ms_per_query",
            phase.cpu_s * 1e3 / static_cast<double>(std::max<int64_t>(1, ok)),
            "ms");
  AddMetric(report, "peak_rss_mb", phase.peak_rss_mb, "MB");
  NoteTail(report, "latency_tail", latency_tail);
  if (repeat) {
    NoteTail(report, "latency_tail_at_p99_ceiling",
             TailOf(latency, kTailCeiling));
  }
  NoteTail(report, "latency_tail_without_ceiling", TailOf(latency));
  NoteTail(report, "staleness_tail", staleness_tail);
}

std::vector<double> Runner::SumRelErrors(const Phase& phase) const {
  if (in_.workload == Workload::kServeRepeat) return warm_sum_error_;
  std::vector<double> errors;
  for (const auto& c : phase.clients) {
    errors.insert(errors.end(), c->sum_rel_error.begin(),
                  c->sum_rel_error.end());
  }
  return errors;
}

/// Per-span-name durations (ms) of the traced run.
std::map<std::string, std::vector<double>> DurationsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    out[s.name].push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

void Runner::Layers(const Phase& reference, const Phase& traced,
                    RunReport* report) {
  // The per-request decomposition, on the workload's own engine pool: a
  // serving worker's slice, or the default pool offline.
  const int engine = uuq::ThreadPool::DefaultNumThreads();
  const int workers = std::min(2, engine);
  std::unique_ptr<uuq::ThreadPool> slice;
  uuq::ThreadPool* pool = uuq::ThreadPool::Default();
  if (serving()) {
    slice = std::make_unique<uuq::ThreadPool>(engine / workers +
                                              (engine % workers > 0 ? 1 : 0));
    pool = slice.get();
  }
  const uuq::EstimatorAdvisor::Options advisor =
      uuq::ServingOptions{}.correction.advisor;
  std::vector<DecomposeTarget> targets;
  switch (in_.workload) {
    case Workload::kServeRepeat: {
      auto artifacts = std::make_shared<const SampleArtifacts>(live_, advisor);
      ZipfStream zipf(in_, 99);
      for (int i = 0; i < 2000; ++i) {
        targets.push_back(DecomposeTarget{
            live_, artifacts,
            in_.requests[static_cast<size_t>(zipf.Next())]});
      }
      break;
    }
    case Workload::kServeDistinct: {
      auto artifacts = std::make_shared<const SampleArtifacts>(live_, advisor);
      for (size_t i = 0; i < 2000; ++i) {
        targets.push_back(DecomposeTarget{live_, artifacts, in_.requests[i]});
      }
      break;
    }
    case Workload::kIngestRefresh: {
      // Snapshots across the sweep, small to large, interleaved so a
      // budget cut still covers every size.
      const SampleInput& input = in_.samples[0];
      const size_t batches = input.stream.size() / in_.batch_size;
      std::vector<std::shared_ptr<const IntegratedSample>> snapshots;
      std::vector<std::shared_ptr<const SampleArtifacts>> artifacts;
      for (size_t b = 0; b < batches; b += 8) {
        auto sample = std::make_shared<IntegratedSample>();
        for (size_t i = 0; i < (b + 1) * in_.batch_size; ++i) {
          sample->Add(input.stream[i]);
        }
        snapshots.push_back(sample);
        artifacts.push_back(
            std::make_shared<const SampleArtifacts>(snapshots.back(), advisor));
      }
      for (int round = 0; round < 50; ++round) {
        for (size_t s = 0; s < snapshots.size(); ++s) {
          for (const Request& req : in_.requests) {
            targets.push_back(
                DecomposeTarget{snapshots[s], artifacts[s], req});
          }
        }
      }
      break;
    }
    case Workload::kOfflineAnalyst:
      for (int i = 0; i < 2000; ++i) {
        const Request& req = in_.requests[static_cast<size_t>(i)];
        const size_t s = static_cast<size_t>(req.sample);
        targets.push_back(DecomposeTarget{offline_samples_[s],
                                          offline_artifacts_[s], req});
      }
      break;
  }
  Decomposition d;
  Decompose(targets, pool, std::max(1.0, opt_.seconds * 0.4), opt_.seed,
            &trace_store_, &d);
  if (d.mismatches > 0) {
    report->correct = false;
    report->failed += d.mismatches;
    report->notes.emplace_back("trace.stage_mismatches",
                               std::to_string(d.mismatches));
  }

  const std::vector<Span> spans = trace_store_.spans();
  auto durations = DurationsByName(spans);
  const auto p50 = [&durations](const std::string& name, double scale) {
    const auto it = durations.find(name);
    return it == durations.end() ? 0.0 : Median(it->second) * scale;
  };
  const int64_t attempted = traced.Sum(&Recorder::attempted);
  const double denominator =
      static_cast<double>(std::max<int64_t>(1, attempted));
  const int64_t targeted = traced.Sum(&Recorder::targeted);
  const Tail queue_tail = TailOf(traced.Values(&Recorder::queue));
  const Tail run_tail = TailOf(traced.Values(&Recorder::run));
  std::vector<double> register_ms = register_ms_;
  register_ms.insert(register_ms.end(), traced.register_ms.begin(),
                     traced.register_ms.end());
  const double reference_p50 = Median(reference.Values(&Recorder::latency));
  const double traced_p50 = Median(traced.Values(&Recorder::latency));

  AddMetric(report, "serving.submit_us",
            Median(traced.Values(&Recorder::submit)), "us");
  AddMetric(report, "serving.queue_wait_ms",
            Median(traced.Values(&Recorder::queue)), "ms");
  AddMetric(report, "serving.queue_wait_tail_ms", queue_tail.value, "ms");
  AddMetric(report, "serving.run_ms", Median(traced.Values(&Recorder::run)),
            "ms");
  AddMetric(report, "serving.run_tail_ms", run_tail.value, "ms");
  AddMetric(report, "serving.register_ms",
            serving() ? Median(register_ms) : 0.0, "ms");
  AddMetric(report, "serving.degraded_share",
            static_cast<double>(traced.Sum(&Recorder::degraded)) / denominator,
            "ratio");
  AddMetric(report, "serving.shed_share",
            static_cast<double>(traced.Sum(&Recorder::shed)) / denominator,
            "ratio");
  AddMetric(report, "serving.precision_degraded_share",
            targeted > 0 ? static_cast<double>(
                               traced.Sum(&Recorder::precision_degraded)) /
                               static_cast<double>(targeted)
                         : 0.0,
            "ratio");
  AddMetric(report, "sample_cache.build_ms", Median(build_ms_), "ms");
  AddMetric(report, "sample_cache.memo_eligible_share",
            static_cast<double>(traced.Sum(&Recorder::memo_eligible)) /
                denominator,
            "ratio");
  AddMetric(report, "db.parse_us", p50("db.parse", 1e3), "us");
  AddMetric(report, "db.filter_ms", p50("db.filter", 1.0), "ms");
  AddMetric(report, "db.filter_selectivity", Median(d.selectivity), "ratio");
  AddMetric(report, "integration.ingest_us_per_obs", Median(ingest_us_per_obs_),
            "us");
  AddMetric(report, "integration.view_build_ms", p50("integration.view", 1.0),
            "ms");
  AddMetric(report, "advisor.advise_ms", p50("advisor.advise", 1.0), "ms");
  for (const char* choice : {"bucket", "monte_carlo", "collect_more_data"}) {
    const auto it = d.choices.find(choice);
    AddMetric(report, std::string("advisor.choice.") + choice,
              it == d.choices.end() ? 0.0 : static_cast<double>(it->second),
              "count");
  }
  AddMetric(report, "bucket.point_ms", p50("bucket.point", 1.0), "ms");
  AddMetric(report, "bucket.partition_ms", p50("bucket.partition", 1.0), "ms");
  AddMetric(report, "monte_carlo.point_ms", p50("monte_carlo.point", 1.0),
            "ms");
  AddMetric(report, "count.point_ms", p50("count.point", 1.0), "ms");
  AddMetric(report, "avg.point_ms", p50("avg.point", 1.0), "ms");
  AddMetric(report, "minmax.point_ms", p50("minmax.point", 1.0), "ms");
  AddMetric(report, "bootstrap.interval_ms", p50("bootstrap.interval", 1.0),
            "ms");
  AddMetric(report, "bootstrap.replicate_build_us",
            p50("bootstrap.replicate_build", 1e3), "us");
  AddMetric(report, "bootstrap.replicate_estimate_us.bucket",
            p50("bootstrap.replicate_estimate.bucket", 1e3), "us");
  AddMetric(report, "bootstrap.replicate_estimate_us.monte_carlo",
            p50("bootstrap.replicate_estimate.monte_carlo", 1e3), "us");
  AddMetric(report, "bootstrap.batch_estimate_us",
            p50("bootstrap.batch_estimate_per_replicate", 1e3), "us");
  AddMetric(report, "bootstrap.parallel_speedup", Median(d.speedup), "x");
  AddMetric(report, "thread_pool.dispatch_us", p50("thread_pool.dispatch", 1e3),
            "us");
  AddMetric(report, "adaptive.replicates_per_query",
            targeted > 0 ? static_cast<double>(
                               traced.Sum(&Recorder::targeted_replicates)) /
                               static_cast<double>(targeted)
                         : 0.0,
            "count");
  AddMetric(report, "generator.lateness_tail_ms",
            in_.workload == Workload::kServeDistinct
                ? TailOf(traced.Values(&Recorder::lateness)).value
                : 0.0,
            "ms");
  AddMetric(report, "trace.unattributed_share", Median(d.unattributed),
            "ratio");
  AddMetric(report, "trace.overhead_share",
            reference_p50 > 0.0 ? traced_p50 / reference_p50 - 1.0 : 0.0,
            "ratio");
  const std::vector<double> errors = SumRelErrors(traced);
  AddMetric(report, "accuracy.correction_rel_error", Mean(errors), "ratio");
  report->notes.emplace_back("accuracy.sum_answers_scored",
                             std::to_string(errors.size()));
  NoteTail(report, "serving.queue_wait_tail", queue_tail);
  NoteTail(report, "serving.run_tail", run_tail);
  report->notes.emplace_back("trace.requests_decomposed",
                             std::to_string(d.requests));
  report->notes.emplace_back("trace.engine_pool_threads",
                             std::to_string(pool->num_threads()));
}

/// Notes the share of machine CPU time the host stole since `from`: runs
/// that read high were slowed from outside the process.
void NoteSteal(const CpuTicks& from, RunReport* report) {
  const CpuTicks to = ReadCpuTicks();
  const uint64_t total = to.total - from.total;
  report->notes.emplace_back(
      "host.steal_share",
      total > 0 ? std::to_string(static_cast<double>(to.steal - from.steal) /
                                 static_cast<double>(total))
                : "unavailable");
}

RunReport Runner::Run() {
  RunReport report;
  const CpuTicks ticks = ReadCpuTicks();
  // Set-up repetitions run before and after the measured phases, so a
  // slow stretch of the machine at one end cannot decide their median.
  Setup();
  if (!opt_.trace) {
    const Phase phase = MainPhase(opt_.seconds, false);
    SetupReps(kSetupReps / 2);
    NoteSteal(ticks, &report);
    const int64_t failures = Verify(phase, &report);
    report.attempted = phase.Sum(&Recorder::attempted);
    report.failed = phase.Sum(&Recorder::shed) + phase.Sum(&Recorder::non_ok) +
                    failures;
    report.correct = failures == 0;
    EndToEnd(phase, &report);
    return report;
  }
  // Traced run: an untraced reference phase and a traced phase of equal
  // length (their latency medians give the tracing overhead), then the
  // per-request decomposition.
  const Phase reference = MainPhase(opt_.seconds * 0.3, false);
  const Phase traced = MainPhase(opt_.seconds * 0.3, true);
  SetupReps(kSetupReps / 2);
  NoteSteal(ticks, &report);
  const int64_t failures = Verify(traced, &report);
  report.attempted = traced.Sum(&Recorder::attempted);
  report.failed =
      traced.Sum(&Recorder::shed) + traced.Sum(&Recorder::non_ok) + failures;
  report.correct = failures == 0;
  Layers(reference, traced, &report);
  if (!opt_.out_dir.empty()) {
    const std::string path = opt_.out_dir + "/spans.json";
    if (!trace_store_.WriteJson(path)) {
      report.notes.emplace_back("trace.span_dump", "could not write " + path);
    } else {
      report.notes.emplace_back("trace.span_dump", path);
    }
  }
  return report;
}

}  // namespace

RunReport RunWorkload(const RunOptions& options) {
  const Inputs inputs = MakeInputs(options.workload, options.seed);
  Runner runner(inputs, options);
  return runner.Run();
}

}  // namespace perfbench
