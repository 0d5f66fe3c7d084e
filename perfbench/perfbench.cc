// perfbench: the repository benchmark harness. Runs one workload for a fixed
// time from a seed and prints, as its last stdout line, one JSON object
// with the run's correctness, operation counts and metrics. Normally
// invoked through perfbench/run.py, which builds it first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --distinct-rate <qps> [--out <dir>] [--commit <id>]
//   perfbench --self-test
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// and writes the span dump into --out. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "selftest.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve-repeat|"
               "serve-distinct|ingest-refresh|offline-analyst> --seed <n> "
               "--seconds <s> --trace <0|1> --distinct-rate <qps> "
               "[--out <dir>] [--commit <id>]\n       perfbench --self-test\n",
               why);
  return 2;
}

/// Settings that skip a check or change the measured program. A result
/// measured under any of them is not comparable, so none is reported.
std::vector<std::string> ForbiddenKnobs() {
  std::vector<std::string> found;
  const auto is = [](const char* name, const char* value) {
    const char* v = std::getenv(name);
    return v != nullptr && (value == nullptr || std::strcmp(v, value) == 0);
  };
  if (is("UUQ_BENCH_VERIFY", "0")) found.push_back("UUQ_BENCH_VERIFY=0");
  if (is("UUQ_SERVE_CACHE", "0")) found.push_back("UUQ_SERVE_CACHE=0");
  if (is("UUQ_MEGA_BATCH", "0")) found.push_back("UUQ_MEGA_BATCH=0");
  if (is("UUQ_SERVE_EPSILON", nullptr)) found.push_back("UUQ_SERVE_EPSILON");
  if (is("UUQ_SERVE_CONFIDENCE", nullptr)) {
    found.push_back("UUQ_SERVE_CONFIDENCE");
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "UUQ_FAULT_", 10) == 0) {
      found.push_back(std::string(*e).substr(0, std::strcspn(*e, "=")));
    }
  }
  return found;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string workload, commit = "unknown";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (arg == "--distinct-rate") {
      options.distinct_rate_qps = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.distinct_rate_qps > 0.0)) {
        return Usage("--distinct-rate must be a positive number");
      }
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!ParseWorkload(workload, &options.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || trace < 0 ||
      !(options.distinct_rate_qps > 0.0)) {
    return Usage("--seed, --seconds, --trace and --distinct-rate are required");
  }
  options.trace = trace == 1;

#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to report from a non-optimized "
                       "build (build type " PERFBENCH_BUILD_TYPE ")\n");
  return 3;
#endif
  const std::vector<std::string> knobs = ForbiddenKnobs();
  if (!knobs.empty()) {
    for (const auto& k : knobs) {
      std::fprintf(stderr,
                   "perfbench: refusing to report with %s set (it skips a "
                   "check or changes the measured program)\n",
                   k.c_str());
    }
    return 3;
  }

  const RunReport report = RunWorkload(options);

  // Manifest and notes: the human-readable row, then the result file.
  const char* threads_env = std::getenv("UUQ_THREADS");
  std::string manifest =
      "{\"workload\": " + JsonString(workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + Number(options.seconds) +
      ", \"trace\": " + std::to_string(trace) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"uuq_threads_env\": " +
      JsonString(threads_env != nullptr ? threads_env : "") +
      ", \"effective_threads\": " +
      std::to_string(uuq::ThreadPool::DefaultNumThreads()) +
      ", \"distinct_rate_qps\": " + Number(options.distinct_rate_qps) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"commit\": " + JsonString(commit) + "}";
  std::string metrics;
  std::printf("%-16s", workload.c_str());
  for (const Metric& m : report.metrics) {
    std::printf(" %s=%.6g%s%s", m.name.c_str(), m.value,
                m.unit == "ratio" || m.unit == "count" ? "" : " ",
                m.unit == "ratio" || m.unit == "count" ? "" : m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf(" | gate=%s\n", report.correct ? "pass" : "FAIL");
  std::string notes;
  for (const auto& [key, value] : report.notes) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
    if (!notes.empty()) notes += ", ";
    notes += "[" + JsonString(key) + ", " + JsonString(value) + "]";
  }
  const std::string result =
      "{\"correct\": " + std::string(report.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {" +
      metrics + "}}";
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/result.json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"manifest\": %s,\n \"result\": %s,\n \"notes\": [%s]}\n",
                   manifest.c_str(), result.c_str(), notes.c_str());
      std::fclose(f);
    }
  }
  std::printf("manifest: %s\n", manifest.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
