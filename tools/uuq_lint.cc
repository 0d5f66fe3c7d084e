// uuq_lint CLI — see tools/uuq_lint_lib.h for the rules.
//
//   uuq_lint --root <repo>            lint src/**/*.{h,cc} (tier-1 ctest);
//                                     the env-doc rules additionally scan
//                                     bench/ and tools/, and env-doc-stale
//                                     checks README.md's env table against
//                                     every getenv read found
//   uuq_lint --self-test              run the embedded rule corpus
//   uuq_lint --extra <file> ...       lint additional files (CI negative test)
//   uuq_lint --allowlist <file>       override <root>/tools/uuq_lint_allowlist.txt
//   uuq_lint --readme <file>          env-doc documented-var source
//                                     (default <root>/README.md; env-doc is
//                                     skipped when neither is available)
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error. Output is
// deterministic (sorted file walk, line-ordered findings) so CI diffs are
// stable.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "uuq_lint_lib.h"

namespace fs = std::filesystem;

namespace {

bool ReadFileOrDie(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "uuq_lint: cannot read %s\n", path.string().c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string RelativeLabel(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(file, root, ec);
  const fs::path& chosen = (ec || rel.empty()) ? file : rel;
  return chosen.generic_string();
}

void PrintFindings(const std::vector<uuq_lint::Finding>& findings) {
  for (const uuq_lint::Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n    %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str(), f.raw.c_str());
  }
}

int RunSelfTest() {
  std::vector<std::string> errors;
  const bool ok = uuq_lint::RunSelfTest(&errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "uuq_lint self-test FAIL: %s\n", e.c_str());
  }
  if (ok) {
    std::fprintf(stderr,
                 "uuq_lint self-test: all %zu rules fire on violations and "
                 "pass clean snippets\n",
                 uuq_lint::SelfTestCases().size());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string allowlist_path;
  std::string readme_path;
  std::vector<std::string> extra_files;
  bool self_test = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "uuq_lint: %s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = next("--root");
    } else if (arg == "--allowlist") {
      allowlist_path = next("--allowlist");
    } else if (arg == "--readme") {
      readme_path = next("--readme");
    } else if (arg == "--extra") {
      extra_files.push_back(next("--extra"));
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: uuq_lint [--root DIR] [--allowlist FILE] "
                   "[--readme FILE] [--extra FILE]... [--self-test]\n");
      return 0;
    } else {
      std::fprintf(stderr, "uuq_lint: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (self_test) return RunSelfTest();
  if (root.empty() && extra_files.empty()) {
    std::fprintf(stderr,
                 "uuq_lint: nothing to do (pass --root, --extra, or "
                 "--self-test)\n");
    return 2;
  }

  // Collect (label, disk path) pairs: the tree scan plus any --extra files.
  std::vector<std::pair<std::string, fs::path>> files;
  const fs::path root_path = root.empty() ? fs::path(".") : fs::path(root);
  if (!root.empty()) {
    const fs::path src = root_path / "src";
    if (!fs::is_directory(src)) {
      std::fprintf(stderr, "uuq_lint: no src/ directory under %s\n",
                   root.c_str());
      return 2;
    }
    for (const fs::directory_entry& entry :
         fs::recursive_directory_iterator(src)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      files.emplace_back(RelativeLabel(entry.path(), root_path), entry.path());
    }
    std::sort(files.begin(), files.end());
  }
  for (const std::string& extra : extra_files) {
    files.emplace_back(fs::path(extra).generic_string(), fs::path(extra));
  }

  // env-doc scans a wider tree than the determinism rules: bench/ and
  // tools/ are where run-time knobs (bench gates, fault injection) are
  // read, and their getenv sites must be documented too. These files skip
  // the determinism rules — they are not replicate-path code.
  std::vector<std::pair<std::string, fs::path>> env_only_files;
  if (!root.empty()) {
    for (const char* dir : {"bench", "tools"}) {
      const fs::path sub = root_path / dir;
      if (!fs::is_directory(sub)) continue;
      for (const fs::directory_entry& entry :
           fs::recursive_directory_iterator(sub)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext != ".h" && ext != ".cc") continue;
        env_only_files.emplace_back(RelativeLabel(entry.path(), root_path),
                                    entry.path());
      }
    }
    std::sort(env_only_files.begin(), env_only_files.end());
  }

  // Documented-var set for env-doc: --readme wins, else <root>/README.md.
  // Without either (e.g. a bare --extra run), env-doc is skipped — the
  // other rules still apply.
  std::vector<std::string> documented;
  bool have_readme = false;
  const fs::path readme_file =
      !readme_path.empty()
          ? fs::path(readme_path)
          : (root.empty() ? fs::path() : root_path / "README.md");
  if (!readme_file.empty() && fs::exists(readme_file)) {
    std::string text;
    if (!ReadFileOrDie(readme_file, &text)) return 2;
    documented = uuq_lint::DocumentedEnvVars(text);
    have_readme = true;
  } else if (!readme_path.empty()) {
    std::fprintf(stderr, "uuq_lint: readme %s not found\n",
                 readme_path.c_str());
    return 2;
  }

  std::vector<uuq_lint::AllowEntry> allow;
  fs::path allow_file =
      allowlist_path.empty()
          ? root_path / "tools" / "uuq_lint_allowlist.txt"
          : fs::path(allowlist_path);
  if (fs::exists(allow_file)) {
    std::string text;
    if (!ReadFileOrDie(allow_file, &text)) return 2;
    allow = uuq_lint::ParseAllowlist(text);
  } else if (!allowlist_path.empty()) {
    std::fprintf(stderr, "uuq_lint: allowlist %s not found\n",
                 allowlist_path.c_str());
    return 2;
  }

  std::vector<uuq_lint::Finding> findings;
  std::vector<std::string> knobs_read;  // distinct UUQ_* getenv reads
  size_t scanned = 0;
  for (const auto& [label, disk_path] : files) {
    std::string content;
    if (!ReadFileOrDie(disk_path, &content)) return 2;
    ++scanned;
    uuq_lint::EnvReads(content, &knobs_read);
    std::vector<uuq_lint::Finding> file_findings =
        uuq_lint::LintFile(label, content);
    if (have_readme) {
      std::vector<uuq_lint::Finding> env_findings =
          uuq_lint::LintEnvDocFile(label, content, documented);
      file_findings.insert(file_findings.end(),
                           std::make_move_iterator(env_findings.begin()),
                           std::make_move_iterator(env_findings.end()));
    }
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  if (have_readme) {
    for (const auto& [label, disk_path] : env_only_files) {
      std::string content;
      if (!ReadFileOrDie(disk_path, &content)) return 2;
      ++scanned;
      uuq_lint::EnvReads(content, &knobs_read);
      std::vector<uuq_lint::Finding> env_findings =
          uuq_lint::LintEnvDocFile(label, content, documented);
      findings.insert(findings.end(),
                      std::make_move_iterator(env_findings.begin()),
                      std::make_move_iterator(env_findings.end()));
    }
    // Only a tree scan has seen every read, so only it can call a row
    // stale (a bare --extra run would flag the whole table).
    if (!root.empty()) {
      std::string readme;
      if (!ReadFileOrDie(readme_file, &readme)) return 2;
      std::vector<uuq_lint::Finding> stale = uuq_lint::LintEnvDocStale(
          RelativeLabel(readme_file, root_path), readme, knobs_read);
      findings.insert(findings.end(), std::make_move_iterator(stale.begin()),
                      std::make_move_iterator(stale.end()));
    }
  }

  findings = uuq_lint::ApplyAllowlist(std::move(findings), &allow);

  for (const uuq_lint::AllowEntry& entry : allow) {
    if (!entry.used) {
      std::fprintf(stderr,
                   "uuq_lint: warning: stale allowlist entry matched nothing: "
                   "%s|%s|%s\n",
                   entry.rule.c_str(), entry.path_suffix.c_str(),
                   entry.needle.c_str());
    }
  }

  if (!findings.empty()) {
    PrintFindings(findings);
    std::fprintf(stderr,
                 "uuq_lint: %zu finding(s) across %zu file(s), %zu UUQ_* "
                 "knobs read\n",
                 findings.size(), scanned, knobs_read.size());
    return 1;
  }
  std::fprintf(stderr,
               "uuq_lint: clean (%zu files scanned, %zu UUQ_* knobs read)\n",
               scanned, knobs_read.size());
  return 0;
}
