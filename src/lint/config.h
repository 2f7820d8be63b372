// Configuration of the ftes-lint pass: which directories each rule governs
// and which files are allowlisted.  Paths are relative to the lint root with
// '/' separators; a scope entry is a path prefix ("" matches everything).
//
// The project defaults encode the invariants documented in
// docs/INVARIANTS.md -- tests override them to point rules at fixture trees.
#pragma once

#include <string>
#include <vector>

namespace ftes::lint {

struct LintConfig {
  /// Directories scanned under the root (missing ones are skipped, so a
  /// fixture tree with only src/ works).
  std::vector<std::string> scan_roots = {"src", "tools", "bench"};

  /// R2 (nondeterminism): files allowed to read wall clocks / entropy.
  /// Exact relative paths, not prefixes.
  std::vector<std::string> nondet_allowlist = {
      "src/util/stopwatch.h",   // the one sanctioned Stopwatch
      "src/util/cancellation.h",  // the deadline watchdog's clock
      "bench/bench_report.h",   // bench reporters time themselves...
      "bench/bench_common.h",   // ...by design
  };

  /// R3 (missing-cancel-poll): parallel_for chunk bodies here must poll.
  /// src/serve/ is in scope since PR 8: the job server runs every job on
  /// the shared pool under a per-job budget.
  std::vector<std::string> cancel_scopes = {"src/opt/", "src/sched/",
                                            "src/sim/", "src/batch/",
                                            "src/serve/"};

  /// R4 (float-in-result-path): result code here is integer-scaled.
  std::vector<std::string> integer_result_scopes = {"src/sched/", "src/sim/",
                                                    "src/fault/"};

  /// R5 (ordered-container-hot-path): PRs 2-3 flattened std::map/std::set
  /// out of these; reintroductions must prove they are off the per-move
  /// evaluation path.
  std::vector<std::string> hot_path_scopes = {"src/opt/", "src/sched/",
                                              "src/sim/"};

  /// R6 (missing-catch-all): job-boundary code here promises per-job
  /// isolation, so every try's catch chain must end in `catch (...)`
  /// (an injected non-standard exception must not kill the server).
  std::vector<std::string> catch_scopes = {"src/serve/"};

  /// When set, every suppression annotation must carry a "-- why" part
  /// (enforced by the lint_tree ctest target).
  bool require_justifications = false;
};

/// True when `path` starts with any prefix in `scopes` ("" matches all).
[[nodiscard]] inline bool in_scope(const std::string& path,
                                   const std::vector<std::string>& scopes) {
  for (const std::string& prefix : scopes) {
    if (path.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

[[nodiscard]] inline bool is_allowlisted(
    const std::string& path, const std::vector<std::string>& allowlist) {
  for (const std::string& entry : allowlist) {
    if (path == entry) return true;
  }
  return false;
}

}  // namespace ftes::lint
