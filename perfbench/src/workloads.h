// The benchmark's workloads: seeded inputs, written as `.ftes` text, plus
// the synthesis settings each job runs with.  Every parameter lives here,
// in the benchmark's own files, so edits to the repository's benches
// cannot silently change what a run measures; the fingerprint of the
// generated inputs is recorded with every result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/synthesis.h"

namespace perfbench {

/// One closed-loop job: a problem as text plus its search settings.
struct JobSpec {
  std::string label;  ///< shape, e.g. "p60 n4 k5"
  std::string text;   ///< the problem in `.ftes` form
  std::uint64_t seed = 1;
  int iterations = 0;
  int neighborhood = 0;
};

/// One request of the serve workload.
struct ServeRequest {
  std::string line;     ///< the full `job ...` request line
  std::string text;     ///< its problem text (unescaped)
  std::uint64_t seed = 1;
  int iterations = 0;
  int first = -1;       ///< index of the request this one repeats; -1 = fresh
};

struct Workload {
  std::string name;
  bool open_loop = false;
  std::vector<JobSpec> jobs;          ///< closed loops
  /// Closed loops: jobs per design block.  Every `block` consecutive jobs
  /// hold one of each shape of the workload's design, and the job list is
  /// a whole number of blocks.
  int block = 1;
  std::vector<ServeRequest> requests; ///< serve
  std::vector<double> due;            ///< serve: due time per request (s)
  double offered_rate = 0.0;          ///< serve: requests per second
  std::string fingerprint;            ///< hash of every generated input
};

/// Generates the workload's inputs for a run of about `seconds` seconds on
/// a 4-vCPU Xeon VM (a slower machine runs the same list for longer).  The
/// job list or request schedule depends only on (name, seed, seconds,
/// traced); a traced closed loop runs a prefix of the untraced list, since
/// it runs every job twice and replays moves after it.  Every problem is
/// checked to survive the `.ftes` round trip.  Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, int seconds,
                                     bool traced);

/// Synthesis settings of a closed-loop job: the default pipeline with
/// tables off, always --threads 1.  The fault model is the parsed
/// problem's; the caller sets it.
[[nodiscard]] ftes::SynthesisOptions job_options(const JobSpec& job);

/// The settings the job server derives from a serve request under
/// `serve_command`: default stages and budgets, tables on, --threads 1.
[[nodiscard]] ftes::SynthesisOptions serve_options(
    const ServeRequest& request);

/// The job server's argument list: default width, one thread per job.
[[nodiscard]] std::vector<std::string> serve_command(const std::string& cli);

}  // namespace perfbench
