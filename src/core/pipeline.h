// The synthesis pipeline: the staged flow of Section 6.
//
// The paper's synthesis runs in three stages -- policy assignment +
// mapping, checkpoint refinement, conditional schedule-table generation.
// A Pipeline runs them in that order against one SynthesisContext, which
// owns the problem (app / architecture / fault model + options), the
// deterministic seed and thread configuration, progress/cancellation
// hooks, and the shared incremental EvalContext (each optimizer rebases it
// on its own start; sharing reuses its workspaces and aggregates its
// counters).  Each stage reports structured StageMetrics (evaluations,
// schedule resumes, search counters, wall-clock) that serialize to JSON,
// and the progress callback hears each stage start and finish.
//
// A deadline watchdog (options.stage_budget_ms / total_budget_ms) sits on
// top of the stages: the pipeline arms wall-clock budgets on the run's
// CancellationToken; the stages' parallel chunk bodies poll it, so an
// expired budget cancels within one chunk of work and the pipeline returns
// a well-formed partial result with its StageMetrics marked timed_out.
// The first stage always runs, so even a run cancelled before it started
// reports a valid start assignment and its bound.
//
// `synthesize()` (core/synthesis.h) is a thin wrapper over
// Pipeline::default_pipeline() and produces bit-identical results.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/synthesis.h"
#include "opt/eval_context.h"
#include "opt/search_engine.h"
#include "util/cancellation.h"

namespace ftes {

class ThreadPool;

/// Structured report of one stage run.
struct StageMetrics {
  std::string stage;
  bool skipped = false;  ///< disabled by options or cancelled
  /// Evaluator counters spent in the stage: every EvalContext call it
  /// made (opt/eval_stats.h).
  EvalStats eval;
  /// Neighborhood-search engine counters (opt/search_engine.h) of the
  /// optimizer driving the stage; all zero for non-search stages.
  SearchStats search;
  double seconds = 0.0;  ///< wall-clock of the stage
  /// Deadline watchdog: the stage was cut short by a wall-clock budget;
  /// cancel latency is how long it kept working past the cancellation
  /// (bounded by one chunk of work between cancellation points).
  bool timed_out = false;
  double cancel_latency_seconds = 0.0;
  /// Adversarial fuzz sweep (sim/fuzzer.h) run against the stage's tables;
  /// all zero unless a fuzz pass ran (the "fuzz" pseudo-stage appended by
  /// the batch runner / CLI).
  long long fuzz_trials = 0;
  long long fuzz_failing_trials = 0;
  long long fuzz_violations = 0;
  Time fuzz_worst_completion = 0;
  /// Structural result cache (serve/result_cache.h): repeat submissions
  /// served without recomputation, and entries evicted to honour the byte
  /// budget.  All zero outside `ftes_cli --serve` (the "result_cache"
  /// pseudo-stage of the server's stats report).
  long long result_cache_hits = 0;
  long long result_cache_misses = 0;
  long long result_cache_evictions = 0;

  [[nodiscard]] std::string to_json() const;
};

/// JSON array of per-stage metrics (schema documented in docs/CLI.md).
[[nodiscard]] std::string metrics_to_json(
    const std::vector<StageMetrics>& stages);

/// Progress notification: one callback when a stage starts
/// (finished = false) and one when it completes (finished = true).
struct StageProgress {
  int index = 0;      ///< 0-based stage index
  int count = 0;      ///< total stages in the pipeline
  std::string stage;  ///< stage name
  bool finished = false;
};
using ProgressCallback = std::function<void(const StageProgress&)>;

/// Shared per-run context: problem, options, pool, seed, progress and
/// cancellation, and the incremental evaluator.  Owns copies of the
/// application and architecture so its lifetime is self-contained.
class SynthesisContext {
 public:
  /// Validates the model like the legacy facade did (throws
  /// std::invalid_argument on model errors).
  SynthesisContext(Application app, Architecture arch,
                   SynthesisOptions options);

  [[nodiscard]] const Application& app() const { return app_; }
  [[nodiscard]] const Architecture& arch() const { return arch_; }
  [[nodiscard]] const SynthesisOptions& options() const { return options_; }
  [[nodiscard]] const FaultModel& model() const {
    return options_.fault_model;
  }
  [[nodiscard]] std::uint64_t seed() const { return options_.optimize.seed; }
  [[nodiscard]] int threads() const { return options_.optimize.threads; }
  [[nodiscard]] ThreadPool& pool() const;

  [[nodiscard]] EvalContext& eval() { return eval_; }

  void on_progress(ProgressCallback callback) {
    progress_ = std::move(callback);
  }
  void report_progress(const StageProgress& progress) const {
    if (progress_) progress_(progress);
  }

  /// Cooperative cancellation: stages still to run are skipped (but the
  /// first, which returns the start), running optimizers return their
  /// best-so-far.  Callable from any thread (e.g. a progress callback or a
  /// watchdog thread).
  void request_cancel() { cancel_.request_cancel(); }
  /// The run's cancellation token.  The pipeline arms the deadline
  /// watchdog on it (options().stage_budget_ms / total_budget_ms) and the
  /// stages hand it to the optimizers' and schedulers' chunk bodies.
  [[nodiscard]] CancellationToken& cancel_token() { return cancel_; }
  [[nodiscard]] const CancellationToken& cancel_token() const {
    return cancel_;
  }

 private:
  Application app_;
  Architecture arch_;
  SynthesisOptions options_;
  EvalContext eval_;
  ProgressCallback progress_;
  CancellationToken cancel_;
};

/// The three stages of synthesize(), run in order: "policy_assignment"
/// (tabu-search mapping + fault-tolerance policy assignment, src/opt),
/// "checkpoint_refine" (global checkpoint-count refinement; skipped unless
/// both options.refine_checkpoints and options.optimize.optimize_checkpoints)
/// and "schedule_tables" (final analytic WCSL + schedulability, plus
/// conditional schedule tables when options.build_schedule_tables; a
/// length_error from the exponential scenario tree downgrades to the
/// analytic bound).
class Pipeline {
 public:
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  [[nodiscard]] static Pipeline default_pipeline() { return Pipeline(); }

  /// Runs the stages in order against one context.  Once the context's
  /// token has fired, every stage but the first is skipped.  Per-stage
  /// metrics are available from metrics() afterwards.
  SynthesisResult run(SynthesisContext& ctx);

  [[nodiscard]] const std::vector<StageMetrics>& metrics() const {
    return metrics_;
  }

 private:
  Pipeline() = default;

  std::vector<StageMetrics> metrics_;
};

}  // namespace ftes
