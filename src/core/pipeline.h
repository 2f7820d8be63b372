// Stage-based synthesis pipeline (the staged flow of Section 6 as a
// first-class API).
//
// The paper's synthesis is inherently staged -- policy assignment +
// mapping, checkpoint refinement, conditional schedule-table generation --
// and tools want to run, skip, reorder or instrument individual stages
// without re-wiring them by hand.  A Pipeline is an ordered list of Stage
// objects sharing one SynthesisContext, which owns the problem (app /
// architecture / fault model + options), the deterministic seed and thread
// configuration, progress/cancellation hooks, and the shared incremental
// EvalContext (each optimizer rebases it on its own start; sharing reuses
// its workspaces and aggregates its counters).  Stages read and write a
// typed SynthesisState and report structured StageMetrics (evaluations,
// schedule resumes, search counters, wall-clock) that serialize to JSON.
//
// A deadline watchdog (options.stage_budget_ms / total_budget_ms) sits on
// top of the stage list: the pipeline arms wall-clock budgets on the run's
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
#include <memory>
#include <optional>
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

/// The typed blackboard the stages read and write.
struct SynthesisState {
  PolicyAssignment assignment;  ///< F and M (after the optimizer stages)
  Time wcsl_bound = 0;          ///< analytic WCSL of the optimizer stages
  WcslResult wcsl;              ///< full analytic result (analysis stage)
  std::optional<CondScheduleResult> schedule;  ///< S, if built
  bool schedulable = false;
};

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
  [[nodiscard]] bool cancel_requested() const { return cancel_.cancelled(); }
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

/// One synthesis stage.  Implementations read/write the SynthesisState and
/// fill the evaluation and search counters of their StageMetrics (the
/// pipeline fills name, wall-clock and skip state, and sums the stages'
/// search evaluations into SynthesisResult::evaluations).
class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void run(SynthesisContext& ctx, SynthesisState& state,
                   StageMetrics& metrics) = 0;
};

/// Tabu-search mapping + fault-tolerance policy assignment (src/opt).
class PolicyAssignmentStage : public Stage {
 public:
  [[nodiscard]] const char* name() const override {
    return "policy_assignment";
  }
  void run(SynthesisContext& ctx, SynthesisState& state,
           StageMetrics& metrics) override;
};

/// Global checkpoint-count refinement (skips itself unless both
/// options.refine_checkpoints and options.optimize.optimize_checkpoints).
class CheckpointRefineStage : public Stage {
 public:
  [[nodiscard]] const char* name() const override {
    return "checkpoint_refine";
  }
  void run(SynthesisContext& ctx, SynthesisState& state,
           StageMetrics& metrics) override;
};

/// Final analytic WCSL + schedulability, plus conditional schedule tables
/// when options.build_schedule_tables (length_error from the exponential
/// scenario tree downgrades to the analytic bound, as before).
class ScheduleTableStage : public Stage {
 public:
  [[nodiscard]] const char* name() const override {
    return "schedule_tables";
  }
  void run(SynthesisContext& ctx, SynthesisState& state,
           StageMetrics& metrics) override;
};

class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  Pipeline& add(std::unique_ptr<Stage> stage);
  [[nodiscard]] int stage_count() const {
    return static_cast<int>(stages_.size());
  }

  /// Runs the stages in order against one context.  Once the context's
  /// token has fired, every stage but the first is skipped.  Per-stage
  /// metrics are available from metrics() afterwards.
  SynthesisResult run(SynthesisContext& ctx);

  [[nodiscard]] const std::vector<StageMetrics>& metrics() const {
    return metrics_;
  }

  /// The stages `synthesize()` runs: policy assignment, checkpoint
  /// refinement, schedule tables.
  [[nodiscard]] static Pipeline default_pipeline();

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
  std::vector<StageMetrics> metrics_;
};

}  // namespace ftes
