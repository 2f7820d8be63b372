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
// cache hits/misses, wall-clock) that serialize to JSON.
//
// Two scheduling modes sit on top of the stage list:
//
//   * Speculative stage execution (options.speculate): table generation
//     for the refinement's incumbent starts in the background when the
//     refinement starts, hiding table latency when refinement does not
//     improve (SpeculationTask below; adoption is bit-identical to the
//     serial pipeline, asserted at adoption time).
//   * A deadline watchdog (options.stage_budget_ms / total_budget_ms):
//     the pipeline arms wall-clock budgets on the run's CancellationToken;
//     the stages' parallel chunk bodies poll it, so an expired budget
//     cancels within one chunk of work and the pipeline returns a
//     well-formed partial result with its StageMetrics marked timed_out.
//
// `synthesize()` (core/synthesis.h) is a thin wrapper over
// Pipeline::default_pipeline() and produces bit-identical results.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/synthesis.h"
#include "opt/eval_context.h"
#include "util/cancellation.h"

namespace ftes {

class ThreadPool;

/// Structured report of one stage run.
struct StageMetrics {
  std::string stage;
  bool skipped = false;       ///< disabled by options or cancelled
  long long evaluations = 0;  ///< objective evaluations spent in the stage
  /// List-scheduler incrementality: placement events candidate schedules
  /// needed, and how many were restored from the base schedule.
  long long sched_events_total = 0;
  long long sched_events_resumed = 0;
  long long rebase_cache_hits = 0;  ///< rebases served by the move cache
  /// Neighborhood-search engine counters (opt/search_engine.h) of the
  /// optimizer driving the stage; all zero for non-search stages.
  long long search_iterations = 0;
  long long search_accepted = 0;
  long long search_tabu_rejected = 0;
  long long search_aspiration = 0;
  double seconds = 0.0;  ///< wall-clock of the stage
  /// Speculative stage execution (SynthesisOptions::speculate): a hit
  /// adopted the background result computed during refinement, a miss
  /// discarded it (refinement improved, or the run was cancelled).
  long long spec_hits = 0;
  long long spec_misses = 0;
  double spec_seconds = 0.0;  ///< wall-clock the speculative task spent
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

class SpeculationTask;

/// The typed blackboard the stages read and write.
struct SynthesisState {
  PolicyAssignment assignment;  ///< F and M (after the optimizer stages)
  Time wcsl_bound = 0;          ///< analytic WCSL of the optimizer stages
  WcslResult wcsl;              ///< full analytic result (analysis stage)
  std::optional<CondScheduleResult> schedule;  ///< S, if built
  bool schedulable = false;
  int evaluations = 0;          ///< objective evaluations, legacy counting
  /// In-flight speculative table generation, launched by the pipeline when
  /// the refinement stage starts and consumed (adopted or discarded) by
  /// the schedule-table stage.
  std::shared_ptr<SpeculationTask> speculation;
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

  /// Cooperative cancellation: stages still to run are skipped, running
  /// optimizers return their best-so-far.  Callable from any thread (e.g.
  /// a progress callback or a watchdog thread).
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
/// fill the evaluation counters of their StageMetrics (the pipeline fills
/// name, wall-clock and skip state).
class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  virtual void run(SynthesisContext& ctx, SynthesisState& state,
                   StageMetrics& metrics) = 0;
  /// The stage only refines state.assignment in place: when speculation is
  /// enabled the pipeline may start downstream table generation for the
  /// incumbent while this stage runs.
  [[nodiscard]] virtual bool refines_incumbent() const { return false; }
  /// The stage consumes SynthesisState::speculation (adopting or
  /// discarding it); the pipeline only launches speculation when such a
  /// stage is still ahead.
  [[nodiscard]] virtual bool consumes_speculation() const { return false; }
};

/// Speculative schedule-table generation (SynthesisOptions::speculate).
///
/// While CheckpointRefineStage iterates, the pipeline runs the
/// ScheduleTableStage work for the refinement's *incumbent* assignment as
/// a background task on the run's thread pool.  The task never touches
/// the shared EvalContext -- it evaluates the WCSL from scratch and builds
/// tables through a private options copy -- so it is safe to run
/// concurrently with the refinement.  Adoption rule: the consuming stage
/// adopts the result iff refinement returned exactly the incumbent and the
/// task's WCSL matches the stage's own evaluate_full (asserting
/// bit-identity with the serial pipeline); anything else discards it and
/// rebuilds serially.
class SpeculationTask {
 public:
  /// Snapshots `incumbent` and submits the work to ctx.pool().  The task
  /// keeps references into ctx (application/architecture); Pipeline::run
  /// finishes or abandons it before returning, so they never dangle.
  [[nodiscard]] static std::shared_ptr<SpeculationTask> launch(
      SynthesisContext& ctx, const PolicyAssignment& incumbent);

  [[nodiscard]] const PolicyAssignment& incumbent() const {
    return incumbent_;
  }

  /// Claim-or-wait: a task the pool has not started yet runs inline on the
  /// calling thread (a zero-worker pool still speculates correctly, it
  /// just hides no latency); a running task is waited for.  Returns false
  /// when the task was cancelled mid-run (its result is unusable).  An
  /// exception the work threw (scheduler deadlock, bad_alloc) is rethrown
  /// here -- exactly where the serial stage would have thrown it.
  bool finish();

  /// Cancels without joining: a running task observes the token at its
  /// next poll and winds down on its own.  Use when the caller has better
  /// things to do than wait (the discard path rebuilds tables serially
  /// while the dead task drains); someone must still abandon() the task
  /// before the context goes away -- Pipeline::run's drain guard does.
  void discard() { cancel_.request_cancel(); }

  /// Cancels and joins without consuming: a never-started task is marked
  /// abandoned (its pool job becomes a no-op), a running one is cancelled
  /// through its chained token and drained.  The join is bounded by one
  /// chunk of the task's work -- one scenario simulation, or its single
  /// full WCSL evaluation (which has no interior cancellation point).
  void abandon();

  /// Valid after finish() returned true.
  [[nodiscard]] const WcslResult& wcsl() const { return wcsl_; }
  [[nodiscard]] std::optional<CondScheduleResult>& schedule() {
    return schedule_;
  }
  /// Wall-clock the task spent computing (0 when abandoned before start).
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  SpeculationTask(SynthesisContext& ctx, PolicyAssignment incumbent);
  void run();       ///< pool entry: claim kPending -> kRunning, then work
  void run_body();  ///< the ScheduleTableStage work against incumbent_

  enum State { kPending, kRunning, kDone, kAbandoned };

  const Application& app_;
  const Architecture& arch_;
  FaultModel model_;
  CondScheduleOptions sched_;
  bool build_tables_;
  PolicyAssignment incumbent_;
  CancellationToken cancel_;  ///< chained to the pipeline's token

  std::mutex mutex_;
  std::condition_variable cv_;
  State state_ = kPending;
  bool ok_ = false;
  std::exception_ptr error_;  ///< rethrown by finish(); abandon() swallows
  WcslResult wcsl_;
  std::optional<CondScheduleResult> schedule_;
  double seconds_ = 0.0;
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
  [[nodiscard]] bool refines_incumbent() const override { return true; }
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
  [[nodiscard]] bool consumes_speculation() const override { return true; }
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

  /// Runs the stages in order against one context.  Per-stage metrics are
  /// available from metrics() afterwards.
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
