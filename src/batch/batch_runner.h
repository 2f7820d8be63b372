// Parallel batch synthesis: evaluate many independent problems at once.
//
// The paper's experiments (Section 6, Figs. 7-8) sweep hundreds of
// generated instances, and the north-star workload is "many scenarios, as
// fast as the hardware allows".  Each synthesis is independent, so the
// batch runner fans the tasks over util/thread_pool.h and collects ordered
// results.
//
// Determinism: task i always synthesizes with seed
// derive_task_seed(base_seed, i) regardless of thread count or completion
// order, and results are returned in task order -- a batch run with
// --threads 8 is bit-identical to --threads 1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/synthesis.h"
#include "io/app_parser.h"

namespace ftes {

/// One unit of work: a named problem in the .ftes text format
/// (io/app_parser.h).  Parsing happens inside run_batch, on the worker, so
/// a malformed file fails its own task instead of the whole batch.
struct BatchTask {
  std::string name;  ///< label in the report (e.g. the .ftes path)
  std::string text;  ///< problem description, .ftes format
};

class ThreadPool;
struct FuzzReport;

struct BatchOptions {
  /// Concurrent tasks (1 = serial; 0 = all hardware threads).
  int threads = 1;
  /// Pool supplying the helper threads; nullptr = ThreadPool::shared().
  /// Mainly for tests, which need a multi-worker pool even on single-core
  /// machines (where the shared pool has no workers).
  ThreadPool* pool = nullptr;
  /// Template synthesis options; the fault model comes from each task's
  /// problem file and the optimizer seed from derive_task_seed.
  SynthesisOptions synthesis;
  std::uint64_t base_seed = 1;
  /// Adversarial fuzz pass (sim/fuzzer.h) after each successful synthesis:
  /// fuzz_trials random admissible perturbations replayed against the
  /// task's schedule tables (requires synthesis.build_schedule_tables).
  /// The result is appended as a "fuzz" pseudo-stage to the task's stage
  /// metrics.  Trials run serially inside the task -- the batch already
  /// fans out across tasks -- with per-trial seeds derived from fuzz_seed,
  /// so reports stay bit-identical for every thread count.
  int fuzz_trials = 0;
  std::uint64_t fuzz_seed = 1;
};

struct BatchTaskResult {
  std::string name;
  bool ok = false;          ///< synthesis ran (parse/model errors -> false)
  std::string error;        ///< failure reason when !ok
  bool schedulable = false;
  /// The task's deadline watchdog fired (options.synthesis budgets): the
  /// fields below describe the well-formed partial state at cancellation.
  /// A timed-out task still counts as ok -- the sweep continues.
  bool timed_out = false;
  Time wcsl = 0;
  Time deadline = 0;
  int evaluations = 0;
  std::uint64_t seed = 0;   ///< the derived per-task seed actually used
  double seconds = 0.0;     ///< wall-clock of this task
  /// Per-stage pipeline metrics of this task's synthesis (empty when the
  /// task failed before the pipeline ran).
  std::vector<StageMetrics> stages;
};

struct BatchReport {
  std::vector<BatchTaskResult> results;  ///< in task order
  int schedulable_count = 0;
  int failed_count = 0;                  ///< tasks with !ok
  int timed_out_count = 0;               ///< tasks cut short by a budget
  double seconds = 0.0;                  ///< wall-clock of the whole batch
};

/// SplitMix64 mix of the batch seed and the task index: decorrelated
/// per-task streams that depend only on (base_seed, index), never on
/// scheduling.
[[nodiscard]] std::uint64_t derive_task_seed(std::uint64_t base_seed,
                                             std::size_t index);

/// Synthesizes every task, `options.threads` at a time.
[[nodiscard]] BatchReport run_batch(const std::vector<BatchTask>& tasks,
                                    const BatchOptions& options);

/// Loads every *.ftes file under `dir` (sorted by path for stable task
/// indices).  A missing/unreadable directory throws std::runtime_error;
/// unparsable files surface later as failed tasks in the report.
[[nodiscard]] std::vector<BatchTask> load_batch_dir(const std::string& dir);

/// The "fuzz" pseudo-stage a fuzz sweep appends to a stage list (batch
/// tasks and the single-problem CLI): its trial and violation counters and
/// wall-clock.
[[nodiscard]] StageMetrics fuzz_stage_metrics(const FuzzReport& report);

/// Human-readable table of a batch report (one line per task + summary).
[[nodiscard]] std::string format_batch_report(const BatchReport& report);

/// Machine-readable JSON report (per-task seed, schedulable flag, WCSL,
/// evaluations, wall-clock and per-stage metrics; schema in docs/CLI.md).
[[nodiscard]] std::string format_batch_report_json(const BatchReport& report);

}  // namespace ftes
