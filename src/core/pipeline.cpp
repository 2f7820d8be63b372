#include "core/pipeline.h"

#include <iterator>
#include <optional>
#include <sstream>
#include <utility>

#include "util/fault_injection.h"
#include "util/json_io.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftes {

std::string StageMetrics::to_json() const {
  std::ostringstream out;
  out << "{\"stage\": ";
  json_escape(out, stage);
  out << ", \"skipped\": " << (skipped ? "true" : "false")
      << ", \"evaluations\": " << eval.evaluations
      << ", \"sched_events_total\": " << eval.ls_events_total
      << ", \"sched_events_resumed\": " << eval.ls_events_resumed
      << ", \"search_iterations\": " << search.iterations
      << ", \"search_accepted\": " << search.accepted_moves
      << ", \"search_tabu_rejected\": " << search.tabu_rejected
      << ", \"search_aspiration\": " << search.aspiration_accepted
      << ", \"timed_out\": " << (timed_out ? "true" : "false")
      << ", \"cancel_latency_seconds\": ";
  json_seconds(out, cancel_latency_seconds);
  out << ", \"fuzz_trials\": " << fuzz_trials
      << ", \"fuzz_failing_trials\": " << fuzz_failing_trials
      << ", \"fuzz_violations\": " << fuzz_violations
      << ", \"fuzz_worst_completion\": " << fuzz_worst_completion
      << ", \"result_cache_hits\": " << result_cache_hits
      << ", \"result_cache_misses\": " << result_cache_misses
      << ", \"result_cache_evictions\": " << result_cache_evictions
      << ", \"seconds\": ";
  json_seconds(out, seconds);
  out << "}";
  return out.str();
}

std::string metrics_to_json(const std::vector<StageMetrics>& stages) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out << ", ";
    out << stages[i].to_json();
  }
  out << "]";
  return out.str();
}

SynthesisContext::SynthesisContext(Application app, Architecture arch,
                                   SynthesisOptions options)
    : app_(std::move(app)),
      arch_(std::move(arch)),
      options_(std::move(options)),
      eval_(app_, arch_, options_.fault_model,
            options_.optimize.verify_every) {
  app_.validate(arch_);
  options_.fault_model.validate();
}

ThreadPool& SynthesisContext::pool() const {
  return options_.optimize.pool ? *options_.optimize.pool
                                : ThreadPool::shared();
}

// --- stages -----------------------------------------------------------------

namespace {

/// What the stages read and write.
struct SynthesisState {
  PolicyAssignment assignment;  ///< F and M (after the optimizer stages)
  Time wcsl_bound = 0;          ///< analytic WCSL of the optimizer stages
  WcslResult wcsl;              ///< full analytic result (analysis stage)
  std::optional<CondScheduleResult> schedule;  ///< S, if built
  bool schedulable = false;
};

/// A stage fills the evaluation and search counters of its StageMetrics
/// (the pipeline fills name, wall-clock and skip state, and sums the
/// stages' search evaluations into SynthesisResult::evaluations).
void policy_assignment(SynthesisContext& ctx, SynthesisState& state,
                       StageMetrics& metrics) {
  OptimizeOptions opt = ctx.options().optimize;
  opt.eval = &ctx.eval();
  opt.cancel = &ctx.cancel_token();
  OptimizeResult r =
      optimize_policy_and_mapping(ctx.app(), ctx.arch(), ctx.model(), opt);
  state.assignment = std::move(r.assignment);
  state.wcsl_bound = r.wcsl;
  state.schedulable = r.schedulable;
  metrics.eval = r.eval_stats;
  metrics.search = r.search_stats;
}

void checkpoint_refine(SynthesisContext& ctx, SynthesisState& state,
                       StageMetrics& metrics) {
  const SynthesisOptions& options = ctx.options();
  if (!options.refine_checkpoints || !options.optimize.optimize_checkpoints) {
    metrics.skipped = true;
    return;
  }
  CheckpointOptOptions opt;
  opt.max_checkpoints = options.optimize.max_checkpoints;
  opt.threads = options.optimize.threads;
  opt.pool = options.optimize.pool;
  opt.eval = &ctx.eval();
  opt.cancel = &ctx.cancel_token();
  CheckpointOptResult r = optimize_checkpoints_global(
      ctx.app(), ctx.arch(), ctx.model(), std::move(state.assignment), opt);
  state.assignment = std::move(r.assignment);
  state.wcsl_bound = r.wcsl;
  metrics.eval = r.eval_stats;
  metrics.search = r.search_stats;
}

void schedule_tables(SynthesisContext& ctx, SynthesisState& state,
                     StageMetrics& metrics) {
  const SynthesisOptions& options = ctx.options();
  const EvalStats before = ctx.eval().stats();
  state.wcsl = ctx.eval().evaluate_full(state.assignment);
  state.schedulable = state.wcsl.meets_deadlines(ctx.app());
  metrics.eval = ctx.eval().stats().since(before);
  if (!options.build_schedule_tables) return;

  CancellationToken& cancel = ctx.cancel_token();
  if (cancel.poll()) return;
  try {
    CondScheduleOptions sched = options.schedule;
    sched.threads = options.optimize.threads;
    sched.pool = options.optimize.pool;
    sched.cancel = &cancel;
    state.schedule = conditional_schedule(ctx.app(), ctx.arch(),
                                          state.assignment, ctx.model(),
                                          sched);
    // The scenario-exact WCSL can only be tighter than the analytic bound.
    state.schedulable = state.schedulable ||
                        state.schedule->wcsl <= ctx.app().deadline();
  } catch (const CancelledError&) {
    // Tables from a scenario subset would be wrong, not partial: return
    // the analytic result only; the pipeline reports the timeout.
  } catch (const std::length_error& e) {
    FTES_LOG(kInfo) << "schedule tables skipped: " << e.what();
  }
}

struct Stage {
  const char* name;
  void (*run)(SynthesisContext&, SynthesisState&, StageMetrics&);
};
constexpr Stage kStages[] = {{"policy_assignment", policy_assignment},
                             {"checkpoint_refine", checkpoint_refine},
                             {"schedule_tables", schedule_tables}};
constexpr int kStageCount = static_cast<int>(std::size(kStages));

}  // namespace

// --- pipeline ---------------------------------------------------------------

SynthesisResult Pipeline::run(SynthesisContext& ctx) {
  metrics_.assign(std::size(kStages), StageMetrics{});
  SynthesisState state;
  const SynthesisOptions& options = ctx.options();
  CancellationToken& cancel = ctx.cancel_token();
  if (options.total_budget_ms >= 0) {
    cancel.arm_total_budget_ms(options.total_budget_ms);
  }
  for (int i = 0; i < kStageCount; ++i) {
    const Stage& stage = kStages[i];
    StageMetrics& metrics = metrics_[static_cast<std::size_t>(i)];
    metrics.stage = stage.name;
    // The first stage runs even on a fired token: it returns at its first
    // cancellation point with the start, so a cancelled run still reports
    // a valid assignment and its bound.
    if (i > 0 && cancel.poll()) {
      metrics.skipped = true;
      metrics.timed_out = cancel.deadline_expired();
      continue;
    }
    StageProgress progress{i, kStageCount, stage.name, false};
    ctx.report_progress(progress);
    if (options.stage_budget_ms >= 0) {
      cancel.arm_stage_budget_ms(options.stage_budget_ms);
    }
    const Stopwatch watch;
    FTES_FAULT_POINT("pipeline.stage");
    stage.run(ctx, state, metrics);
    metrics.seconds = watch.seconds();
    cancel.clear_stage_deadline();
    if (cancel.cancelled()) {
      metrics.timed_out = cancel.deadline_expired();
      metrics.cancel_latency_seconds = cancel.seconds_since_cancel();
    }
    progress.finished = true;
    ctx.report_progress(progress);
  }
  SynthesisResult result;
  result.assignment = std::move(state.assignment);
  result.wcsl = std::move(state.wcsl);
  if (result.wcsl.process_finish.empty() && state.wcsl_bound > 0) {
    // The analysis stage never ran (a cancelled run): surface the
    // optimizer stages' analytic bound so the partial result still
    // reports a meaningful worst case.
    result.wcsl.makespan = state.wcsl_bound;
  }
  result.schedule = std::move(state.schedule);
  result.schedulable = state.schedulable;
  for (const StageMetrics& metrics : metrics_) {
    result.evaluations += metrics.search.evaluations;
  }
  result.cancelled = cancel.cancelled();
  result.timed_out = cancel.deadline_expired();
  return result;
}

}  // namespace ftes
